"""In-order task map, run in the calling thread.

conditions.condition_reports assembles its already computed records, and
aline.min_model_count maps its bootstrap draws, through parallel_map. The
benchmark tracer (perfbench/tracer.py) wraps parallel_map, counts its
items and reads thread_count, so both names stay until it stops.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]
