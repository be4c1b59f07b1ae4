"""In-order task map, run in the calling thread.

cli.cmd_simulate formats simulate.csv's rows, one item per shift, and
aline.min_model_count maps its bootstrap draws, through parallel_map. The
benchmark tracer (perfbench/tracer.py) wraps parallel_map, counts its
items and reads thread_count, and its own test and tests/test_bench_tracer.py
expect items on both the simulate and the mincount workloads, so both names
stay until the tracer stops wrapping the map; the module is then deleted.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]
