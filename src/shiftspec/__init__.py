"""Spurious-correlation shift simulation and accuracy-on-the-line auditing."""

from .aline import (AlineFit, Verdict, classify_split, correlation_epsilon,
                    fit_probit_line, min_model_count)
from .analytic import normal_cdf, normal_quantile, pearson_p_value, probit
from .conditions import (ConditionReport, ShiftStack, ZeroMeasureResult,
                         accuracies_under_shifts, accuracy_under_shift,
                         classifier_sweep, condition_report,
                         condition_reports, gaussian_kappa, kappa_of_mixture,
                         lipschitz_of_linear, sweep_pairs, theorem1_margin,
                         zero_measure_experiment)
from .core import (Dataset, DomainSpec, IdentityShift, LinearClassifier,
                   LinearShift, Mask, MixtureShift, ShiftSpec, default_spec,
                   validate_spec)
from .cmnist import (CmnistSpec, cmnist_model_table, color_classifier_accuracy,
                     digit_classifier_accuracy, generate_cmnist,
                     linear_rule_accuracy)
from .ingest import (AccuracyTable, TableRow, dump_accuracy_table,
                     leave_one_out_pairs, load_accuracy_table,
                     pairwise_pairs, parse_accuracy_table,
                     save_accuracy_table)
from .synthgen import (interpolation_mixture, random_shift, reflection_shift,
                       sample_domain)
from .trainer import (OptimizerSettings, evaluate_accuracy, evaluate_risk,
                      fit_logistic)

__version__ = "0.1.0"
