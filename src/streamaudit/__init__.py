"""streamaudit: diagnostics for label autocorrelation in data-stream
benchmarks, naive baselines (persistence, majority, random-restart
majority), synthetic Markov label streams and a prequential evaluation
harness with an accuracy audit protocol.
"""

from .baselines import (RestartPolicy, SweepConfig, SweepResult,
                        exact_rho_curve, majority_baseline,
                        random_restart_run, random_restart_trace, rho_sweep)
from .diagnostics import (AcfSeries, DiagnosticsReport, LabelDistribution,
                          RunLengthStats, autocorrelation, diagnose,
                          independence_bar, label_distribution,
                          persistence_accuracy, run_lengths)
from .errors import (EmptyStream, InvalidModel, InvalidRho, LabelMismatch,
                     LagTooLarge, ParseError, SchemaMismatch, ScoreOverflow,
                     StreamAuditError, UnsupportedFeature, ZeroVariance)
from .evaluation import (AuditVerdict, EvalReport, NaiveBayesLearner,
                         Verdict, audit_accuracy, audit_prediction_log,
                         prequential_eval, read_prediction_log,
                         write_prediction_log)
from .stream_io import (AttributeSchema, Instance, StreamDataset,
                        dataset_summary, parse_arff, parse_csv, to_arff)
from .synth import (MarkovLabelModel, gen_iid_labels, gen_markov_labels,
                    labels_to_arff, labels_to_csv, labels_to_dataset)

__version__ = "0.1.0"
