"""Single-kernel Gradraker: adaptive prediction of nodal values on graphs.

The learner maps a node's adjacency vector through random Fourier
features of a Gaussian kernel, trains a linear head by sequential
least-squares gradient descent, and predicts unknown nodal values from
the connection structure alone. The package also ships the diagnostic
machinery (similarity measures, contribution weights, noise ranges) and
a closed-form procedure selecting the kernel variance from training-set
statistics.
"""

__version__ = "0.1.0"

from .errors import (ArgumentError, DataError, DegenerateInputError, NumericError,
                     SkgError, StateError)
from .graph_data import (Dataset, Graph, PairwiseStats, TrainingSet,
                         build_adjacency_vectors, drop_isolated, load_dataset,
                         load_graph, load_values, pairwise_histogram, pairwise_stats,
                         read_split_manifest, split_sample, write_split_manifest)
from .harness import (GnmseResult, PreparedSplit, RunConfig, RunResult, SweepGrid,
                      default_grid, export_bf_trace, export_scatter, fit_prepared, gnmse,
                      prepare, resolve_sigma_sq, run_once, select_prepared, sweep,
                      write_sweep_csv)
from .model import SkgModel, TrainingTrace, load_model, save_model
from .rff import (RandomFeatureBank, feature_map, feature_matrix, kernel_exact, sample_bank,
                  sample_banks)
from .synthetic import planted_community_dataset
from .variance import (SELECTION_REPORT_SCHEMA, SelectionReport, select, sigma_ce, sigma_da,
                       sigma_ed)
from .weights import (WeightTrace, conformity_alpha, contribution_weights, expected_weight_sum,
                      noise_up_from_run, noise_up_theoretical, probe_weight_traces, similarity,
                      similarity_approx, similarity_conditional_variance, similarity_matrix)
