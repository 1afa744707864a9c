"""Estimation of group properties in two-group graphs from partial samples,
with confusion-matrix correction of classifier-induced bias."""

from .graph import (
    UndirectedGraph,
    generate_homophilous_graph,
    load_and_preprocess,
    load_graph_files,
    read_edge_list,
    read_label_file,
    write_edge_list,
    write_label_file,
)
from .noise import (
    ConfusionMatrix,
    apply_noise,
    empirical_confusion,
    symmetric_confusion,
)
from .quantify import (
    EdgeVector,
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
    variance_inflation_nodes,
)
from .samplers import (
    Sample,
    edge_sample,
    node_sample,
    rwrw_walk,
    snowball_sample,
    write_sample_records,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    GraphSpec,
    ResultRow,
    SummaryRow,
    ground_truth,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
