"""Estimation of group properties in two-group graphs from partial samples,
with confusion-matrix correction of classifier-induced bias."""

from .graph import (
    GroundTruth,
    UndirectedGraph,
    generate_homophilous_graph,
    ground_truth,
    load_and_preprocess,
    load_graph_files,
    read_edge_list,
    read_label_file,
    top_quantile_indices,
    write_edge_list,
    write_label_file,
)
from .noise import (
    ConfusionMatrix,
    apply_noise,
    dyadic_matrix,
    empirical_confusion,
    symmetric_confusion,
)
from .quantify import (
    EdgeVector,
    HomophilyIndex,
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
    adjust_visibility,
    coleman_homophily,
    ingroup_share,
    variance_inflation_nodes,
)
from .samplers import (
    Sample,
    edge_sample,
    estimate_edge_vector,
    estimate_proportions,
    importance_resample,
    node_sample,
    rwrw_walk,
    snowball_sample,
    with_noisy_labels,
    write_sample_records,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    GraphSpec,
    ResultRow,
    SummaryRow,
    nrmse,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
