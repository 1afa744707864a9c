"""Graph sampling strategies and the estimators built on their output.

Four samplers observe a graph through different windows: a degree-biased
random walk (single chain, uniform transitions over neighbors), uniform
node sampling, uniform edge sampling, and breadth-first snowball
expansion. Each returns the same ``Sample`` record, so every estimator
below works from sample data alone and never asks which sampler ran:

- ``nodes``, ``degrees``, ``true_labels`` and ``noisy_labels`` hold one
  entry per record (the noisy labels once attached).
- ``weights`` is the per-record weight of share estimates: ``1/d`` for
  walk steps, which undoes the walk's degree bias (the RWRW ratio
  estimator), and 1 for every other sampler.
- ``edge_positions`` holds the edges the sampler legitimately observed
  as pairs of record indices: consecutive steps ``(i, i+1)`` for a walk,
  ``(2i, 2i+1)`` for edge samples, the induced edges for node samples,
  and the discovery edges for snowball samples.

Importance resampling with the walk weights recovers an approximately
uniform node sample from a walk, which is what the degree-quantile
visibility estimate needs; the resample carries unit weights and no
edges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import UndirectedGraph, _wave, group_token, top_quantile_indices
from .quantify import PropVector, EdgeVector

SEED_DEGREE = "degree_proportional"
SEED_UNIFORM = "uniform_with_burnin"


class NoObservedEdgesError(ValueError):
    """The sample contains no usable edge observations."""


@dataclass(frozen=True)
class Sample:
    """Records one sampler observed, with their weights and observed edges.

    Records may repeat a node (walk revisits, edge endpoints shared
    between edges, resample draws). ``burn_in`` counts the walk steps
    discarded before recording started.
    """

    nodes: np.ndarray
    degrees: np.ndarray
    true_labels: np.ndarray
    noisy_labels: np.ndarray | None
    weights: np.ndarray  # per-record weight of share estimates
    edge_positions: np.ndarray  # (E, 2) record indices of each observed edge
    burn_in: int = 0

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _records(g: UndirectedGraph, nodes, edge_positions, weights=None, burn_in=0) -> Sample:
    """Sample of graph nodes; unit weights unless given."""
    return Sample(
        nodes=nodes,
        degrees=g.degrees[nodes],
        true_labels=g.labels[nodes],
        noisy_labels=None,
        weights=np.ones(nodes.shape[0]) if weights is None else weights,
        edge_positions=np.asarray(edge_positions, dtype=np.int64).reshape(-1, 2),
        burn_in=burn_in,
    )


def with_noisy_labels(sample: Sample, noisy_by_node) -> Sample:
    """Copy of a sample with noisy labels looked up per visited node.

    The lookup is a per-node array for the whole graph, so a node keeps
    one noisy label no matter how often the sample saw it.
    """
    arr = np.asarray(noisy_by_node, dtype=np.int8)[sample.nodes]
    return dataclasses.replace(sample, noisy_labels=arr)


def rwrw_walk(
    g: UndirectedGraph,
    n_steps: int,
    seed_mode: str = SEED_DEGREE,
    burn_in: int = 0,
    rng_seed=None,
) -> Sample:
    """Random-walk the graph and record one node per step.

    The seed node is drawn proportional to degree (the walk's stationary
    distribution) or uniformly; with a uniform seed, ``burn_in`` leading
    steps are discarded before recording starts. Transitions are uniform
    over the current node's neighbors. Records carry ``1/d`` weights and
    consecutive steps as observed edges.
    """
    if n_steps < 1:
        raise ValueError("walk needs at least one step")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if seed_mode not in (SEED_DEGREE, SEED_UNIFORM):
        raise ValueError(f"unknown seed_mode {seed_mode!r}")
    rng = np.random.default_rng(rng_seed)
    if seed_mode == SEED_DEGREE:
        cur = int(rng.choice(g.node_count, p=g.degrees / g.total_degree))
    else:
        cur = int(rng.integers(g.node_count))

    total = n_steps + burn_in
    # Memoryviews index to Python ints, far cheaper per step than numpy scalars.
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    degrees = memoryview(g.degrees)
    nodes: list[int] = []
    while len(nodes) < total:
        for u in rng.random(min(65536, total - len(nodes))).tolist():
            nodes.append(cur)
            cur = indices[indptr[cur] + int(u * degrees[cur])]
    recorded = np.array(nodes[burn_in:], dtype=np.int64)
    steps = np.arange(n_steps)
    return _records(
        g,
        recorded,
        np.column_stack([steps[:-1], steps[1:]]),
        weights=1.0 / g.degrees[recorded],
        burn_in=burn_in,
    )


def node_sample(g: UndirectedGraph, n: int, rng_seed=None) -> Sample:
    """Uniform sample of n distinct nodes, with their induced edges."""
    if not 1 <= n <= g.node_count:
        raise ValueError(f"need 1 <= n <= {g.node_count}, got {n}")
    rng = np.random.default_rng(rng_seed)
    ids = np.sort(rng.choice(g.node_count, size=n, replace=False))
    mask = np.zeros(g.node_count, dtype=bool)
    mask[ids] = True
    keep = mask[g.edges[:, 0]] & mask[g.edges[:, 1]]
    return _records(g, ids, np.searchsorted(ids, g.edges[keep]))


def edge_sample(g: UndirectedGraph, n_edges: int, rng_seed=None) -> Sample:
    """Uniform sample of n distinct undirected edges with endpoint records.

    Endpoint records are flattened in edge order, so there are two
    records per sampled edge and nodes shared between edges repeat.
    """
    if not 1 <= n_edges <= g.edge_count:
        raise ValueError(f"need 1 <= n_edges <= {g.edge_count}, got {n_edges}")
    rng = np.random.default_rng(rng_seed)
    idx = np.sort(rng.choice(g.edge_count, size=n_edges, replace=False))
    return _records(g, g.edges[idx].reshape(-1), np.arange(2 * n_edges))


def snowball_sample(g: UndirectedGraph, n_target: int, n_seeds: int = 10, rng_seed=None) -> Sample:
    """Breadth-first crawl from uniform seeds up to exactly n_target nodes.

    Whole waves are added while they fit; the wave that would overshoot is
    truncated by a uniform draw. Observed edges are the discovery edges
    into nodes that were kept, from parent record to child record.
    """
    if not 1 <= n_target <= g.node_count:
        raise ValueError(f"need 1 <= n_target <= {g.node_count}, got {n_target}")
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    rng = np.random.default_rng(rng_seed)
    seeds = np.sort(rng.choice(g.node_count, size=min(n_seeds, g.node_count), replace=False))
    if seeds.shape[0] > n_target:
        seeds = np.sort(rng.choice(seeds, size=n_target, replace=False))

    visited = np.zeros(g.node_count, dtype=bool)
    visited[seeds] = True
    waves = [seeds]
    parents = [np.empty(0, dtype=np.int64)]  # record index of each child's parent
    count = seeds.shape[0]
    while count < n_target:
        found, parent = _wave(g.indptr, g.indices, waves[-1], visited)
        if found.shape[0] == 0:
            raise ValueError("ran out of reachable nodes before n_target")
        room = n_target - count
        if found.shape[0] > room:
            # Dropped nodes stay visited, so later waves never rediscover them.
            keep = np.sort(rng.choice(found.shape[0], size=room, replace=False))
            found, parent = found[keep], parent[keep]
        parents.append(parent + (count - waves[-1].shape[0]))
        waves.append(found)
        count += found.shape[0]

    children = np.arange(seeds.shape[0], count)
    return _records(g, np.concatenate(waves), np.column_stack([np.concatenate(parents), children]))


def importance_resample(sample: Sample, out_size: int, rng_seed=None) -> Sample:
    """Redraw records with replacement, in proportion to their weights.

    On a walk the normalized 1/d weights undo the degree bias, so the
    resampled multiset approximates a uniform-node sample. The resample
    has unit weights and no observed edges.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    if out_size < 1:
        raise ValueError("out_size must be positive")
    rng = np.random.default_rng(rng_seed)
    p = sample.weights / sample.weights.sum()
    idx = rng.choice(len(sample), size=out_size, replace=True, p=p)
    return Sample(
        nodes=sample.nodes[idx],
        degrees=sample.degrees[idx],
        true_labels=sample.true_labels[idx],
        noisy_labels=None if sample.noisy_labels is None else sample.noisy_labels[idx],
        weights=np.ones(out_size),
        edge_positions=np.empty((0, 2), dtype=np.int64),
    )


def _label_array(sample: Sample, label_field: str) -> np.ndarray:
    if label_field == "true":
        return sample.true_labels
    if label_field == "noisy":
        if sample.noisy_labels is None:
            raise ValueError("sample carries no noisy labels")
        return sample.noisy_labels
    raise ValueError(f"label_field must be 'true' or 'noisy', got {label_field!r}")


def _weighted_share(labels: np.ndarray, weights: np.ndarray, label_field: str) -> PropVector:
    share_b = float((weights * (labels == 1)).sum() / weights.sum())
    role = "true_p" if label_field == "true" else "measured_m"
    return PropVector(1.0 - share_b, share_b, role=role)


def estimate_proportions(sample: Sample, label_field: str = "true") -> PropVector:
    """Weighted group-share estimate over the sample records.

    Walks are reweighted by inverse degree; node, snowball and resampled
    records count equally; edge samples give the endpoint share, which is
    degree-biased by design and documents what edge sampling can
    actually see.
    """
    labels = _label_array(sample, label_field)
    if labels.shape[0] == 0:
        raise ValueError("empty sample")
    return _weighted_share(labels, sample.weights, label_field)


def estimate_edge_vector(sample: Sample, label_field: str = "true") -> EdgeVector:
    """Edge-type shares (aa, ab, bb) over the sample's observed edges."""
    labels = _label_array(sample, label_field)
    pos = sample.edge_positions
    if pos.shape[0] == 0:
        raise NoObservedEdgesError("sample observed no edges")
    pair = labels[pos[:, 0]].astype(np.int64) + labels[pos[:, 1]]
    shares = np.bincount(pair, minlength=3) / pos.shape[0]
    role = "true_s" if label_field == "true" else "measured_t"
    return EdgeVector(*shares.tolist(), role=role)


def shares_in_top_quantile(sample: Sample, top: np.ndarray, label_field: str = "true") -> PropVector:
    """Weighted group shares among the records at indices ``top``, the
    sample's top degree quantile as ``top_quantile_indices`` selects it."""
    labels = _label_array(sample, label_field)
    return _weighted_share(labels[top], sample.weights[top], label_field)


def estimate_visibility(
    sample: Sample,
    top_quantile: float = 0.2,
    out_size: int | None = None,
    label_field: str = "true",
    rng_seed=None,
) -> PropVector:
    """Group shares in the top degree quantile, from a walk.

    Importance-resamples the walk to approximate a uniform node sample
    (default resample size 10x the walk length), sorts by degree and
    reads the group shares in the top quantile.
    """
    if out_size is None:
        out_size = 10 * len(sample)
    if int(out_size * top_quantile) < 1:
        raise ValueError("resample too small for the requested quantile")
    resampled = importance_resample(sample, out_size, rng_seed)
    top = top_quantile_indices(resampled.degrees, top_quantile, node_ids=resampled.nodes)
    return shares_in_top_quantile(resampled, top, label_field)


def write_sample_records(sample, path) -> None:
    """Audit format: one record per line as
    ``node_id degree true_label noisy_label step_index``."""
    labels = sample.true_labels
    noisy = sample.noisy_labels
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node_id degree true_label noisy_label step_index\n")
        for i in range(len(sample)):
            noisy_tok = "NA" if noisy is None else group_token(int(noisy[i]))
            fh.write(
                f"{int(sample.nodes[i])} {int(sample.degrees[i])} "
                f"{group_token(int(labels[i]))} {noisy_tok} {i}\n"
            )
