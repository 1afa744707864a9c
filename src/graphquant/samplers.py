"""Graph sampling strategies and the estimators built on their output.

Four samplers observe a graph through different windows: a degree-biased
random walk (single chain, uniform transitions over neighbors), uniform
node sampling, uniform edge sampling, and breadth-first snowball
expansion, which grows one vectorised wave (``_wave``) at a time over
the graph's CSR arrays. Each returns the same ``Sample`` record, so
every estimator below works from sample data alone and never asks which
sampler ran:

- ``nodes``, ``degrees`` and ``labels`` hold one entry per record; the
  labels are true groups, or the classifier's after ``with_noisy_labels``.
- ``weights`` is the per-record weight of share estimates: ``1/d`` for
  walk steps, which undoes the walk's degree bias (the RWRW ratio
  estimator), and 1 for every other sampler.
- ``edge_positions`` holds the edges the sampler legitimately observed
  as pairs of record indices: consecutive steps ``(i, i+1)`` for a walk,
  ``(2i, 2i+1)`` for edge samples, the induced edges for node samples,
  and the discovery edges for snowball samples.

Node samples and snowball waves read the same CSR gather
(``_neighbours``). A node sample's induced edges are the neighbours in
the sampled nodes' rows that are sampled and greater than the row's
node, so finding them costs the sample's total degree, not a scan of
every edge, and they come in the graph's edge order.

Visibility is the group-share estimate over the top-quantile records,
``estimate_proportions(top_records(sample, q))``: a weighted degree
quantile, which on a walk undoes the degree bias as the RWRW ratio
estimator does (Gjoka et al., "Walking in Facebook", INFOCOM 2010), and
with unit weights selects the first floor(n * q) records by (-degree,
node id). A graph's exact measures (``ground_truth``) are these
estimators run on the census, the graph as a sample of every node, so a
sample and its graph share one top-quantile rule.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import GROUP_TOKENS, MISSING, UndirectedGraph
from .quantify import EdgeVector, PropVector, UndefinedShareError, coleman_homophily, ingroup_share

SEED_DEGREE = "degree_proportional"
SEED_UNIFORM = "uniform_with_burnin"


class NoObservedEdgesError(ValueError):
    """The sample contains no usable edge observations."""


@dataclass(frozen=True)
class Sample:
    """Records one sampler observed, with their weights and observed edges.

    Records may repeat a node (walk revisits, edge endpoints shared
    between edges). ``burn_in`` counts the walk steps discarded before
    recording started.
    """

    nodes: np.ndarray
    degrees: np.ndarray
    labels: np.ndarray  # int8 group per record
    weights: np.ndarray  # per-record weight of share estimates
    edge_positions: np.ndarray  # (E, 2) record indices of each observed edge
    burn_in: int = 0

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def take(self, idx) -> "Sample":
        """The records at ``idx`` with their weights, and no observed edges."""
        return Sample(
            nodes=self.nodes[idx],
            degrees=self.degrees[idx],
            labels=self.labels[idx],
            weights=self.weights[idx],
            edge_positions=np.empty((0, 2), dtype=np.int64),
        )


def _records(g: UndirectedGraph, nodes, edge_positions, weights=None, burn_in=0) -> Sample:
    """Sample of graph nodes; unit weights unless given."""
    return Sample(
        nodes=nodes,
        degrees=g.degrees[nodes],
        labels=g.labels[nodes],
        weights=np.ones(nodes.shape[0]) if weights is None else weights,
        edge_positions=np.asarray(edge_positions, dtype=np.int64).reshape(-1, 2),
        burn_in=burn_in,
    )


def with_noisy_labels(sample: Sample, noisy_by_node) -> Sample:
    """Copy of a sample whose labels are noisy labels looked up per node.

    The lookup is a per-node array for the whole graph, so a node keeps
    one noisy label no matter how often the sample saw it.
    """
    arr = np.asarray(noisy_by_node, dtype=np.int8)[sample.nodes]
    return dataclasses.replace(sample, labels=arr)


def check_walk(seed_mode: str, burn_in: int) -> None:
    """Refuse an unknown walk seed mode or a negative burn-in."""
    if seed_mode not in (SEED_DEGREE, SEED_UNIFORM):
        raise ValueError(f"unknown seed_mode {seed_mode!r}")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")


def rwrw_walk(
    g: UndirectedGraph,
    n_steps: int,
    seed_mode: str = SEED_DEGREE,
    burn_in: int = 0,
    rng_seed=None,
) -> Sample:
    """Random-walk the graph and record one node per step.

    The seed node is drawn proportional to degree (the walk's stationary
    distribution) or uniformly; in either mode, ``burn_in`` leading steps
    are discarded before recording starts. Transitions are uniform
    over the current node's neighbors. Records carry ``1/d`` weights and
    consecutive steps as observed edges.
    """
    if n_steps < 1:
        raise ValueError("walk needs at least one step")
    check_walk(seed_mode, burn_in)
    rng = np.random.default_rng(rng_seed)
    if seed_mode == SEED_DEGREE:
        # indptr[1:] is the unnormalised degree CDF: the node rng.choice(p=d/D) picks.
        cur = int(np.searchsorted(g.indptr[1:], rng.random() * g.total_degree, side="right"))
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
    # Rows ascend and so do neighbours within a row, so the pairs (row node,
    # larger neighbour) come in the order of g.edges.
    nbrs, row = _neighbours(g.indptr, g.indices, ids)
    keep = mask[nbrs] & (nbrs > ids[row])
    return _records(g, ids, np.column_stack([row[keep], np.searchsorted(ids, nbrs[keep])]))


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


def _neighbours(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The neighbours of each node in ``rows``, row after row and ascending
    within a row, and the position in ``rows`` of each one's row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts  # where each node's neighbours land in slots
    slots = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    return indices[slots], np.repeat(np.arange(rows.shape[0]), counts)


def _wave(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, visited: np.ndarray):
    """One breadth-first wave: the unvisited neighbours of ``frontier``.

    They come in frontier order, each node's neighbours ascending, and a
    node reached twice belongs to its first discoverer. Returns the new
    nodes, now marked visited, and the frontier position of each one's
    discoverer.
    """
    nbrs, owner = _neighbours(indptr, indices, frontier)
    fresh = ~visited[nbrs]
    nbrs, owner = nbrs[fresh], owner[fresh]
    first = np.sort(np.unique(nbrs, return_index=True)[1])
    visited[nbrs[first]] = True
    return nbrs[first], owner[first]


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


def check_quantile(quantile: float) -> None:
    """Refuse a top quantile outside (0, 1], NaN included."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"top_quantile must lie in (0, 1], got {quantile}")


def top_records(sample: Sample, quantile: float) -> Sample:
    """The top-quantile records by (-degree, node id), taken whole while
    their cumulative weight stays within ``sum(w) * count / n``, where
    ``count = floor(n * quantile)``; the next record carries the weight
    left over. Unit weights give exactly the first ``count`` records.
    Raises ``UndefinedShareError`` when ``count`` is 0, and refuses a
    quantile outside (0, 1] with a plain ``ValueError``."""
    check_quantile(quantile)
    n = len(sample)
    count = int(n * quantile)
    if count < 1:
        raise UndefinedShareError("top quantile selects no records")
    order = np.lexsort((sample.nodes, -np.asarray(sample.degrees, dtype=np.int64)))
    cum = np.cumsum(sample.weights[order])
    budget = cum[-1] * count / n
    whole = int(np.searchsorted(cum, budget, side="right"))
    left = budget - (cum[whole - 1] if whole else 0.0)
    if whole == n or left <= 0.0:
        return sample.take(order[:whole])
    top = sample.take(order[: whole + 1])
    top.weights[-1] = left
    return top


def estimate_proportions(sample: Sample) -> PropVector:
    """Weighted group-share estimate over the sample records.

    Walks are reweighted by inverse degree; node and snowball records
    count equally; edge samples give the endpoint share, which is
    degree-biased by design and documents what edge sampling can
    actually see.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    share_b = float((sample.weights * (sample.labels == 1)).sum() / sample.weights.sum())
    return PropVector(1.0 - share_b, share_b)


def estimate_edge_vector(sample: Sample) -> EdgeVector:
    """Edge-type shares (aa, ab, bb) over the sample's observed edges."""
    pos = sample.edge_positions
    if pos.shape[0] == 0:
        raise NoObservedEdgesError("sample observed no edges")
    pair = sample.labels[pos[:, 0]].astype(np.int64) + sample.labels[pos[:, 1]]
    shares = np.bincount(pair, minlength=3) / pos.shape[0]
    return EdgeVector(*shares.tolist())


@dataclass(frozen=True)
class GroundTruth:
    """Exact population measures of a labeled graph."""

    p: PropVector
    s: EdgeVector
    visibility_b: float | None
    homophily_a: float | None
    homophily_b: float | None

    def as_dict(self) -> dict:
        return {
            "p_a": self.p.a,
            "p_b": self.p.b,
            "s_aa": self.s.aa,
            "s_ab": self.s.ab,
            "s_bb": self.s.bb,
            "visibility_b": self.visibility_b,
            "homophily_a": self.homophily_a,
            "homophily_b": self.homophily_b,
        }


def ground_truth(g: UndirectedGraph, top_quantile: float = 0.2) -> GroundTruth:
    """Exact population measures: the estimators above run on the census,
    every node once at unit weight with every edge observed.

    As for a sample, visibility is None below 1/q nodes. Homophily for a
    group is None when that group is empty or is the whole population,
    where the index is undefined. The top quantile must lie in (0, 1].
    """
    # Record i is node i, so the edge list holds the census's edge positions.
    census = _records(g, np.arange(g.node_count), g.edges)
    p = estimate_proportions(census)
    s = estimate_edge_vector(census)
    try:
        visibility_b = estimate_proportions(top_records(census, top_quantile)).b
    except UndefinedShareError:
        visibility_b = None

    def h_for(p_g: float, group: int) -> float | None:
        try:
            return coleman_homophily(ingroup_share(s, group), p_g).value
        except UndefinedShareError:
            return None

    return GroundTruth(p, s, visibility_b, h_for(p.a, 0), h_for(p.b, 1))


def write_sample_records(sample: Sample, path, noisy: Sample | None = None) -> None:
    """Audit format: one record per line as ``node_id degree true_label
    noisy_label step_index``, noisy labels from the copy ``noisy`` or NA."""
    noisy_codes = np.full(len(sample), MISSING) if noisy is None else noisy.labels
    tokens = np.array(GROUP_TOKENS)[np.column_stack([sample.labels, noisy_codes])]
    rows = np.column_stack([sample.nodes, sample.degrees, tokens, np.arange(len(sample))])
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, rows, fmt="%s", header="node_id degree true_label noisy_label step_index")
