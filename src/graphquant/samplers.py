"""Graph sampling strategies and the estimators built on their output.

Four samplers observe a graph through different windows: a degree-biased
random walk (single chain, uniform transitions over neighbors), uniform
node sampling, uniform edge sampling, and breadth-first snowball
expansion, which grows one vectorised wave (``_wave``) at a time over
the graph's CSR arrays, keeping each new node's first occurrence with one
``np.minimum.at`` over a per-crawl position array. Each returns the same
``Sample`` record, so every estimator below works from sample data alone
and never asks which sampler ran:

- ``nodes``, ``degrees`` and ``labels`` hold one entry per record; the
  labels are true groups, or the classifier's after ``with_noisy_labels``.
- ``weights`` is the per-record weight of share estimates: ``1/d`` for
  walk steps, which undoes the walk's degree bias (the RWRW ratio
  estimator), and 1 for every other sampler.
- ``edge_positions`` holds the edges the sampler legitimately observed
  as pairs of record indices: consecutive steps ``(i, i+1)`` for a walk,
  ``(2i, 2i+1)`` for edge samples, the induced edges for node samples,
  and the discovery edges for snowball samples.

Records come in the order the sampler drew them, so the first z records
of a sample, with the observed edges between them (``Sample.prefix``),
are a sample of size z of the same sampler: a walk's first z steps are a
z-step walk, the first z of a uniform ordered draw of nodes or edges are
a uniform z-subset, and a snowball crawl's records come wave by wave,
each wave in a uniform order, so its first z are whole waves and a
uniform part of the next. One draw at the largest size thus serves every
smaller size.

Node samples and snowball waves read the same CSR gather
(``_neighbours``). A node sample's induced edges are the neighbours in
the sampled nodes' rows that are sampled and greater than the row's
node, so finding them costs the sample's total degree, not a scan of
every edge, and they come in the graph's edge order.

Each estimator formula is written once and takes a table of label sets,
one row per set over the same records: ``minority_shares`` (the weighted
group share), ``edge_type_counts`` (edge types among the first edges, at
any number of cuts, from one ``bincount``) and ``top_cut`` (the weighted
top-quantile cut of records ranked by ``rank_records``).
``estimate_proportions``, ``estimate_edge_vector`` and ``top_records``
apply them to one sample; the experiment grid applies them to every label
set and prefix of a draw, and a stable ranking of the whole draw, cut at
a prefix, is the prefix's own ranking.

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

    code = "no_edges"


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

    def _subset(self, idx, edge_positions: np.ndarray) -> "Sample":
        """The records at ``idx``, a slice or index array, with the given observed edges."""
        fields = ("nodes", "degrees", "labels", "weights")
        records = {name: getattr(self, name)[idx] for name in fields}
        return dataclasses.replace(self, edge_positions=edge_positions, **records)

    def prefix(self, count: int) -> "Sample":
        """The first ``count`` records and the observed edges between them."""
        pos = self.edge_positions
        return self._subset(slice(count), pos[pos.max(axis=1) < count])

    def take(self, idx) -> "Sample":
        """The records at ``idx`` with their weights, and no observed edges."""
        return self._subset(idx, np.empty((0, 2), dtype=np.int64))


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
    """Uniform sample of n distinct nodes in draw order, with their induced edges."""
    if not 1 <= n <= g.node_count:
        raise ValueError(f"need 1 <= n <= {g.node_count}, got {n}")
    rng = np.random.default_rng(rng_seed)
    ids = rng.choice(g.node_count, size=n, replace=False)
    order = np.argsort(ids)  # record index of each node in ascending id order
    rows = ids[order]
    mask = np.zeros(g.node_count, dtype=bool)
    mask[ids] = True
    # Rows ascend and so do neighbours within a row, so the pairs (row node,
    # larger neighbour) come in the order of g.edges.
    nbrs, row = _neighbours(g.indptr, g.indices, rows)
    keep = mask[nbrs] & (nbrs > rows[row])
    pairs = np.column_stack([row[keep], np.searchsorted(rows, nbrs[keep])])
    return _records(g, ids, order[pairs])


def edge_sample(g: UndirectedGraph, n_edges: int, rng_seed=None) -> Sample:
    """Uniform sample of n distinct undirected edges in draw order, with
    endpoint records.

    Endpoint records are flattened in edge order, so there are two
    records per sampled edge and nodes shared between edges repeat.
    """
    if not 1 <= n_edges <= g.edge_count:
        raise ValueError(f"need 1 <= n_edges <= {g.edge_count}, got {n_edges}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(g.edge_count, size=n_edges, replace=False)
    return _records(g, g.edges[idx].reshape(-1), np.arange(2 * n_edges))


def _neighbours(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The neighbours of each node in ``rows``, row after row and ascending
    within a row, and the position in ``rows`` of each one's row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts  # where each node's neighbours land in slots
    slots = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    return indices[slots], np.repeat(np.arange(rows.shape[0]), counts)


# The place of a node that no seed or wave of the crawl has reached yet.
_UNSEEN = np.iinfo(np.int64).max


def _wave(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, place: np.ndarray):
    """One breadth-first wave: the unvisited neighbours of ``frontier``.

    They come in frontier order, each node's neighbours ascending, and a
    node reached twice belongs to its first discoverer. ``place`` holds one
    entry per graph node, ``_UNSEEN`` until a seed or a wave reaches it.
    One ``np.minimum.at`` writes there each new node's first position among
    the wave's neighbours, so a neighbour is its node's first occurrence
    exactly where its position is that place, and no sort is needed.
    Returns the new nodes, now placed, and the frontier position of each
    one's discoverer.
    """
    nbrs, owner = _neighbours(indptr, indices, frontier)
    fresh = place[nbrs] == _UNSEEN
    nbrs, owner = nbrs[fresh], owner[fresh]
    at = np.arange(nbrs.shape[0])
    np.minimum.at(place, nbrs, at)
    first = place[nbrs] == at
    return nbrs[first], owner[first]


def snowball_sample(g: UndirectedGraph, n_target: int, n_seeds: int = 10, rng_seed=None) -> Sample:
    """Breadth-first crawl from uniform seeds up to exactly n_target nodes.

    Waves are traversed in frontier order: the seeds ascending, then each
    wave in discovery order. Records come wave by wave, each wave's in a
    uniform order, and the wave that would overshoot keeps only its first
    records in that order. So the first z records are the crawl of z
    nodes: whole waves while they fit and a uniform part of the next.
    Observed edges are the discovery edges into kept nodes, from parent
    record to child record; a parent's wave precedes its child's, so the
    parent's record index is the smaller.
    """
    if not 1 <= n_target <= g.node_count:
        raise ValueError(f"need 1 <= n_target <= {g.node_count}, got {n_target}")
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    rng = np.random.default_rng(rng_seed)
    # A uniform draw comes in uniform order: the seeds' records as drawn.
    drawn = rng.choice(g.node_count, size=min(n_seeds, g.node_count), replace=False)
    record_of = np.argsort(drawn)  # record index of each frontier node
    frontier = drawn[record_of]

    place = np.full(g.node_count, _UNSEEN, dtype=np.int64)
    place[drawn] = -1
    waves = [drawn[:n_target]]
    parents = [np.empty(0, dtype=np.int64)]  # record index of each child's parent
    count = waves[0].shape[0]
    while count < n_target:
        found, owner = _wave(g.indptr, g.indices, frontier, place)
        if found.shape[0] == 0:
            raise ValueError("ran out of reachable nodes before n_target")
        # Dropped nodes stay placed, but no wave follows a truncated one.
        pick = rng.choice(found.shape[0], size=min(n_target - count, found.shape[0]), replace=False)
        parents.append(record_of[owner[pick]])
        waves.append(found[pick])
        record_of = np.empty(found.shape[0], dtype=np.int64)
        record_of[pick] = np.arange(count, count + pick.shape[0])
        frontier = found
        count += pick.shape[0]

    children = np.arange(waves[0].shape[0], count)
    return _records(g, np.concatenate(waves), np.column_stack([np.concatenate(parents), children]))


def check_quantile(quantile: float) -> None:
    """Refuse a top quantile outside (0, 1], NaN included."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"top_quantile must lie in (0, 1], got {quantile}")


def rank_records(sample: Sample) -> np.ndarray:
    """Record indices by (-degree, node id), tied records in record order.

    One stable sort of the int64 key ``node - degree * (max node + 1)``,
    which orders records as the pair does. A degree and a node id are both
    below the node count N, so the key stays inside int64 while N**2 < 2**63,
    that is for graphs below about 3·10⁹ nodes. The sort is stable, so the
    indices below z keep the order a sort of the first z records alone
    gives them."""
    nodes = np.asarray(sample.nodes, dtype=np.int64)
    span = int(nodes.max(initial=0)) + 1
    return np.argsort(nodes - np.asarray(sample.degrees, dtype=np.int64) * span, kind="stable")


def top_cut(ranked: np.ndarray, weights: np.ndarray, quantile: float):
    """The top-quantile records of the ``ranked`` record indices and their
    weights: taken whole while their cumulative weight stays within
    ``sum(w) * count / n``, where ``n`` records are ranked and ``count =
    floor(n * quantile)``, and the next record carries the weight left
    over. Unit weights give exactly the first ``count`` records. Raises
    ``UndefinedShareError`` when ``count`` is 0."""
    n = ranked.shape[0]
    count = int(n * quantile)
    if count < 1:
        raise UndefinedShareError("top quantile selects no records")
    w = weights[ranked]
    cum = np.cumsum(w)
    budget = cum[-1] * count / n
    whole = int(np.searchsorted(cum, budget, side="right"))
    left = budget - (cum[whole - 1] if whole else 0.0)
    if whole == n or left <= 0.0:
        return ranked[:whole], w[:whole]
    w[whole] = left
    return ranked[: whole + 1], w[: whole + 1]


def top_records(sample: Sample, quantile: float) -> Sample:
    """The records ``top_cut`` picks from the whole sample, ranked by
    ``rank_records``, with their weights. Refuses a quantile outside
    (0, 1] with a plain ``ValueError``."""
    check_quantile(quantile)
    idx, weights = top_cut(rank_records(sample), sample.weights, quantile)
    return dataclasses.replace(sample.take(idx), weights=weights)


def minority_shares(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Weighted minority share of each label set: ``labels`` holds one set
    per row (or is one set) over the records that ``weights`` weigh. Each
    row of the C-ordered block of weighted indicators rounds as the 1-D
    sum of that row alone would; another layout may not."""
    block = np.multiply(weights, labels == 1, order="C")
    return block.sum(axis=-1) / weights.sum()


def edge_type_counts(labels: np.ndarray, edge_positions: np.ndarray, cuts) -> np.ndarray:
    """Edge-type counts (aa, ab, bb) of each label set among the first
    ``c`` observed edges, for each ``c`` in ``cuts``, shaped
    ``labels.shape[:-1] + (len(cuts), 3)``. One ``bincount`` counts every
    set's pair codes in each stretch between consecutive distinct cuts,
    each key offset by 3 per stretch and by 3 per stretch per set, and a
    running sum over the stretches gives the counts at every cut."""
    steps, at = np.unique(cuts, return_inverse=True)
    used = edge_positions[: steps[-1]]
    pair = np.atleast_2d(np.take(labels, used[:, 0], axis=-1) + np.take(labels, used[:, 1], axis=-1))
    stretch = np.repeat(np.arange(steps.shape[0]), np.diff(steps, prepend=0))
    keys = 3 * (stretch + steps.shape[0] * np.arange(pair.shape[0])[:, None]) + pair
    counts = np.bincount(keys.ravel(), minlength=3 * steps.shape[0] * pair.shape[0])
    counts = counts.reshape(labels.shape[:-1] + (steps.shape[0], 3)).cumsum(axis=-2)
    return counts[..., at, :]


def estimate_proportions(sample: Sample) -> PropVector:
    """Weighted group-share estimate over the sample records.

    Walks are reweighted by inverse degree; node and snowball records
    count equally; edge samples give the endpoint share, which is
    degree-biased by design and documents what edge sampling can
    actually see.
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    share_b = float(minority_shares(sample.weights, sample.labels))
    return PropVector(1.0 - share_b, share_b)


def estimate_edge_vector(sample: Sample) -> EdgeVector:
    """Edge-type shares (aa, ab, bb) over the sample's observed edges."""
    edges = sample.edge_positions.shape[0]
    if edges == 0:
        raise NoObservedEdgesError("sample observed no edges")
    counts = edge_type_counts(sample.labels, sample.edge_positions, [edges])[0]
    return EdgeVector(*(counts / edges).tolist())


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
            return coleman_homophily(ingroup_share(s, group), p_g)
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
