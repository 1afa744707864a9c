"""Shared oracles and the acceptance-criteria report hook."""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from graphquant.graph import GROUP_TOKENS
from graphquant.noise import dyadic_matrix
from graphquant.quantify import EdgeVector, PropVector, UndefinedShareError
from graphquant.samplers import NoObservedEdgesError, Sample, check_quantile, rank_records, top_cut

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, capture-proof."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def expected_edge_mix_by_enumeration(labels, edges, confusion):
    """Brute-force oracle: expected measured edge-type shares.

    Enumerates every predicted-label assignment of the graph, weights it
    by the product of per-node confusion probabilities, and accumulates
    the edge-type shares. Independent of the dyadic closed form.
    """
    labels = list(labels)
    col = {
        0: (confusion.a_given_a, confusion.b_given_a),
        1: (confusion.a_given_b, confusion.b_given_b),
    }
    total = np.zeros(3)
    for assignment in itertools.product((0, 1), repeat=len(labels)):
        prob = 1.0
        for true, pred in zip(labels, assignment):
            prob *= col[true][pred]
        if prob == 0.0:
            continue
        counts = np.zeros(3)
        for u, v in edges:
            counts[assignment[u] + assignment[v]] += 1
        total += prob * counts / len(edges)
    return total


def dyadic_apply(confusion, shares) -> tuple[float, float, float]:
    """Forward dyadic map: expected measured edge-type shares (aa, ab, bb)
    of the true ``shares`` under independent endpoint noise."""
    x, y, z = shares
    return tuple(r[0] * x + r[1] * y + r[2] * z for r in dyadic_matrix(confusion.to_flat()))


def measured_proportions(true: PropVector, confusion) -> PropVector:
    """Expected measured shares under noise (forward map of the confusion matrix)."""
    m_a = confusion.a_given_a * true.a + confusion.a_given_b * true.b
    m_b = confusion.b_given_a * true.a + confusion.b_given_b * true.b
    return PropVector(m_a, m_b)


def measured_edge_proportions(true: EdgeVector, confusion) -> EdgeVector:
    """Expected measured edge-type shares under independent endpoint noise."""
    t = dyadic_apply(confusion, true.as_tuple())
    return EdgeVector(t[0], t[1], t[2])


def mean_field_mixing(minority_frac: float, ingroup_pref: float) -> tuple[float, EdgeVector]:
    """Mean-field fixed point of the homophilous preferential attachment of
    Karimi et al. (Sci. Rep. 8:11077, 2018), the model the generator samples:
    the minority's share x* of degree mass, and the edge-type shares.

    A new node of group g picks a group-b target with probability
    pi_g(x) = w_gb x / (w_ga (1 - x) + w_gb x), with w_same = ingroup_pref
    and w_cross = 1 - ingroup_pref. It adds m stubs to its own group and m
    to its targets' groups, so x* = (f + f pi_b(x*) + (1 - f) pi_a(x*)) / 2,
    s_bb = f pi_b(x*) and s_aa = (1 - f)(1 - pi_a(x*)). Bisection probes
    only the open interval, where no denominator vanishes."""
    f, same, cross = minority_frac, ingroup_pref, 1.0 - ingroup_pref

    def pi_b(x):
        return same * x / (cross * (1.0 - x) + same * x)

    def pi_a(x):
        return cross * x / (same * (1.0 - x) + cross * x)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        x = (lo + hi) / 2.0
        lo, hi = (x, hi) if (f + f * pi_b(x) + (1.0 - f) * pi_a(x)) / 2.0 > x else (lo, x)
    x = (lo + hi) / 2.0
    s_bb, s_aa = f * pi_b(x), (1.0 - f) * (1.0 - pi_a(x))
    return x, EdgeVector(s_aa, 1.0 - s_aa - s_bb, s_bb)


def rows_for(result, **filters):
    """Result rows whose fields equal the given values."""
    return [r for r in result.rows if all(getattr(r, k) == v for k, v in filters.items())]


def errors_for(result, **filters) -> np.ndarray:
    """Errors of the matching rows that did not fail."""
    return np.array(
        [
            r.error
            for r in rows_for(result, **filters)
            if r.error is not None and not r.flags.startswith("failed")
        ]
    )


def has_edge(g, u, v) -> bool:
    """Whether v is among u's neighbours in the CSR arrays."""
    return int(v) in g.indices[g.indptr[u] : g.indptr[u + 1]]


def reference_induced_edges(g, ids):
    """Induced edges of the distinct node ids, record i holding ids[i], as
    record-index pairs, by a mask over every edge of the graph, in the
    graph's edge order."""
    record = np.full(g.node_count, -1)
    record[ids] = np.arange(len(ids))
    pairs = record[g.edges]
    return pairs[(pairs >= 0).all(axis=1)]


def assert_induced_edges_match(g, sample):
    """A node sample's nodes are distinct, and its observed edges equal
    the reference, element for element and in order."""
    assert np.unique(sample.nodes).size == len(sample)
    want = reference_induced_edges(g, sample.nodes)
    assert sample.edge_positions.dtype == np.int64
    assert sample.edge_positions.shape == want.shape
    assert sample.edge_positions.tolist() == want.tolist()


def records_array(records) -> np.ndarray:
    """Python records as the ``(k, 2)`` int64 array the file readers return.

    ``records`` is a sequence of ``(u, v)`` edge pairs or ``(node id,
    group)`` label pairs, or a dict from node id to group. A group is a
    token of ``GROUP_TOKENS`` or its code; label pairs keep their order,
    so an id listed twice stays listed twice."""
    if isinstance(records, dict):
        records = records.items()
    rows = [(u, GROUP_TOKENS.index(v) if isinstance(v, str) else v) for u, v in records]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


# The single-sample chain the grid's array pass replaced. Each function
# measures one sample, or one vector, and is the definition that the grid's
# cuts and the census's truths must equal bit for bit.

_RECORD_FIELDS = ("nodes", "degrees", "labels", "weights")


def take(sample, idx):
    """The records at ``idx`` with their weights, and no observed edges."""
    records = {name: getattr(sample, name)[idx] for name in _RECORD_FIELDS}
    return dataclasses.replace(sample, edge_positions=np.empty((0, 2), dtype=np.int64), **records)


def prefix(sample, count):
    """The first ``count`` records and the observed edges between them: the
    sample of size ``count`` that a draw's first records are."""
    pos = sample.edge_positions
    records = {name: getattr(sample, name)[:count] for name in _RECORD_FIELDS}
    return dataclasses.replace(sample, edge_positions=pos[pos.max(axis=1) < count], **records)


def with_noisy_labels(sample, noisy_by_node):
    """Copy of a sample whose labels are noisy labels looked up per node, so
    a node keeps one noisy label however often the sample saw it."""
    return dataclasses.replace(sample, labels=np.asarray(noisy_by_node, dtype=np.int8)[sample.nodes])


def estimate_proportions(sample) -> PropVector:
    """Weighted group shares over the sample's records."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    share_b = float(np.multiply(sample.weights, sample.labels == 1).sum() / sample.weights.sum())
    return PropVector(1.0 - share_b, share_b)


def estimate_edge_vector(sample) -> EdgeVector:
    """Edge-type shares (aa, ab, bb) over the sample's observed edges."""
    edges = sample.edge_positions.shape[0]
    if edges == 0:
        raise NoObservedEdgesError("sample observed no edges")
    counts = np.bincount(sample.labels[sample.edge_positions].sum(axis=1), minlength=3)
    return EdgeVector(*(counts / edges).tolist())


def top_records(sample, quantile):
    """The records ``top_cut`` picks from the whole sample, ranked by
    ``rank_records``, with their weights. Refuses a quantile outside (0, 1]
    with a plain ``ValueError``."""
    check_quantile(quantile)
    idx, weights = top_cut(rank_records(sample), sample.weights, quantile)
    return dataclasses.replace(take(sample, idx), weights=weights)


def ingroup_share(edge_shares: EdgeVector, group: int) -> float:
    """2*own / (2*own + ab) for group a (0) or b (1); raises when the group
    has no edge endpoints."""
    if group not in (0, 1):
        raise ValueError(f"group must be 0 (a) or 1 (b), got {group}")
    own = edge_shares.bb if group == 1 else edge_shares.aa
    denom = 2.0 * own + edge_shares.ab
    if denom == 0.0:
        raise UndefinedShareError("group has no edge endpoints")
    return 2.0 * own / denom


def coleman_homophily(s_g: float, p_g: float) -> float:
    """Coleman's index: the excess s_g - p_g over the headroom above (1 -
    p_g) or below (p_g) random mixing; raises for an empty or whole group."""
    if p_g in (0.0, 1.0):
        raise UndefinedShareError(f"homophily undefined for group proportion {p_g}")
    diff = s_g - p_g
    return diff / (1.0 - p_g) if diff >= 0.0 else diff / p_g


@dataclass(frozen=True)
class ReferenceTruth:
    """Exact population measures of a labeled graph, None where undefined."""

    p: PropVector
    s: EdgeVector
    visibility_b: float | None
    homophily_a: float | None
    homophily_b: float | None

    def as_dict(self) -> dict:
        """The measures as the truth command's JSON names and orders them."""
        return {
            "p_a": self.p.a, "p_b": self.p.b, "s_aa": self.s.aa, "s_ab": self.s.ab, "s_bb": self.s.bb,
            "visibility_b": self.visibility_b, "homophily_a": self.homophily_a,
            "homophily_b": self.homophily_b,
        }


def reference_ground_truth(g, top_quantile: float = 0.2) -> ReferenceTruth:
    """The single-sample estimators run on the census, every node once at
    unit weight with every edge observed. Visibility is None below 1/q
    nodes, and a group's homophily None when the group is empty or whole."""
    census = Sample(np.arange(g.node_count), g.degrees, g.labels, np.ones(g.node_count), g.edges)
    p, s = estimate_proportions(census), estimate_edge_vector(census)
    try:
        visibility_b = estimate_proportions(top_records(census, top_quantile)).b
    except UndefinedShareError:
        visibility_b = None

    def h_for(p_g: float, group: int) -> float | None:
        try:
            return coleman_homophily(ingroup_share(s, group), p_g)
        except UndefinedShareError:
            return None

    return ReferenceTruth(p, s, visibility_b, h_for(p.a, 0), h_for(p.b, 1))
