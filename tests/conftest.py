"""Shared oracles and the acceptance-criteria report hook."""

import itertools

import numpy as np

from graphquant.graph import GROUP_TOKENS
from graphquant.noise import dyadic_matrix
from graphquant.quantify import EdgeVector, PropVector

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
