"""Acceptance suite: one test per criterion, one pass/fail line each.

The heavy shared input is a single 500-replication grid on reference
graphs (10,000 nodes, 4 links per new node, minority fraction 0.2,
in-group preference 0.8) crossing all four samplers with rates 0.1/0.2/0.3
and sizes 1000..3000. Run with ``pytest tests/test_acceptance.py -v -s``;
the whole module targets desk scale (well under ten minutes).
"""

import numpy as np
import pytest

import conftest
from conftest import (
    coleman_homophily,
    dyadic_apply,
    errors_for,
    estimate_edge_vector,
    estimate_proportions,
    expected_edge_mix_by_enumeration,
    ingroup_share,
    measured_edge_proportions,
    measured_proportions,
    reference_ground_truth,
    rows_for,
    with_noisy_labels,
)
from graphquant.experiments import (
    ExperimentConfig,
    GraphSpec,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)
from graphquant.graph import (
    UndirectedGraph,
    generate_homophilous_graph,
)
from graphquant.noise import (
    ConfusionMatrix,
    apply_noise,
    symmetric_confusion,
)
from graphquant.quantify import (
    EdgeVector,
    PropVector,
    adjust_edge_proportions,
    adjust_proportions,
)
from graphquant.samplers import rwrw_walk

MASTER_SEED = 1
SIZES = (1000, 1500, 2000, 2500, 3000)


def report(criterion: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{desc}[{'ok' if passed else 'FAIL'}]" for desc, passed in checks)
    conftest.ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid():
    cfg = ExperimentConfig(
        graph=GraphSpec(n=10000, m=4, minority_frac=0.2, ingroup_pref=0.8),
        samplers=("rwrw", "node", "edge", "snowball"),
        rates=(0.1, 0.2, 0.3),
        sample_sizes=SIZES,
        replications=500,
        master_seed=MASTER_SEED,
    )
    # Thread count does not change the output bytes (test_threads_do_not_change_output).
    result = run_experiment(cfg, threads=2)
    return result, summarize(result)


def cell_nrmse(summary, **key):
    for s in summary:
        if all(getattr(s, k) == v for k, v in key.items()):
            return s.nrmse
    raise KeyError(key)


def estimates(result, **key):
    return np.array(
        [
            r.estimate
            for r in rows_for(result, **key)
            if r.estimate is not None and not r.flags.startswith("failed")
        ]
    )


def test_criterion_1_round_trip_exactness():
    rng = np.random.default_rng(42)
    worst_p = worst_s = 0.0
    for _ in range(1000):
        ba = rng.uniform(0.0, 0.45)
        ab = rng.uniform(0.0, 0.45)
        c = ConfusionMatrix(1.0 - ba, ab, ba, 1.0 - ab)
        p_b = rng.uniform(0.0, 1.0)
        p = PropVector(1.0 - p_b, p_b)
        back_p = adjust_proportions(measured_proportions(p, c), c)
        worst_p = max(worst_p, abs(back_p.a - p.a), abs(back_p.b - p.b))
        raw = rng.dirichlet((1.0, 1.0, 1.0))
        s = EdgeVector(raw[0], raw[1], raw[2])
        back_s = adjust_edge_proportions(measured_edge_proportions(s, c), c)
        worst_s = max(worst_s, *(abs(x - y) for x, y in zip(back_s.as_tuple(), s.as_tuple())))
    report(
        "criterion 1 round-trip exactness",
        [
            (f"proportions worst dev {worst_p:.2e} < 1e-12", worst_p < 1e-12),
            (f"edge shares worst dev {worst_s:.2e} < 1e-12", worst_s < 1e-12),
        ],
    )


def test_criterion_2_dyadic_correctness():
    # Exact: full 2^10 flip enumeration on a 10-node two-clique graph.
    edges = []
    for offset in (0, 5):
        edges += [(offset + i, offset + j) for i in range(5) for j in range(i + 1, 5) if i < j]
    edges.append((0, 5))
    labels = [0] * 5 + [1] * 5
    s_counts = np.zeros(3)
    for u, v in edges:
        s_counts[labels[u] + labels[v]] += 1
    s = s_counts / len(edges)
    worst = 0.0
    for c in (symmetric_confusion(0.2), ConfusionMatrix(0.9, 0.25, 0.1, 0.75)):
        expected = expected_edge_mix_by_enumeration(labels, edges, c)
        got = dyadic_apply(c, tuple(s))
        worst = max(worst, *(abs(x - y) for x, y in zip(got, expected)))

    # Monte-Carlo: 1e5 independent noise draws on a fixed 30-node graph.
    rng = np.random.default_rng(17)
    n = 30
    mc_labels = (rng.random(n) < 0.3).astype(np.int8)
    mc_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
    src = np.array([u for u, _ in mc_edges])
    dst = np.array([v for _, v in mc_edges])
    mc_s = np.zeros(3)
    for u, v in mc_edges:
        mc_s[mc_labels[u] + mc_labels[v]] += 1
    mc_s /= len(mc_edges)
    c = symmetric_confusion(0.2)
    u = rng.random((100_000, n))
    flip = np.where(mc_labels[None, :] == 1, u < c.a_given_b, u < c.b_given_a)
    noisy = np.where(flip, 1 - mc_labels[None, :], mc_labels[None, :])
    pair = noisy[:, src] + noisy[:, dst]
    t_mc = np.array([(pair == k).mean() for k in (0, 1, 2)])
    t_pred = np.array(dyadic_apply(c, tuple(mc_s)))
    mc_dev = float(np.max(np.abs(t_mc - t_pred)))

    report(
        "criterion 2 dyadic correctness",
        [
            (f"enumeration dev {worst:.2e} < 1e-12", worst < 1e-12),
            (f"Monte-Carlo dev {mc_dev:.4f} < 0.005", mc_dev < 0.005),
        ],
    )


def test_criterion_3_rwrw_convergence():
    g = generate_homophilous_graph(50, 3, 0.2, 0.8, rng_seed=16)
    truth = reference_ground_truth(g)
    walk = rwrw_walk(g, 1_000_000, rng_seed=160)
    p_hat = estimate_proportions(walk).b
    freq = np.bincount(walk.nodes, minlength=g.node_count) / len(walk)
    target = g.degrees / g.total_degree
    ks = float(np.max(np.abs(np.cumsum(freq) - np.cumsum(target))))
    report(
        "criterion 3 RWRW convergence",
        [
            (f"|p_hat - p_b| = {abs(p_hat - truth.p.b):.5f} < 0.005", abs(p_hat - truth.p.b) < 0.005),
            (f"visit-frequency KS = {ks:.5f} < 0.01", ks < 0.01),
        ],
    )


def test_criterion_4_uncorrected_bias_magnitude(grid):
    result, _ = grid
    unc = estimates(result, sampler="rwrw", rate=0.2, size=3000, measure="proportion", variant="uncorrected")
    cor = estimates(result, sampler="rwrw", rate=0.2, size=3000, measure="proportion", variant="corrected")
    report(
        "criterion 4 uncorrected bias magnitude",
        [
            (f"uncorrected mean {unc.mean():.4f} in [0.29, 0.34]", 0.29 <= unc.mean() <= 0.34),
            (f"corrected mean {cor.mean():.4f} in [0.19, 0.21]", 0.19 <= cor.mean() <= 0.21),
        ],
    )


def test_criterion_5_homophily_correction(grid):
    result, _ = grid
    unc = errors_for(result, sampler="rwrw", rate=0.2, size=3000, measure="homophily", variant="uncorrected")
    cor = errors_for(result, sampler="rwrw", rate=0.2, size=3000, measure="homophily", variant="corrected")
    truth_rows = rows_for(result, sampler="rwrw", rate=0.2, size=3000, measure="homophily", variant="no_noise")
    truths = np.array([r.estimate - r.error for r in truth_rows if r.error is not None])
    sd = cor.std(ddof=1)
    report(
        "criterion 5 homophily correction",
        [
            (f"uncorrected mean error {unc.mean():.4f} in [-0.42, -0.28]", -0.42 <= unc.mean() <= -0.28),
            (f"corrected mean error {cor.mean():.4f} within 0.005 +- 0.03", abs(cor.mean() - 0.005) <= 0.03),
            (f"corrected sd {sd:.4f} within 0.136 +- 0.05", abs(sd - 0.136) <= 0.05),
            (f"generated-graph homophily {truths.mean():.4f} within 0.42 +- 0.05", abs(truths.mean() - 0.42) <= 0.05),
        ],
    )


def test_criterion_6_variance_inflation(grid):
    result, _ = grid
    checks = []
    for rate, target in ((0.2, 2.78), (0.1, 1.5625)):
        unc = estimates(result, sampler="node", rate=rate, size=3000, measure="proportion", variant="uncorrected")
        cor = estimates(result, sampler="node", rate=rate, size=3000, measure="proportion", variant="corrected")
        ratio = cor.var(ddof=1) / unc.var(ddof=1)
        checks.append(
            (f"rate {rate}: ratio {ratio:.3f} within 30% of {target}", abs(ratio - target) <= 0.3 * target)
        )
    report("criterion 6 variance inflation", checks)


def test_criterion_7_sampler_ordering(grid):
    result, _ = grid
    node_var = estimates(result, sampler="node", rate=0.2, size=3000, measure="proportion", variant="corrected").var(ddof=1)
    rwrw_var = estimates(result, sampler="rwrw", rate=0.2, size=3000, measure="proportion", variant="corrected").var(ddof=1)
    checks = [(f"node var {node_var:.2e} <= rwrw var {rwrw_var:.2e}", node_var <= rwrw_var)]
    for sampler in ("edge", "snowball"):
        errs = errors_for(result, sampler=sampler, rate=0.2, size=3000, measure="proportion", variant="corrected")
        se = errs.std(ddof=1) / np.sqrt(errs.shape[0])
        checks.append(
            (f"{sampler} |mean error| {abs(errs.mean()):.4f} > 3 SE {3 * se:.4f}", abs(errs.mean()) > 3 * se)
        )
    report("criterion 7 sampler ordering", checks)


def test_criterion_8_nrmse_trends(grid):
    _, summary = grid
    checks = []
    for measure in ("proportion", "ingroup", "visibility", "homophily"):
        corrected = [
            cell_nrmse(summary, sampler="rwrw", rate=0.2, size=z, measure=measure, variant="corrected")
            for z in SIZES
        ]
        mono = all(b < a for a, b in zip(corrected, corrected[1:]))
        checks.append((f"{measure} corrected NRMSE decreasing", mono))
        uncorrected = [
            cell_nrmse(summary, sampler="rwrw", rate=0.2, size=z, measure=measure, variant="uncorrected")
            for z in SIZES
        ]
        rel = (max(uncorrected) - min(uncorrected)) / min(uncorrected)
        checks.append((f"{measure} uncorrected change {rel:.3f} < 0.10", rel < 0.10))
    low_c = cell_nrmse(summary, sampler="rwrw", rate=0.1, size=3000, measure="ingroup", variant="corrected")
    low_u = cell_nrmse(summary, sampler="rwrw", rate=0.1, size=3000, measure="ingroup", variant="uncorrected")
    high_c = cell_nrmse(summary, sampler="rwrw", rate=0.3, size=3000, measure="ingroup", variant="corrected")
    high_u = cell_nrmse(summary, sampler="rwrw", rate=0.3, size=3000, measure="ingroup", variant="uncorrected")
    checks.append((f"rate 0.1 corrected {low_c:.3f} < uncorrected {low_u:.3f}", low_c < low_u))
    checks.append((f"rate 0.3 corrected {high_c:.3f} >= uncorrected {high_u:.3f}", high_c >= high_u))
    report("criterion 8 NRMSE trends", checks)


def sparse_bipartite(n_a, n_b, per_node, seed):
    """Connected random bipartite graph with groups as the two sides."""
    rng = np.random.default_rng(seed)
    edges = set()
    for j in range(n_b):
        for t in rng.choice(n_a, size=per_node, replace=False):
            edges.add((int(t), n_a + j))
    covered = {u for u, _ in edges}
    for i in range(n_a):
        if i not in covered:
            edges.add((i, n_a + int(rng.integers(n_b))))
    labels = [0] * n_a + [1] * n_b
    return UndirectedGraph.from_edges(n_a + n_b, sorted(edges), labels)


def test_criterion_9_perfect_heterophily():
    # Structure mirroring the perfectly heterophilous empirical network:
    # sparse bipartite, minority share 0.4, walk size 3000.
    g = sparse_bipartite(600, 400, 5, seed=12)
    truth = reference_ground_truth(g)
    c = symmetric_confusion(0.2)
    values = []
    for rep in range(500):
        noisy = apply_noise(g.labels, c, (910, rep))
        walk = with_noisy_labels(rwrw_walk(g, 3000, rng_seed=(911, rep)), noisy)
        p = adjust_proportions(estimate_proportions(walk), c)
        s = adjust_edge_proportions(estimate_edge_vector(walk), c)
        values.append(coleman_homophily(ingroup_share(s, 1), p.b))
    mean_h = float(np.mean(values))
    report(
        "criterion 9 perfect heterophily",
        [
            (f"exact H_b = {truth.homophily_b}", truth.homophily_b == -1.0),
            (f"exact H_a = {truth.homophily_a}", truth.homophily_a == -1.0),
            (f"corrected mean H {mean_h:.4f} within -1 +- 0.1", abs(mean_h - (-1.0)) <= 0.1),
        ],
    )


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        graph=GraphSpec(n=400, m=3, minority_frac=0.2, ingroup_pref=0.8),
        samplers=("rwrw", "node"),
        rates=(0.0, 0.2),
        sample_sizes=(150,),
        replications=5,
        master_seed=99,
    )
    digests = []
    for run in ("first", "second"):
        result = run_experiment(cfg)
        rows_path = tmp_path / f"{run}_rows.csv"
        summary_path = tmp_path / f"{run}_summary.csv"
        write_rows_csv(result, rows_path)
        write_summary_csv(summarize(result), summary_path)
        digests.append((rows_path.read_bytes(), summary_path.read_bytes()))
    report(
        "criterion 10 determinism",
        [
            ("rows CSV byte-identical", digests[0][0] == digests[1][0]),
            ("summary CSV byte-identical", digests[0][1] == digests[1][1]),
        ],
    )
