"""Correction closed forms, homophily index, and variance inflation."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import measured_edge_proportions, measured_proportions
from graphquant import ground_truth
from graphquant.graph import generate_homophilous_graph
from graphquant.noise import ConfusionMatrix, dyadic_matrix, symmetric_confusion
from graphquant.quantify import (
    DET_GUARD,
    EdgeVector,
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
    coleman_homophily,
    ingroup_share,
    variance_inflation_nodes,
)


def variance_inflation_edges(confusion: ConfusionMatrix, var_t) -> float:
    """Predicted variance of the corrected aa edge share.

    ``var_t`` holds the sampling variances of the three measured edge
    shares; the prediction is the quadratic form with the squared first
    row of the inverse dyadic matrix (covariances are not modeled).
    """
    vals = [float(v) for v in var_t]
    if len(vals) != 3 or any(v < 0 for v in vals):
        raise ValueError("var_t must be 3 nonnegative variances")
    b0 = np.linalg.inv(np.array(dyadic_matrix(confusion.to_flat())))[0]
    return b0[0] ** 2 * vals[0] + b0[1] ** 2 * vals[1] + b0[2] ** 2 * vals[2]


def share_covariance(g, confusion: ConfusionMatrix) -> np.ndarray:
    """Exact noise-only covariance of a graph's measured minority node share
    and (aa, ab, bb) edge shares under independent per-node flips, in O(E).

    Each edge adds its multinomial term. Two edges (w, u) and (w, v) that
    share the endpoint w co-vary only through w's flip, by
    sigma2_w delta_u delta_v^T, where sigma2_w = pi_w (1 - pi_w), pi is a
    node's chance of a noisy b label, and delta_u is the change of the
    edge's expected type vector when w turns from a to b,
    (pi_u - 1, 1 - 2 pi_u, pi_u). Summed over ordered pairs of distinct
    neighbors u != v of w, that is sigma2_w (S_w S_w^T - sum_u delta_u delta_u^T)
    with S_w the sum of w's neighbors' deltas. The same flip moves w's own
    record, so the node share co-varies with the edge shares by
    sum_w sigma2_w S_w / (N E), and has variance sum_w sigma2_w / N^2.
    """
    pi = np.where(g.labels == 1, confusion.b_given_b, confusion.b_given_a)
    pu, pv = pi[g.edges[:, 0]], pi[g.edges[:, 1]]
    p = np.stack([(1 - pu) * (1 - pv), pu * (1 - pv) + pv * (1 - pu), pu * pv], axis=1)
    cov = np.diag(p.sum(axis=0)) - p.T @ p
    ends = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    po = pi[np.concatenate([g.edges[:, 1], g.edges[:, 0]])]
    delta = np.stack([po - 1.0, 1.0 - 2.0 * po, po], axis=1)
    sigma2 = pi * (1.0 - pi)
    s = np.stack([np.bincount(ends, delta[:, k], g.node_count) for k in range(3)], axis=1)
    cov += (s * sigma2[:, None]).T @ s - (delta * sigma2[ends, None]).T @ delta
    joint = np.empty((4, 4))
    joint[0, 0] = sigma2.sum() / g.node_count**2
    joint[0, 1:] = joint[1:, 0] = sigma2 @ s / (g.node_count * g.edge_count)
    joint[1:, 1:] = cov / g.edge_count**2
    return joint


def edge_share_covariance(g, confusion: ConfusionMatrix) -> np.ndarray:
    """The (aa, ab, bb) block of ``share_covariance``."""
    return share_covariance(g, confusion)[1:, 1:]


def corrected_share_draws(g, confusion: ConfusionMatrix, seed: int) -> np.ndarray:
    """The graph's corrected minority node share and (aa, ab, bb) edge
    shares under 20 000 independent noise draws, one row per draw."""
    c = confusion
    rng = np.random.default_rng(seed)
    src, dst = g.edges[:, 0], g.edges[:, 1]
    m_hat, t_hat = [], []
    for _ in range(10):
        u = rng.random((2000, g.node_count))
        flip = np.where(g.labels == 1, u < c.a_given_b, u < c.b_given_a)
        noisy = (g.labels ^ flip).astype(np.int8)
        m_hat.append(noisy.mean(axis=1))
        pair = noisy[:, src] + noisy[:, dst]
        t_hat.append(np.stack([(pair == k).mean(axis=1) for k in (0, 1, 2)], axis=1))
    inv = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
    p_b = (np.concatenate(m_hat) - c.b_given_a) / c.det
    return np.column_stack([p_b, np.concatenate(t_hat) @ inv.T])


def corrected_edge_share_draws(g, confusion: ConfusionMatrix, seed: int) -> np.ndarray:
    """The (aa, ab, bb) columns of ``corrected_share_draws``."""
    return corrected_share_draws(g, confusion, seed)[:, 1:]


def random_confusion(rng, max_rate=0.45):
    ba = rng.uniform(0.0, max_rate)
    ab = rng.uniform(0.0, max_rate)
    return ConfusionMatrix(1.0 - ba, ab, ba, 1.0 - ab)


class TestVectors:
    def test_prop_vector_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PropVector(0.6, 0.5)

    def test_edge_vector_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EdgeVector(0.5, 0.5, 0.5)

    def test_out_of_range_flag(self):
        assert PropVector(1.2, -0.2).out_of_range
        assert not PropVector(0.7, 0.3).out_of_range
        assert EdgeVector(1.1, 0.0, -0.1).out_of_range

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_component_refused(self, bad):
        with pytest.raises(ValueError, match="shares must be finite"):
            PropVector(bad, 0.5)
        with pytest.raises(ValueError, match="shares must be finite"):
            EdgeVector(0.5, bad, 0.5)

    def test_sum_tolerance_scales_with_components(self):
        # Shares in [0, 1] keep the absolute 1e-9 check; a corrected vector
        # with components near 1e7 carries rounding of about 1e-9 of them.
        with pytest.raises(ValueError, match="shares must sum to 1"):
            PropVector(0.6, 0.4 + 5e-9)
        assert PropVector(-4e7, 4e7 + 1.0 + 0.01).out_of_range
        with pytest.raises(ValueError, match="shares must sum to 1"):
            PropVector(-4e7, 4e7 + 1.0 + 0.1)


class TestAdjustProportions:
    def test_forward_then_invert_reference(self):
        # Forward map of p=(0.8, 0.2) under rate 0.2 gives m=(0.68, 0.32);
        # inversion must round-trip.
        c = symmetric_confusion(0.2)
        m = measured_proportions(PropVector(0.8, 0.2), c)
        assert m.as_tuple() == pytest.approx((0.68, 0.32), abs=1e-15)
        p = adjust_proportions(m, c)
        assert p.as_tuple() == pytest.approx((0.8, 0.2), abs=1e-12)

    def test_identity_is_passthrough(self):
        m = PropVector(0.61, 0.39)
        assert adjust_proportions(m, symmetric_confusion(0.0)).as_tuple() == m.as_tuple()

    def test_symmetric_fixed_point(self):
        p = adjust_proportions(PropVector(0.5, 0.5), symmetric_confusion(0.2))
        assert p.as_tuple() == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_singular_guard(self):
        c = ConfusionMatrix(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(SingularCorrectionError):
            adjust_proportions(PropVector(0.5, 0.5), c)

    def test_out_of_range_flagged_not_clipped(self):
        # Measured share below the noise floor corrects to a negative value.
        c = symmetric_confusion(0.2)
        p = adjust_proportions(PropVector(0.9, 0.1), c)
        assert p.b < 0.0
        assert p.out_of_range

    def test_round_trip_property(self):
        # 1000 random (p, C) instances recover to 1e-12.
        rng = np.random.default_rng(101)
        for _ in range(1000):
            c = random_confusion(rng)
            p_b = rng.uniform(0.0, 1.0)
            truth = PropVector(1.0 - p_b, p_b)
            back = adjust_proportions(measured_proportions(truth, c), c)
            assert back.as_tuple() == pytest.approx(truth.as_tuple(), abs=1e-12)

    def test_sum_preserved(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            c = random_confusion(rng)
            m_b = rng.uniform(-0.2, 1.2)
            p = adjust_proportions(PropVector(1.0 - m_b, m_b), c)
            assert p.a + p.b == pytest.approx(1.0, abs=1e-9)


class TestAdjustEdgeProportions:
    def test_identity_is_passthrough(self):
        t = EdgeVector(0.5, 0.3, 0.2)
        assert adjust_edge_proportions(t, symmetric_confusion(0.0)).as_tuple() == t.as_tuple()

    def test_forward_then_invert_reference(self):
        c = symmetric_confusion(0.2)
        s = EdgeVector(0.7, 0.2, 0.1)
        t = measured_edge_proportions(s, c)
        back = adjust_edge_proportions(t, c)
        assert back.as_tuple() == pytest.approx(s.as_tuple(), abs=1e-12)

    def test_against_numpy_inverse(self):
        # Cofactor inverse must agree with an independent linear solve.
        c = symmetric_confusion(0.2)
        t = EdgeVector(1 / 3, 1 / 3, 1 / 3)
        got = adjust_edge_proportions(t, c)
        expected = np.linalg.solve(np.array(dyadic_matrix(c.to_flat())), np.array(t.as_tuple()))
        assert got.as_tuple() == pytest.approx(tuple(expected), abs=1e-12)
        assert sum(got.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    def test_near_singular_sweep(self):
        # 2000 matrices with |det C| <= 2e-3, about half of them under the
        # guard det(D) = det(C)^3 < 1e-9. Each corrects or is refused as
        # singular, never with a plain ValueError from its own rounding, and
        # it is refused exactly when D's determinant, expanded by cofactors
        # from D's entries, is under the guard.
        rng = np.random.default_rng(2024)
        t = EdgeVector(0.5, 0.3, 0.2)
        refused = 0
        for _ in range(2000):
            a_a = rng.uniform(0.002, 0.998)
            a_b = a_a - rng.uniform(-2e-3, 2e-3)
            c = ConfusionMatrix(a_a, a_b, 1.0 - a_a, 1.0 - a_b)
            d = np.array(dyadic_matrix(c.to_flat()))
            (a, b, cc), (dd, e, f), (g, h, i) = d
            cofactor_det = a * (e * i - f * h) - b * (dd * i - f * g) + cc * (dd * h - e * g)
            try:
                got = adjust_edge_proportions(t, c)
            except SingularCorrectionError:
                refused += 1
                assert abs(cofactor_det) < DET_GUARD
                continue
            assert abs(cofactor_det) >= DET_GUARD
            assert d @ np.array(got.as_tuple()) == pytest.approx(t.as_tuple(), abs=1e-8)
        assert 500 < refused < 1500

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c = random_confusion(rng)
            raw = rng.dirichlet((1.0, 1.0, 1.0))
            s = EdgeVector(raw[0], raw[1], raw[2])
            back = adjust_edge_proportions(measured_edge_proportions(s, c), c)
            assert back.as_tuple() == pytest.approx(s.as_tuple(), abs=1e-12)


class TestIngroupShare:
    def test_pure_ingroup(self):
        assert ingroup_share(EdgeVector(1.0, 0.0, 0.0), 0) == 1.0

    def test_pure_crossgroup_is_zero_for_both(self):
        e = EdgeVector(0.0, 1.0, 0.0)
        assert ingroup_share(e, 0) == 0.0
        assert ingroup_share(e, 1) == 0.0

    def test_hand_arithmetic(self):
        assert ingroup_share(EdgeVector(0.5, 0.3, 0.2), 0) == pytest.approx(1.0 / 1.3)

    def test_no_endpoints_raises(self):
        with pytest.raises(UndefinedShareError):
            ingroup_share(EdgeVector(1.0, 0.0, 0.0), 1)

    def test_bad_group_rejected(self):
        with pytest.raises(ValueError):
            ingroup_share(EdgeVector(1.0, 0.0, 0.0), 2)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.0, 1.0)
    @example(1.0, 0.0)
    @example(5e-324, 0.0)
    @example(5e-324, 5e-324)
    @example(0.5, 5e-324)
    @example(1.0 - 2.0**-53, 2.0**-53)
    def test_in_range_edge_vector_gives_share_in_unit_interval(self, bb, ab):
        # In-range shares give an in-range in-group share, since rounding is
        # monotone, so the package flags it by its edge vector alone.
        # aa = fl(fl(1 - bb) - ab) >= 0 whenever bb + ab <= 1.
        assume(bb + ab <= 1.0)
        e = EdgeVector(1.0 - bb - ab, ab, bb)
        assume(not e.out_of_range)
        for group, own in ((1, e.bb), (0, e.aa)):
            if 2.0 * own + e.ab > 0.0:
                assert 0.0 <= ingroup_share(e, group) <= 1.0


class TestColemanHomophily:
    def test_perfect_homophily(self):
        assert coleman_homophily(1.0, 0.2).value == 1.0

    def test_perfect_heterophily(self):
        # All ties cross-group at p=0.39 gives exactly -1.
        assert coleman_homophily(0.0, 0.39).value == -1.0

    def test_random_mixing_baseline(self):
        assert coleman_homophily(0.3, 0.3).value == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_proportion_rejected(self, p):
        with pytest.raises(UndefinedShareError):
            coleman_homophily(0.5, p)

    def test_out_of_range_inputs_flagged(self):
        h = coleman_homophily(1.2, 0.4)
        assert h.out_of_range
        assert h.value > 1.0
        assert not coleman_homophily(0.9, 0.4).out_of_range

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.01, 0.99, allow_nan=False),
    )
    def test_sign_and_bounds(self, s, p):
        h = coleman_homophily(s, p)
        assert -1.0 <= h.value <= 1.0
        if s > p:
            assert h.value > 0.0
        elif s < p:
            assert h.value < 0.0
        else:
            assert h.value == 0.0

    # In-range inputs give an index in [-1, 1], since rounding is monotone,
    # so the package flags an index by its inputs alone.
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(0.0, 0.5)
    @example(1.0, 0.5)
    @example(0.0, 1.0 - 2.0**-53)
    @example(1.0, 5e-324)
    @example(5e-324, 1.0 - 2.0**-53)
    @example(1.0 - 2.0**-53, 5e-324)
    def test_in_range_inputs_give_an_unflagged_index(self, s, p):
        h = coleman_homophily(s, p)
        assert -1.0 <= h.value <= 1.0
        assert not h.out_of_range


class TestVarianceInflation:
    def test_reference_values(self):
        assert variance_inflation_nodes(symmetric_confusion(0.2)) == pytest.approx(2.78, abs=0.01)
        assert variance_inflation_nodes(symmetric_confusion(0.1)) == pytest.approx(1.5625, abs=1e-12)
        assert variance_inflation_nodes(symmetric_confusion(0.0)) == 1.0

    def test_strictly_increasing_in_rate(self):
        rates = np.linspace(0.0, 0.45, 10)
        values = [variance_inflation_nodes(symmetric_confusion(r)) for r in rates]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_edges_identity_returns_first_variance(self):
        assert variance_inflation_edges(symmetric_confusion(0.0), (0.3, 0.1, 0.2)) == 0.3

    def test_edges_single_term(self):
        c = symmetric_confusion(0.2)
        b00 = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))[0, 0]
        assert variance_inflation_edges(c, (2.0, 0.0, 0.0)) == pytest.approx(
            b00 ** 2 * 2.0, abs=1e-12
        )

    def test_edges_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            variance_inflation_edges(symmetric_confusion(0.1), (0.1, -0.1, 0.0))

    def test_edges_against_monte_carlo(self):
        # Whole-graph measured edge shares under 500 independent noise
        # draws on a fixed graph; the quadratic form should predict the
        # corrected-share variance to within 30% (covariances are not
        # modeled, so exact agreement is not expected).
        g = generate_homophilous_graph(400, 3, 0.3, 0.7, rng_seed=5)
        c = symmetric_confusion(0.2)
        rng = np.random.default_rng(88)
        src = g.edges[:, 0]
        dst = g.edges[:, 1]
        draws = 500
        u = rng.random((draws, g.node_count))
        flip = np.where(g.labels[None, :] == 1, u < c.a_given_b, u < c.b_given_a)
        noisy = np.where(flip, 1 - g.labels[None, :], g.labels[None, :])
        pair = noisy[:, src] + noisy[:, dst]
        t_hat = np.stack([(pair == k).mean(axis=1) for k in (0, 1, 2)], axis=1)
        var_t = t_hat.var(axis=0, ddof=1)
        inv = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
        s_aa_corrected = t_hat @ inv[0]
        empirical = s_aa_corrected.var(ddof=1)
        predicted = variance_inflation_edges(c, tuple(var_t))
        assert predicted == pytest.approx(empirical, rel=0.30)

    @pytest.mark.parametrize(
        "confusion",
        [symmetric_confusion(0.2), ConfusionMatrix(0.95, 0.4, 0.05, 0.6)],
        ids=["symmetric", "low_recall"],
    )
    def test_edges_exact_covariance_against_monte_carlo(self, confusion):
        # The graph of test_edges_against_monte_carlo, 20 000 noise draws.
        # The corrected covariance is D^-1 Sigma D^-T with Sigma from
        # edge_share_covariance. Over eight seed sets its variances read
        # 0.97-1.02 of the empirical ones; the diagonal-only form, which
        # drops Sigma's covariances, read 0.67-0.88 or 1.12-1.67 in every
        # component, so the 5% band rejects it.
        g = generate_homophilous_graph(400, 3, 0.3, 0.7, rng_seed=5)
        c = confusion
        inv = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
        empirical = corrected_edge_share_draws(g, c, 88).var(axis=0, ddof=1)
        sigma = edge_share_covariance(g, c)
        predicted = np.diag(inv @ sigma @ inv.T)
        diagonal_only = inv**2 @ np.diag(sigma)
        assert predicted == pytest.approx(empirical, rel=0.05)
        for got, want in zip(diagonal_only, empirical):
            assert got != pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize(
        "confusion",
        [symmetric_confusion(0.2), ConfusionMatrix(0.95, 0.4, 0.05, 0.6)],
        ids=["symmetric", "low_recall"],
    )
    def test_corrected_ingroup_share_delta_method(self, confusion):
        # The corrected minority in-group share is g(t) = 2 bb / (2 bb + ab)
        # of the corrected shares t, whose mean is the graph's true t. The
        # delta method predicts its noise-only variance as
        # grad g^T D^-1 Sigma D^-T grad g, with Sigma from
        # edge_share_covariance. Over eight seed sets (88-95) it read
        # 0.90-0.93 (symmetric) and 0.97-0.99 (low recall) of the empirical
        # variance of 20 000 draws; the shortfall is g's curvature, as the
        # draws' linearized values read 1.00-1.01. The diagonal-only form
        # read 2.05-2.11 and 1.75-1.79, so the 15% band rejects it.
        g = generate_homophilous_graph(400, 3, 0.3, 0.7, rng_seed=5)
        c = confusion
        inv = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
        t = corrected_edge_share_draws(g, c, 88)
        empirical = (2 * t[:, 2] / (2 * t[:, 2] + t[:, 1])).var(ddof=1)
        _, ab, bb = ground_truth(g).s.as_tuple()
        grad = inv.T @ np.array([0.0, -2 * bb, 2 * ab]) / (2 * bb + ab) ** 2
        sigma = edge_share_covariance(g, c)
        assert grad @ sigma @ grad == pytest.approx(empirical, rel=0.15)
        assert grad @ np.diag(np.diag(sigma)) @ grad != pytest.approx(empirical, rel=0.15)

    @pytest.mark.parametrize(
        "confusion, cross_term_visible",
        [(symmetric_confusion(0.2), False), (ConfusionMatrix(0.95, 0.4, 0.05, 0.6), True)],
        ids=["symmetric", "low_recall"],
    )
    def test_corrected_coleman_index_delta_method(self, confusion, cross_term_visible):
        # The corrected minority index is h = (s - p) / (1 - p) of the
        # corrected node share p and in-group share s = 2 bb / (2 bb + ab),
        # on the branch s >= p where the graph's index lies. With L =
        # diag(1/det, D^-1) the two corrections and Sigma from
        # share_covariance, the delta method predicts its noise-only
        # variance as grad h^T L Sigma L^T grad h. Over eight seed sets
        # (88-95) of 20 000 draws:
        # - the node-edge block of L Sigma L^T read 0.95-1.03 of the draws'
        #   covariances, inside a 7% band;
        # - the prediction read 0.91-0.95 (symmetric) and 0.96-0.99 (low
        #   recall) of the empirical variance, the shortfall being h's
        #   curvature. Over all draws, the index as coleman_homophily
        #   computes it (diff / p below s = p, 1-2% of draws) read 0.87-0.91
        #   and 0.93-0.95;
        # - without the node-edge block it read 1.18-1.21 (low recall),
        #   which the 10% band rejects, and 0.96-0.99 (symmetric), where the
        #   block moves the prediction by under 5% and only its own band
        #   checks it.
        g = generate_homophilous_graph(400, 3, 0.3, 0.7, rng_seed=5)
        c = confusion
        lin = np.zeros((4, 4))
        lin[0, 0] = 1.0 / c.det
        lin[1:, 1:] = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
        sigma = lin @ share_covariance(g, c) @ lin.T
        z = corrected_share_draws(g, c, 88)
        assert sigma[0, 1:] == pytest.approx(np.cov(z.T)[0, 1:], rel=0.07)
        s = 2 * z[:, 3] / (2 * z[:, 3] + z[:, 2])
        empirical = ((s - z[:, 0]) / (1 - z[:, 0])).var(ddof=1)
        truth = ground_truth(g)
        p, s0 = truth.p.b, ingroup_share(truth.s, 1)
        _, ab, bb = truth.s.as_tuple()
        grad_s = np.array([0.0, -2 * bb, 2 * ab]) / (2 * bb + ab) ** 2
        grad = np.concatenate([[(s0 - 1) / (1 - p) ** 2], grad_s / (1 - p)])
        assert grad @ sigma @ grad == pytest.approx(empirical, rel=0.10)
        without = sigma.copy()
        without[0, 1:] = without[1:, 0] = 0.0
        if cross_term_visible:
            assert grad @ without @ grad != pytest.approx(empirical, rel=0.10)

    def test_low_recall_node_variance_against_prediction(self):
        # An asymmetric low-recall classifier: P(a|a) = 0.95 and P(b|b) = 0.6,
        # so det = 0.55. Node samples of n out of N nodes, drawn without
        # replacement, with fresh noise in each replication. With f =
        # (N - n) / (N - 1), p the true minority share and m the expected
        # measured one:
        #   n Var(no_noise)  = p(1-p) f
        #   n Var(corrected) = (m(1-m) - det^2 p(1-p)(1-f)) / det^2
        # The 10% band leaves out 1/det^2 = 3.31, which is the ratio of
        # corrected to uncorrected variance, not to noise-free variance.
        from graphquant.noise import apply_noise
        from graphquant.samplers import estimate_proportions, node_sample, with_noisy_labels

        g = generate_homophilous_graph(10_000, 4, 0.2, 0.8, rng_seed=6)
        c = ConfusionMatrix(0.95, 0.4, 0.05, 0.6)
        truth = ground_truth(g).p
        p, m = truth.b, measured_proportions(truth, c).b
        n, f = 300, (g.node_count - 300) / (g.node_count - 1)
        det2 = c.det**2
        predicted = (m * (1 - m) - det2 * p * (1 - p) * (1 - f)) / (det2 * p * (1 - p) * f)
        clean, corrected = [], []
        for rep in range(1000):
            sample = node_sample(g, n, rng_seed=(903, rep))
            noisy = with_noisy_labels(sample, apply_noise(g.labels, c, rng_seed=(904, rep)))
            clean.append(estimate_proportions(sample).b)
            corrected.append(adjust_proportions(estimate_proportions(noisy), c).b)
        ratio = np.var(corrected, ddof=1) / np.var(clean, ddof=1)
        assert ratio == pytest.approx(predicted, rel=0.10)

    def test_walk_noise_variance_given_the_walk(self):
        # One fixed 3000-step walk, 2000 fresh noise draws. Noise is drawn
        # once per node, so the measured minority share varies by
        #   sum_v (W_v / W)^2 sigma^2(y_v)
        # with W_v the total 1/d weight of node v's visits, W = sum_v W_v,
        # sigma^2(a) = P(b|a)P(a|a) and sigma^2(b) = P(b|b)P(a|b). A
        # per-record noise lookup would give sum_i (w_i / W)^2 sigma^2(y_i)
        # instead, 0.67 of it on this walk, which the 10% band leaves out
        # (eight seed sets gave ratios of 0.96-1.03).
        from graphquant.noise import apply_noise
        from graphquant.samplers import estimate_proportions, rwrw_walk, with_noisy_labels

        g = generate_homophilous_graph(10_000, 4, 0.2, 0.8, rng_seed=6)
        c = ConfusionMatrix(0.95, 0.4, 0.05, 0.6)
        walk = rwrw_walk(g, 3000, rng_seed=(906, 0))
        sigma2 = np.where(g.labels == 1, c.b_given_b * c.a_given_b, c.b_given_a * c.a_given_a)
        total = walk.weights.sum()
        node_weight = np.bincount(walk.nodes, weights=walk.weights, minlength=g.node_count)
        predicted = (node_weight**2 * sigma2).sum() / total**2
        per_record = (walk.weights**2 * sigma2[walk.nodes]).sum() / total**2
        measured = [
            estimate_proportions(
                with_noisy_labels(walk, apply_noise(g.labels, c, rng_seed=(907, 0, rep)))
            ).b
            for rep in range(2000)
        ]
        assert np.var(measured, ddof=1) == pytest.approx(predicted, rel=0.10)
        assert per_record != pytest.approx(predicted, rel=0.10)

    @pytest.mark.parametrize(
        "confusion, det2_model_rejected",
        [(symmetric_confusion(0.2), False), (ConfusionMatrix(0.95, 0.4, 0.05, 0.6), True)],
        ids=["symmetric", "low_recall"],
    )
    def test_walk_corrected_variance_unconditional(self, confusion, det2_model_rejected):
        # 2000 replications of a 1000-step walk, each with its own
        # whole-graph noise map, so a node keeps one noisy label however
        # often the walk visits it. Given the walk, noise adds
        # sum_v (W_v / W)^2 sigma^2(y_v) to the measured share (as in the
        # test above), and the correction divides it by det^2:
        #   Var(corrected) = Var(p_walk) + E[sum_v (W_v / W)^2 sigma^2(y_v)] / det^2
        # Over 28 graph and seed sets this read 0.95-1.07 of the empirical
        # variance for both classifiers. The model Var(p_walk) / det^2 read
        # 1.54-1.79 for the low-recall classifier, which the 10% band
        # rejects, but 0.97-1.23 at symmetric rate 0.2: there 2000
        # replications cannot tell the two models apart.
        from graphquant.noise import apply_noise
        from graphquant.samplers import estimate_proportions, rwrw_walk, with_noisy_labels

        g = generate_homophilous_graph(2000, 3, 0.2, 0.8, rng_seed=6)
        c = confusion
        sigma2 = np.where(g.labels == 1, c.b_given_b * c.a_given_b, c.b_given_a * c.a_given_a)
        clean, corrected, noise = [], [], []
        for rep in range(2000):
            walk = rwrw_walk(g, 1000, rng_seed=(908, rep))
            node_weight = np.bincount(walk.nodes, weights=walk.weights, minlength=g.node_count)
            noise.append((node_weight**2 * sigma2).sum() / node_weight.sum() ** 2)
            noisy = with_noisy_labels(walk, apply_noise(g.labels, c, rng_seed=(909, rep)))
            clean.append(estimate_proportions(walk).b)
            corrected.append(adjust_proportions(estimate_proportions(noisy), c).b)
        var_clean, empirical = np.var(clean, ddof=1), np.var(corrected, ddof=1)
        det2 = c.det**2
        assert var_clean + np.mean(noise) / det2 == pytest.approx(empirical, rel=0.10)
        if det2_model_rejected:
            assert var_clean / det2 != pytest.approx(empirical, rel=0.10)


class TestUnbiasednessMonteCarlo:
    def test_corrected_walk_and_node_estimates_unbiased(self):
        # Fixed graph, 500 replications of sample -> noise -> correct.
        from graphquant.noise import apply_noise
        from graphquant.samplers import (
            estimate_proportions,
            node_sample,
            rwrw_walk,
            with_noisy_labels,
        )

        g = generate_homophilous_graph(1000, 4, 0.2, 0.8, rng_seed=3)
        truth = ground_truth(g)
        c = symmetric_confusion(0.2)
        analytic_m_b = measured_proportions(truth.p, c).b
        reps = 500
        walk_corr, walk_unc, node_corr = [], [], []
        for rep in range(reps):
            noisy = apply_noise(g.labels, c, rng_seed=(900, rep))
            walk = with_noisy_labels(rwrw_walk(g, 1000, rng_seed=(901, rep)), noisy)
            nodes = with_noisy_labels(node_sample(g, 500, rng_seed=(902, rep)), noisy)
            m_walk = estimate_proportions(walk)
            m_node = estimate_proportions(nodes)
            walk_unc.append(m_walk.b)
            walk_corr.append(adjust_proportions(m_walk, c).b)
            node_corr.append(adjust_proportions(m_node, c).b)
        for series in (walk_corr, node_corr):
            arr = np.array(series)
            se = arr.std(ddof=1) / np.sqrt(reps)
            assert abs(arr.mean() - truth.p.b) < 2.0 * se
        # Uncorrected mean sits at the analytic bias, not at the truth.
        assert np.mean(walk_unc) == pytest.approx(analytic_m_b, abs=0.01)
        assert abs(np.mean(walk_unc) - truth.p.b) > 0.1
