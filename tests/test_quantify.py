"""Correction closed forms, homophily index, and variance inflation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import measured_edge_proportions, measured_proportions
from graphquant.graph import generate_homophilous_graph, ground_truth
from graphquant.noise import ConfusionMatrix, dyadic_matrix, symmetric_confusion
from graphquant.quantify import (
    EdgeVector,
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    _checked_det,
    _inverse_3x3,
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
    _checked_det(confusion)
    b0 = _inverse_3x3(dyadic_matrix(confusion))[0]
    return b0[0] ** 2 * vals[0] + b0[1] ** 2 * vals[1] + b0[2] ** 2 * vals[2]


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

    def test_clipped_renormalizes(self):
        clipped = PropVector(1.2, -0.2).clipped()
        assert clipped.as_tuple() == pytest.approx((1.0, 0.0))
        e = EdgeVector(0.9, 0.3, -0.2).clipped()
        assert sum(e.as_tuple()) == pytest.approx(1.0)
        assert not e.out_of_range


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
        assert p.as_tuple() != p.clipped().as_tuple()

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
        expected = np.linalg.solve(np.array(dyadic_matrix(c)), np.array(t.as_tuple()))
        assert got.as_tuple() == pytest.approx(tuple(expected), abs=1e-12)
        assert sum(got.as_tuple()) == pytest.approx(1.0, abs=1e-9)

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
        b00 = np.linalg.inv(np.array(dyadic_matrix(c)))[0, 0]
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
        inv = np.linalg.inv(np.array(dyadic_matrix(c)))
        s_aa_corrected = t_hat @ inv[0]
        empirical = s_aa_corrected.var(ddof=1)
        predicted = variance_inflation_edges(c, tuple(var_t))
        assert predicted == pytest.approx(empirical, rel=0.30)

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
