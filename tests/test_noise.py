"""Confusion-matrix construction, label flipping, and the dyadic edge map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_apply, expected_edge_mix_by_enumeration
from graphquant.noise import (
    ConfusionMatrix,
    UndefinedConfusionError,
    apply_noise,
    confusion_entries,
    dyadic_matrix,
    empirical_confusion,
    symmetric_confusion,
)


class TestSymmetricConfusion:
    def test_rate_zero_is_identity(self):
        c = symmetric_confusion(0.0)
        assert c.to_flat() == [1.0, 0.0, 0.0, 1.0]
        assert c.det == 1.0

    def test_reference_determinants(self):
        assert symmetric_confusion(0.2).det == pytest.approx(0.6, abs=1e-15)
        assert symmetric_confusion(0.2).det ** 2 == pytest.approx(0.36, abs=1e-15)
        assert symmetric_confusion(0.1).det == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("rate", [0.5, 0.7, -0.01, 1.0])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ValueError):
            symmetric_confusion(rate)

    def test_column_sums(self):
        c = symmetric_confusion(0.3)
        arr = np.array(c.to_flat()).reshape(2, 2)
        assert arr.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)


class TestConfusionMatrix:
    def test_flat_round_trip(self):
        c = ConfusionMatrix(0.9, 0.3, 0.1, 0.7)
        assert ConfusionMatrix(*c.to_flat()) == c

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(0.9, 0.1, 0.2, 0.9)

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1.1, 0.0, -0.1, 1.0)


class TestApplyNoise:
    def test_identity_keeps_labels(self):
        labels = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        out = apply_noise(labels, symmetric_confusion(0.0), 3)
        assert np.array_equal(out, labels)

    def test_deterministic_under_seed(self):
        labels = np.zeros(1000, dtype=np.int8)
        a = apply_noise(labels, symmetric_confusion(0.3), 11)
        b = apply_noise(labels, symmetric_confusion(0.3), 11)
        assert np.array_equal(a, b)

    def test_marginal_matches_columns(self):
        # Per-group flip frequency within 0.01 of the rate at 1e5 nodes.
        rng = np.random.default_rng(5)
        labels = (rng.random(100_000) < 0.2).astype(np.int8)
        noisy = apply_noise(labels, symmetric_confusion(0.2), 7)
        flip_a = np.mean(noisy[labels == 0] != 0)
        flip_b = np.mean(noisy[labels == 1] != 1)
        assert flip_a == pytest.approx(0.2, abs=0.01)
        assert flip_b == pytest.approx(0.2, abs=0.01)

    def test_measured_minority_share_inflates(self):
        # p_b = 0.2 at rate 0.2 gives E[m_b] = 0.8*0.2 + 0.2*0.8 = 0.32.
        rng = np.random.default_rng(9)
        labels = (rng.random(100_000) < 0.2).astype(np.int8)
        noisy = apply_noise(labels, symmetric_confusion(0.2), 13)
        assert np.mean(noisy) == pytest.approx(0.32, abs=0.01)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            apply_noise(np.array([0, 2], dtype=np.int8), symmetric_confusion(0.1), 1)

    def test_flips_by_true_class_column(self):
        # The rule as apply_noise wrote it before flip_labels, on the seed's
        # uniforms: a true a flips where u < b|a, a true b where u < a|b.
        # An asymmetric matrix tells the two columns apart.
        labels = (np.random.default_rng(4).random(10_000) < 0.3).astype(np.int8)
        c = ConfusionMatrix(0.95, 0.4, 0.05, 0.6)
        u = np.random.default_rng(17).random(labels.shape[0])
        flip = np.where(labels == 1, u < c.a_given_b, u < c.b_given_a)
        noisy = apply_noise(labels, c, 17)
        assert noisy.dtype == np.int8
        assert np.array_equal(noisy, np.where(flip, 1 - labels, labels))


class TestEmpiricalConfusion:
    def test_identical_lists_give_identity(self):
        labels = [0, 1, 0, 1, 1]
        c = empirical_confusion(labels, labels)
        assert c.to_flat() == [1.0, 0.0, 0.0, 1.0]

    def test_hand_count(self):
        # true=[a,a,b,b], pred=[a,b,b,b]: column a -> (0.5, 0.5), column b -> (0, 1).
        c = empirical_confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert c.a_given_a == pytest.approx(0.5)
        assert c.b_given_a == pytest.approx(0.5)
        assert c.a_given_b == pytest.approx(0.0)
        assert c.b_given_b == pytest.approx(1.0)

    def test_round_trip_with_apply_noise(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(100_000) < 0.4).astype(np.int8)
        noisy = apply_noise(labels, symmetric_confusion(0.2), 21)
        c = empirical_confusion(labels, noisy)
        assert c.b_given_a == pytest.approx(0.2, abs=0.01)
        assert c.a_given_b == pytest.approx(0.2, abs=0.01)

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError):
            empirical_confusion([0, 0, 0], [0, 1, 0])

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=50)
    )
    def test_columns_stochastic(self, pairs):
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        if 0 not in true or 1 not in true:
            return
        c = empirical_confusion(true, pred)
        assert c.a_given_a + c.b_given_a == pytest.approx(1.0, abs=1e-12)
        assert c.a_given_b + c.b_given_b == pytest.approx(1.0, abs=1e-12)


def four_comparison_confusion(truth, predicted):
    """empirical_confusion as it was written before it counted with one
    offset bincount: four comparisons per classifier, each reduced."""
    t, p = np.asarray(truth), np.asarray(predicted)
    n_a, n_b = int((t == 0).sum()), int((t == 1).sum())
    if n_a == 0 or n_b == 0:
        raise UndefinedConfusionError("one true class")
    counts = np.stack(
        [((p == x) & (t == y)).sum(axis=-1) for x in (0, 1) for y in (0, 1)], axis=-1
    )
    matrices = [
        [aa / n_a, ab / n_b, ba / n_a, bb / n_b] for aa, ab, ba, bb in counts.reshape(-1, 4).tolist()
    ]
    return matrices if p.ndim == 2 else matrices[0]


class TestEmpiricalConfusionCount:
    @settings(deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, 1), min_size=k, max_size=k),
                st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=1, max_size=6),
            )
        ),
        st.sampled_from([np.int8, np.int64]),
        st.booleans(),
    )
    def test_matches_four_comparison_count(self, pairs, dtype, one_row):
        # Every classifier's matrix bit for bit, a table or one row alike,
        # and the one-group refusal in the same cases.
        truth = np.array(pairs[0], dtype=dtype)
        predicted = np.array(pairs[1][0] if one_row else pairs[1], dtype=dtype)
        try:
            want = four_comparison_confusion(truth, predicted)
        except UndefinedConfusionError:
            with pytest.raises(UndefinedConfusionError):
                empirical_confusion(truth, predicted)
            return
        got = empirical_confusion(truth, predicted)
        if one_row:
            assert got.to_flat() == want
        else:
            assert [c.to_flat() for c in got] == want

    @pytest.mark.parametrize(
        "truth, predicted",
        [([0, 1, 2], [0, 1, 1]), ([0, 1, 1], [0, 2, 1]), ([0, 1, 1], [[0, 1, 1], [0, -1, 1]])],
    )
    def test_labels_outside_zero_and_one_refused(self, truth, predicted):
        with pytest.raises(ValueError, match="labels must be 0"):
            empirical_confusion(truth, predicted)


@st.composite
def labeled_sets(draw):
    """Labeled sets as a grid grades them: each with its own k (pools
    shorter than ``confusion_from_labeled`` give fewer pairs), some with one
    true class, and some whose first classifier is the truth (rate 0)."""
    classifiers = draw(st.integers(1, 4))
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 30))
        truth = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        kind = draw(st.sampled_from(["two_classes", "one_class", "rate_zero"]))
        if kind == "one_class":
            truth = [truth[0]] * k
        rows = st.lists(st.integers(0, 1), min_size=k, max_size=k)
        predicted = [truth if kind == "rate_zero" and i == 0 else draw(rows) for i in range(classifiers)]
        sets.append((truth, predicted))
    return sets


class TestConfusionEntries:
    @settings(deadline=None)
    @given(labeled_sets(), st.sampled_from([np.int8, np.int64]))
    def test_equals_each_set_graded_alone(self, sets, dtype):
        # One count over every set's pairs gives each set's matrices bit for
        # bit, as empirical_confusion and the four-comparison count give
        # them, and their determinants as ConfusionMatrix.det computes it; a
        # set with one true class is flagged, with NaN entries.
        truth = np.concatenate([np.array(t, dtype=dtype) for t, _ in sets])
        predicted = np.concatenate([np.array(p, dtype=dtype) for _, p in sets], axis=1)
        ids = np.repeat(np.arange(len(sets)), [len(t) for t, _ in sets])
        entries, det, undefined = confusion_entries(truth, predicted, ids, len(sets))
        assert entries.shape == (len(sets), predicted.shape[0], 4)
        assert det.shape == (len(sets), predicted.shape[0]) and undefined.shape == (len(sets),)
        for i, (t, p) in enumerate(sets):
            t, p = np.array(t, dtype=dtype), np.array(p, dtype=dtype)
            try:
                want = empirical_confusion(t, p)
            except UndefinedConfusionError:
                assert undefined[i] and np.isnan(entries[i]).all() and np.isnan(det[i]).all()
                with pytest.raises(UndefinedConfusionError):
                    four_comparison_confusion(t, p)
                continue
            assert not undefined[i]
            assert entries[i].tolist() == [c.to_flat() for c in want] == four_comparison_confusion(t, p)
            assert det[i].tolist() == [c.det for c in want]


class TestDyadicMatrix:
    def test_identity_maps_to_identity(self):
        m = dyadic_matrix(symmetric_confusion(0.0).to_flat())
        assert np.array_equal(np.array(m), np.eye(3))

    def test_middle_entry_rate_02(self):
        # caa*cbb + cab*cba = 0.8*0.8 + 0.2*0.2 = 0.68
        m = dyadic_matrix(symmetric_confusion(0.2).to_flat())
        assert m[1][1] == pytest.approx(0.68, abs=1e-15)

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.4])
    def test_columns_sum_to_one(self, rate):
        arr = np.array(dyadic_matrix(symmetric_confusion(rate).to_flat()))
        assert arr.sum(axis=0) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_asymmetric_columns_sum_to_one(self):
        arr = np.array(dyadic_matrix(ConfusionMatrix(0.9, 0.25, 0.1, 0.75).to_flat()))
        assert arr.sum(axis=0) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_multiplicative_on_any_2x2(self):
        # Row-major entries of any real 2x2 matrix, negative ones included:
        # D(AB) = D(A) D(B), so D(adj C) / det(C)^2 inverts D(C), and
        # det D(A) = det(A)^3.
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=(2, 2, 2))
            d_ab = np.array(dyadic_matrix((a @ b).ravel()))
            d_a, d_b = np.array(dyadic_matrix(a.ravel())), np.array(dyadic_matrix(b.ravel()))
            assert d_ab == pytest.approx(d_a @ d_b, abs=1e-12)
            assert np.linalg.det(d_a) == pytest.approx(np.linalg.det(a) ** 3, abs=1e-9)
        c = ConfusionMatrix(0.9, 0.25, 0.1, 0.75)
        adj = np.array(dyadic_matrix((c.b_given_b, -c.a_given_b, -c.b_given_a, c.a_given_a)))
        inv = np.linalg.inv(np.array(dyadic_matrix(c.to_flat())))
        assert adj / c.det**2 == pytest.approx(inv, abs=1e-12)

    def test_all_a_square_against_enumeration(self):
        # 4-node all-A path: M @ (1,0,0) must equal the exhaustive
        # expectation over both endpoints' flips, exactly.
        edges = [(0, 1), (1, 2), (2, 3)]
        labels = [0, 0, 0, 0]
        for c in (symmetric_confusion(0.2), ConfusionMatrix(0.85, 0.3, 0.15, 0.7)):
            expected = expected_edge_mix_by_enumeration(labels, edges, c)
            got = dyadic_apply(c, (1.0, 0.0, 0.0))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_mixed_graph_against_enumeration(self):
        # Two triangles sharing a node, mixed labels, N=5: exact match of
        # E[t] = M s against full 2^5 enumeration.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        labels = [0, 1, 0, 1, 1]
        s = np.zeros(3)
        for u, v in edges:
            s[labels[u] + labels[v]] += 1
        s /= len(edges)
        for c in (symmetric_confusion(0.3), ConfusionMatrix(0.9, 0.2, 0.1, 0.8)):
            expected = expected_edge_mix_by_enumeration(labels, edges, c)
            got = dyadic_apply(c, tuple(s))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_edge_mix(self):
        # Independent flips on a fixed small graph: mean measured shares
        # within 0.005 of M s at 1e5 draws.
        rng = np.random.default_rng(17)
        n = 30
        labels = (rng.random(n) < 0.3).astype(np.int8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
        src = np.array([u for u, _ in edges])
        dst = np.array([v for _, v in edges])
        s = np.zeros(3)
        for u, v in edges:
            s[labels[u] + labels[v]] += 1
        s /= len(edges)

        c = symmetric_confusion(0.2)
        draws = 100_000
        u = rng.random((draws, n))
        flip = np.where(labels[None, :] == 1, u < c.a_given_b, u < c.b_given_a)
        noisy = np.where(flip, 1 - labels[None, :], labels[None, :])
        pair = noisy[:, src] + noisy[:, dst]
        t_mc = np.array([(pair == k).mean() for k in (0, 1, 2)])
        t_pred = dyadic_apply(c, tuple(s))
        assert t_mc == pytest.approx(t_pred, abs=0.005)
