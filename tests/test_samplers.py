"""Sampler mechanics, the reweighted walk estimator, the weighted top
quantile, and the resampling reference."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    assert_induced_edges_match,
    estimate_edge_vector,
    estimate_proportions,
    has_edge,
    prefix,
    reference_ground_truth,
    take,
    top_records,
    with_noisy_labels,
)
from graphquant.graph import (
    GROUP_TOKENS,
    UndirectedGraph,
    generate_homophilous_graph,
)
from graphquant.noise import apply_noise, symmetric_confusion
from graphquant.samplers import (
    _UNSEEN,
    SEED_DEGREE,
    SEED_UNIFORM,
    NoObservedEdgesError,
    Sample,
    _neighbours,
    _records,
    _wave,
    edge_sample,
    edge_type_counts,
    first_records,
    node_sample,
    rank_records,
    rwrw_walk,
    snowball_sample,
    top_cut,
    write_sample_records,
)
from graphquant.quantify import UndefinedShareError


def path_graph(n, labels=None):
    edges = [(i, i + 1) for i in range(n - 1)]
    labels = labels if labels is not None else [i % 2 for i in range(n)]
    return UndirectedGraph.from_edges(n, edges, labels)


def star_graph(leaves, hub_label=1, leaf_label=0):
    edges = [(0, i) for i in range(1, leaves + 1)]
    labels = [hub_label] + [leaf_label] * leaves
    return UndirectedGraph.from_edges(leaves + 1, edges, labels)


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
    return dataclasses.replace(take(sample, idx), weights=np.ones(out_size))


def walk_visibility(walk, quantile, out_size=None, rng_seed=None):
    """Resampling reference for walk visibility: importance resample (10x
    the walk by default), top-quantile selection, then the share estimate
    over the top records."""
    resampled = importance_resample(walk, 10 * len(walk) if out_size is None else out_size, rng_seed)
    return estimate_proportions(take(resampled, by_degree_then_id(resampled, quantile)))


def by_degree_then_id(sample, quantile):
    """Reference top-quantile selection: the first floor(n * q) records in
    (-degree, node id) order."""
    order = np.lexsort((sample.nodes, -sample.degrees))
    return order[: int(len(sample) * quantile)]


def triangle():
    return UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 0])


def complete_bipartite(n_a, n_b):
    edges = [(i, n_a + j) for i in range(n_a) for j in range(n_b)]
    return UndirectedGraph.from_edges(n_a + n_b, edges, [0] * n_a + [1] * n_b)


def waves(sample):
    """BFS wave per snowball record: seeds have no discovery edge and are
    wave 0; each child is one wave past its parent, which precedes it."""
    out = np.zeros(len(sample), dtype=np.int64)
    for parent, child in sample.edge_positions.tolist():
        out[child] = out[parent] + 1
    return out


def reference_snowball(g, n_target, n_seeds, rng_seed):
    """Snowball crawl one neighbour at a time, drawing what snowball_sample
    draws: the seeds' records as drawn, each later wave's records in the
    order of one uniform ordered draw from it, and the traversal in
    frontier order (the seeds ascending, then discovery order)."""
    rng = np.random.default_rng(rng_seed)
    drawn = rng.choice(g.node_count, size=min(n_seeds, g.node_count), replace=False).tolist()
    visited = set(drawn)
    record_of = {u: i for i, u in enumerate(drawn)}
    accepted = drawn[:n_target]
    tree = []
    frontier = sorted(drawn)
    while len(accepted) < n_target:
        discovered, parents = [], []
        for u in frontier:
            for w in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist():
                if w not in visited:
                    visited.add(w)
                    discovered.append(w)
                    parents.append(record_of[u])
        room = n_target - len(accepted)
        for i in rng.choice(len(discovered), size=min(room, len(discovered)), replace=False).tolist():
            record_of[discovered[i]] = len(accepted)
            tree.append((parents[i], len(accepted)))
            accepted.append(discovered[i])
        frontier = discovered
    return accepted, tree


def truncated_snowball(g, n_target, n_seeds, rng):
    """Node set and discovery edges (parent node, child node) of a crawl of
    exactly n_target nodes by the truncation rule: uniform seeds, a uniform
    subset of them when they are too many, then whole breadth-first waves
    while they fit and a uniform subset of the wave that would overshoot."""
    seeds = np.sort(rng.choice(g.node_count, size=min(n_seeds, g.node_count), replace=False))
    if seeds.shape[0] > n_target:
        seeds = np.sort(rng.choice(seeds, size=n_target, replace=False))
    visited = set(seeds.tolist())
    accepted = seeds.tolist()
    tree = []
    frontier = accepted
    while len(accepted) < n_target:
        found = []
        for u in frontier:
            for w in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist():
                if w not in visited:
                    visited.add(w)
                    found.append((u, w))
        room = n_target - len(accepted)
        if len(found) > room:
            found = [found[i] for i in np.sort(rng.choice(len(found), size=room, replace=False))]
        tree.extend(found)
        frontier = [w for _, w in found]
        accepted.extend(frontier)
    return frozenset(accepted), frozenset(tree)


# Every sampler with the edge count it implies on a graph, given its draw.
RECORD_CASES = {
    "walk": (lambda g: rwrw_walk(g, 400, rng_seed=70), lambda g, s: len(s) - 1),
    "node": (
        lambda g: node_sample(g, 60, rng_seed=71),
        lambda g, s: sum(has_edge(g, u, v) for u in s.nodes for v in s.nodes if u < v),
    ),
    "edge": (lambda g: edge_sample(g, 50, rng_seed=72), lambda g, s: 50),
    "snowball": (lambda g: snowball_sample(g, 80, n_seeds=4, rng_seed=73), lambda g, s: 80 - 4),
    "resample": (
        lambda g: importance_resample(rwrw_walk(g, 400, rng_seed=74), 900, rng_seed=75),
        lambda g, s: 0,
    ),
}


class TestSampleRecord:
    @pytest.mark.parametrize("kind", sorted(RECORD_CASES))
    def test_weights_and_observed_edges(self, kind):
        g = generate_homophilous_graph(200, 3, 0.3, 0.7, rng_seed=69)
        draw, implied_edges = RECORD_CASES[kind]
        sample = draw(g)
        assert sample.degrees.tolist() == g.degrees[sample.nodes].tolist()
        assert sample.labels.tolist() == g.labels[sample.nodes].tolist()
        if kind == "walk":
            assert np.array_equal(sample.weights, 1.0 / sample.degrees)
        else:
            assert np.array_equal(sample.weights, np.ones(len(sample)))
        assert sample.edge_positions.shape == (implied_edges(g, sample), 2)
        for u, v in sample.nodes[sample.edge_positions].tolist():
            assert has_edge(g, u, v)

    def test_take_keeps_weights_and_drops_edges(self):
        g = generate_homophilous_graph(200, 3, 0.3, 0.7, rng_seed=69)
        noisy = apply_noise(g.labels, symmetric_confusion(0.2), 76)
        walk = with_noisy_labels(rwrw_walk(g, 400, rng_seed=70), noisy)
        idx = np.array([5, 0, 5, 399])
        taken = take(walk, idx)
        for name in ("nodes", "degrees", "labels", "weights"):
            assert np.array_equal(getattr(taken, name), getattr(walk, name)[idx])
        assert taken.edge_positions.shape == (0, 2)


class TestWalk:
    def test_two_node_path_alternates(self):
        g = path_graph(2, labels=[0, 1])
        walk = rwrw_walk(g, 10, rng_seed=1)
        assert len(walk) == 10
        for i in range(9):
            assert walk.nodes[i] != walk.nodes[i + 1]

    def test_walk_edges_are_graph_edges(self):
        g = generate_homophilous_graph(100, 2, 0.3, 0.7, rng_seed=6)
        walk = rwrw_walk(g, 500, rng_seed=2)
        walk_edges = walk.nodes[walk.edge_positions]
        assert walk_edges.shape == (499, 2)
        for u, v in walk_edges[:100]:
            assert has_edge(g, u, v)

    def test_triangle_visits_uniform(self):
        # Regular graph: stationary distribution is uniform.
        g = triangle()
        walk = rwrw_walk(g, 300_000, rng_seed=3)
        freq = np.bincount(walk.nodes, minlength=3) / len(walk)
        assert freq == pytest.approx([1 / 3] * 3, abs=0.01)

    def test_star_hub_frequency_matches_degree_share(self):
        # Hub degree 4 of total degree 8: pi(hub) = 1/2.
        g = star_graph(4)
        walk = rwrw_walk(g, 100_000, rng_seed=4)
        assert np.mean(walk.nodes == 0) == pytest.approx(0.5, abs=0.01)

    def test_burn_in_discarded(self):
        g = triangle()
        walk = rwrw_walk(g, 50, seed_mode="uniform_with_burnin", burn_in=20, rng_seed=5)
        assert len(walk) == 50
        assert walk.burn_in == 20
        assert walk.edge_positions.shape == (49, 2)

    @pytest.mark.parametrize("seed_mode", [SEED_DEGREE, SEED_UNIFORM])
    def test_burn_in_discarded_in_both_seed_modes(self, seed_mode):
        # Burn-in steps are the first steps of the same walk, whatever
        # the seed node's distribution.
        g = generate_homophilous_graph(200, 2, 0.3, 0.7, rng_seed=6)
        for seed, n, k in ((11, 50, 20), (12, 1, 1), (13, 300, 1000)):
            walk = rwrw_walk(g, n, seed_mode=seed_mode, burn_in=k, rng_seed=seed)
            longer = rwrw_walk(g, n + k, seed_mode=seed_mode, rng_seed=seed)
            assert np.array_equal(walk.nodes, longer.nodes[k:])

    def test_bad_arguments(self):
        g = triangle()
        with pytest.raises(ValueError):
            rwrw_walk(g, 0)
        with pytest.raises(ValueError):
            rwrw_walk(g, 5, seed_mode="bogus")
        with pytest.raises(ValueError):
            rwrw_walk(g, 5, burn_in=-1)

    def test_stationarity_ks(self):
        # Non-bipartite irregular graph: visit frequencies approach d/D.
        g = generate_homophilous_graph(60, 3, 0.3, 0.6, rng_seed=8)
        walk = rwrw_walk(g, 200_000, rng_seed=9)
        freq = np.bincount(walk.nodes, minlength=g.node_count) / len(walk)
        target = g.degrees / g.total_degree
        ks = np.max(np.abs(np.cumsum(freq) - np.cumsum(target)))
        assert ks < 0.02

    def test_walk_edge_frequency_uniform(self):
        # Long-run frequency of each undirected edge among consecutive
        # pairs approaches 1/|E|.
        g = UndirectedGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 1, 0, 1]
        )
        walk = rwrw_walk(g, 300_000, rng_seed=10)
        walk_edges = walk.nodes[walk.edge_positions]
        lo = np.minimum(walk_edges[:, 0], walk_edges[:, 1])
        hi = np.maximum(walk_edges[:, 0], walk_edges[:, 1])
        keys = lo * 10 + hi
        counts = {key: np.mean(keys == key) for key in (1, 12, 2, 23)}
        for share in counts.values():
            assert share == pytest.approx(0.25, abs=0.01)


class TestRwrwEstimate:
    def test_constant_function_is_exactly_one(self):
        g = generate_homophilous_graph(50, 2, 0.2, 0.8, rng_seed=11)
        walk = rwrw_walk(g, 1000, rng_seed=12)
        constant = dataclasses.replace(walk, labels=np.ones_like(walk.labels))
        assert estimate_proportions(constant).b == 1.0

    def test_two_term_hand_computation(self):
        # Records (d=4, g=1) and (d=1, g=0): (1/4) / (1/4 + 1) = 0.2.
        g = star_graph(4)
        walk = rwrw_walk(g, 2, rng_seed=0)
        assert set(walk.degrees) == {4, 1}
        assert estimate_proportions(walk).b == pytest.approx(0.2)

    def test_relabeling_invariance(self):
        g = generate_homophilous_graph(80, 2, 0.3, 0.7, rng_seed=13)
        walk = rwrw_walk(g, 500, rng_seed=14)
        perm = np.random.default_rng(15).permutation(g.node_count)
        relabeled = dataclasses.replace(walk, nodes=perm[walk.nodes])
        assert estimate_proportions(walk) == estimate_proportions(relabeled)

    def test_converges_to_truth(self):
        g = generate_homophilous_graph(50, 3, 0.2, 0.8, rng_seed=16)
        truth = reference_ground_truth(g)
        walk = rwrw_walk(g, 100_000, rng_seed=17)
        p_hat = estimate_proportions(walk).b
        assert p_hat == pytest.approx(truth.p.b, abs=0.02)


class TestNodeSample:
    def test_full_sample_is_whole_graph(self):
        g = generate_homophilous_graph(40, 2, 0.3, 0.7, rng_seed=18)
        sample = node_sample(g, g.node_count, rng_seed=19)
        assert np.array_equal(np.sort(sample.nodes), np.arange(g.node_count))
        assert sample.edge_positions.shape[0] == g.edge_count
        gt = reference_ground_truth(g)
        assert estimate_proportions(sample).b == gt.p.b
        assert estimate_edge_vector(sample).as_tuple() == gt.s.as_tuple()

    def test_single_draw_uniformity(self):
        # 1e4 single-node draws over 10 nodes: chi-square should not
        # reject uniformity at the 1% level.
        g = path_graph(10)
        counts = np.zeros(10)
        for rep in range(10_000):
            sample = node_sample(g, 1, rng_seed=(20, rep))
            counts[sample.nodes[0]] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_estimate_unbiased(self):
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=21)
        truth = reference_ground_truth(g).p.b
        means = [
            estimate_proportions(node_sample(g, 100, rng_seed=(22, rep))).b
            for rep in range(500)
        ]
        assert abs(np.mean(means) - truth) < 0.01

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(5, 300),
        m=st.integers(1, 4),
        size=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_induced_edges_match_reference(self, n, m, size, seed):
        g = generate_homophilous_graph(n, m, 0.3, 0.7, rng_seed=seed)
        n_sample = 1 + int(size * (g.node_count - 1))
        assert_induced_edges_match(g, node_sample(g, n_sample, rng_seed=seed + 1))

    def test_induced_edges_at_the_size_bounds(self):
        for seed in range(10):
            g = generate_homophilous_graph(50 + seed, 1 + seed % 4, 0.3, 0.7, rng_seed=seed)
            whole = node_sample(g, g.node_count, rng_seed=seed)
            assert_induced_edges_match(g, whole)
            assert whole.nodes[whole.edge_positions].tolist() == g.edges.tolist()
            single = node_sample(g, 1, rng_seed=seed)
            assert_induced_edges_match(g, single)
            assert single.edge_positions.shape == (0, 2)
        for g in (path_graph(2), triangle(), star_graph(5), complete_bipartite(3, 4)):
            for k in range(1, g.node_count + 1):
                for seed in range(5):
                    assert_induced_edges_match(g, node_sample(g, k, rng_seed=seed))

    def test_size_bounds(self):
        g = triangle()
        with pytest.raises(ValueError):
            node_sample(g, 4)
        with pytest.raises(ValueError):
            node_sample(g, 0)


class TestEdgeSample:
    def test_full_sample_reproduces_edge_shares(self):
        g = generate_homophilous_graph(40, 2, 0.3, 0.7, rng_seed=23)
        sample = edge_sample(g, g.edge_count, rng_seed=24)
        gt = reference_ground_truth(g)
        assert estimate_edge_vector(sample).as_tuple() == gt.s.as_tuple()

    def test_endpoint_share_is_degree_biased(self):
        # Star with hub in B: endpoint share of B is 1/2, not p_b = 1/5.
        g = star_graph(4, hub_label=1)
        sample = edge_sample(g, g.edge_count, rng_seed=25)
        assert estimate_proportions(sample).b == pytest.approx(0.5)
        assert reference_ground_truth(g).p.b == pytest.approx(0.2)

    def test_bounds(self):
        g = triangle()
        with pytest.raises(ValueError):
            edge_sample(g, 4)


class TestSnowball:
    def test_full_sample_is_whole_graph(self):
        g = generate_homophilous_graph(40, 2, 0.3, 0.7, rng_seed=26)
        sample = snowball_sample(g, g.node_count, n_seeds=3, rng_seed=27)
        assert sorted(sample.nodes.tolist()) == list(range(g.node_count))

    def test_forced_bfs_wave_on_path(self):
        # Path 0-1-2-3-4 seeded at the middle node: first wave is {1, 3}.
        g = path_graph(5)
        seed = next(
            s
            for s in range(100)
            if snowball_sample(g, 1, n_seeds=1, rng_seed=s).nodes[0] == 2
        )
        sample = snowball_sample(g, 3, n_seeds=1, rng_seed=seed)
        assert sorted(sample.nodes.tolist()) == [1, 2, 3]
        assert waves(sample).tolist() == [0, 1, 1]
        traversed = sample.nodes[sample.edge_positions]
        assert sorted(map(tuple, traversed.tolist())) == [(2, 1), (2, 3)]

    def test_exact_target_size_with_truncated_wave(self):
        g = generate_homophilous_graph(500, 3, 0.2, 0.8, rng_seed=28)
        sample = snowball_sample(g, 123, n_seeds=5, rng_seed=29)
        assert len(sample) == 123
        assert len(set(sample.nodes.tolist())) == 123
        # Waves are contiguous from the seeds.
        assert waves(sample).min() == 0
        assert set(np.diff(np.unique(waves(sample)))) <= {1}

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 300),
        m=st.integers(1, 4),
        target=st.floats(0.0, 1.0),
        n_seeds=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    def test_matches_reference(self, n, m, target, n_seeds, seed):
        g = generate_homophilous_graph(n, m, 0.3, 0.7, rng_seed=seed)
        n_target = 1 + int(target * (n - 1))
        nodes, tree = reference_snowball(g, n_target, n_seeds, seed + 1)
        sample = snowball_sample(g, n_target, n_seeds=n_seeds, rng_seed=seed + 1)
        assert sample.nodes.tolist() == nodes
        assert sample.edge_positions.tolist() == [list(e) for e in tree]

    def test_more_biased_than_node_sampling(self):
        # Qualitative check on a homophilous graph over 500 replications.
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=30)
        truth = reference_ground_truth(g).p.b
        snow, node = [], []
        for rep in range(500):
            snow.append(
                estimate_proportions(snowball_sample(g, 100, n_seeds=10, rng_seed=(31, rep))).b
            )
            node.append(
                estimate_proportions(node_sample(g, 100, rng_seed=(32, rep))).b
            )
        assert abs(np.mean(snow) - truth) > abs(np.mean(node) - truth)


def reference_wave(indptr, indices, frontier, visited):
    """_wave as it was written before it kept first occurrences with
    ``np.minimum.at``: the unvisited neighbours of ``frontier``, each
    node's first occurrence found by a sort, with a visited mask."""
    nbrs, owner = _neighbours(indptr, indices, frontier)
    fresh = ~visited[nbrs]
    nbrs, owner = nbrs[fresh], owner[fresh]
    first = np.sort(np.unique(nbrs, return_index=True)[1])
    visited[nbrs[first]] = True
    return nbrs[first], owner[first]


def reference_wave_crawl(g, n_target, n_seeds, rng_seed):
    """snowball_sample's crawl, draw for draw, with reference_wave; its
    records and discovery edges."""
    rng = np.random.default_rng(rng_seed)
    drawn = rng.choice(g.node_count, size=min(n_seeds, g.node_count), replace=False)
    record_of = np.argsort(drawn)
    frontier = drawn[record_of]
    visited = np.zeros(g.node_count, dtype=bool)
    visited[drawn] = True
    waves, parents = [drawn[:n_target]], [np.empty(0, dtype=np.int64)]
    count = waves[0].shape[0]
    while count < n_target:
        found, owner = reference_wave(g.indptr, g.indices, frontier, visited)
        pick = rng.choice(found.shape[0], size=min(n_target - count, found.shape[0]), replace=False)
        parents.append(record_of[owner[pick]])
        waves.append(found[pick])
        record_of = np.empty(found.shape[0], dtype=np.int64)
        record_of[pick] = np.arange(count, count + pick.shape[0])
        frontier = found
        count += pick.shape[0]
    children = np.arange(waves[0].shape[0], count)
    return np.concatenate(waves), np.column_stack([np.concatenate(parents), children])


@st.composite
def hub_graphs(draw):
    """Small graphs, not always connected, with up to three hubs joined to
    most nodes, so frontier nodes share many neighbours."""
    n = draw(st.integers(3, 40))
    pairs = set()
    for hub in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        joined = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs |= {(min(hub, w), max(hub, w)) for w in range(n) if joined[w] and w != hub}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    pairs |= {(min(u, w), max(u, w)) for u, w in extra if u != w}
    # Every node needs an edge: a node left without one joins the next.
    touched = {u for pair in pairs for u in pair}
    pairs |= {(min(u, (u + 1) % n), max(u, (u + 1) % n)) for u in range(n) if u not in touched}
    return UndirectedGraph.from_edges(n, sorted(pairs), [0] * n, check_connected=False)


class TestWave:
    """The one-pass wave against the sort-based one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(g=hub_graphs(), data=st.data())
    def test_waves_match_sort_based_waves(self, g, data):
        # Successive waves from a frontier in any order, over nodes some of
        # which were visited before, until none is left.
        nodes = st.integers(0, g.node_count - 1)
        frontier = np.array(data.draw(st.lists(nodes, min_size=1, unique=True)), dtype=np.int64)
        before = data.draw(st.lists(nodes, unique=True))
        visited = np.zeros(g.node_count, dtype=bool)
        visited[frontier] = visited[before] = True
        place = np.where(visited, -1, _UNSEEN)
        while frontier.shape[0]:
            want = reference_wave(g.indptr, g.indices, frontier, visited)
            got = _wave(g.indptr, g.indices, frontier, place)
            assert [x.tolist() for x in got] == [x.tolist() for x in want]
            assert np.array_equal(place != _UNSEEN, visited)
            frontier = got[0]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 300),
        m=st.integers(1, 4),
        target=st.floats(0.0, 1.0),
        n_seeds=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    def test_crawl_matches_sort_based_crawl(self, n, m, target, n_seeds, seed):
        # Hubs of a preferential-attachment graph, and a last wave cut short
        # whenever the target falls inside a wave.
        g = generate_homophilous_graph(n, m, 0.3, 0.7, rng_seed=seed)
        n_target = 1 + int(target * (n - 1))
        nodes, edges = reference_wave_crawl(g, n_target, n_seeds, seed + 1)
        sample = snowball_sample(g, n_target, n_seeds=n_seeds, rng_seed=seed + 1)
        assert sample.nodes.tolist() == nodes.tolist()
        assert sample.edge_positions.tolist() == edges.tolist()


def loop_edge_type_counts(labels, edge_positions, counts):
    """Edge-type counts by a loop over every label set, count and edge."""
    table = np.atleast_2d(labels)
    out = np.zeros((table.shape[0], len(counts), 3), dtype=np.int64)
    for si, row in enumerate(table.tolist()):
        for ci, count in enumerate(counts):
            for u, v in edge_positions.tolist():
                if max(u, v) < count:
                    out[si, ci, row[u] + row[v]] += 1
    return out.reshape(np.shape(labels)[:-1] + (len(counts), 3))


@st.composite
def edge_count_cases(draw):
    """A 1-D or 2-D label table over some records, unsorted observed edges
    between them (none, repeated, or a record with itself), and counts that
    repeat, come out of order, are 0 or lie past every record."""
    records = draw(st.integers(1, 25))
    sets = draw(st.sampled_from([None, 1, 4]))
    shape = (records,) if sets is None else (sets, records)
    bits = draw(st.lists(st.integers(0, 1), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    record = st.integers(0, records - 1)
    edges = draw(st.lists(st.tuples(record, record), max_size=40))
    counts = draw(st.lists(st.integers(0, records + 3), min_size=1, max_size=6))
    labels = np.array(bits, dtype=np.int8).reshape(shape)
    return labels, np.array(edges, dtype=np.int64).reshape(-1, 2), counts


class TestEdgeTypeCounts:
    """Counts at every record count from unsorted edges, against a loop."""

    @settings(max_examples=200, deadline=None)
    @given(case=edge_count_cases())
    @example(case=(np.array([0, 1, 1], dtype=np.int8), np.empty((0, 2), dtype=np.int64), [3, 0, 3]))
    @example(case=(
        np.array([[0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.int8),
        np.array([[2, 3], [0, 1], [3, 1], [1, 2]]),
        [4, 2, 9, 0, 2],
    ))
    def test_matches_a_loop_over_edges(self, case):
        labels, edge_positions, counts = case
        got = edge_type_counts(labels, edge_positions, counts)
        assert got.shape == labels.shape[:-1] + (len(counts), 3)
        assert np.array_equal(got, loop_edge_type_counts(labels, edge_positions, counts))

    def test_edges_need_no_order(self):
        # Any order of the same edges gives the same counts.
        g = generate_homophilous_graph(300, 3, 0.3, 0.7, rng_seed=90)
        walk = rwrw_walk(g, 500, rng_seed=91)
        table = np.stack([walk.labels, 1 - walk.labels])
        counts = [1, 250, 499, 500, 10_000]
        shuffled = np.random.default_rng(92).permutation(walk.edge_positions)
        want = edge_type_counts(table, walk.edge_positions, counts)
        assert np.array_equal(edge_type_counts(table, shuffled[:, ::-1], counts), want)
        assert np.array_equal(want, loop_edge_type_counts(table, walk.edge_positions, counts))


class TestRankRecords:
    """One stable sort of an int64 key against the two-key lexsort."""

    @staticmethod
    def lexsorted(sample):
        return np.lexsort((sample.nodes, -np.asarray(sample.degrees, dtype=np.int64)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 60),
        steps=st.integers(1, 800),
        burn_in=st.integers(0, 50),
        seed=st.integers(0, 2**31),
    )
    def test_walk_with_revisits_matches_lexsort(self, n, steps, burn_in, seed):
        g = generate_homophilous_graph(n, 2, 0.3, 0.7, rng_seed=seed)
        walk = rwrw_walk(g, steps, burn_in=burn_in, rng_seed=seed + 1)
        assert np.array_equal(rank_records(walk), self.lexsorted(walk))
        for count in (1, steps // 2, steps):
            head = prefix(walk, count)
            assert np.array_equal(rank_records(head), self.lexsorted(head))

    @pytest.mark.parametrize("n, m", [(2, 1), (50, 1), (2000, 4)])
    def test_census_matches_lexsort(self, n, m):
        g = generate_homophilous_graph(n, m, 0.3, 0.7, rng_seed=n)
        census = _records(g, np.arange(g.node_count), g.edges)
        assert np.array_equal(rank_records(census), self.lexsorted(census))

    def test_largest_node_does_not_tie_the_next_degree(self):
        # With a span of the largest id rather than one more, (degree 2,
        # node 5) would tie (degree 1, node 0) and keep record order.
        sample = Sample(
            np.array([0, 5]), np.array([1, 2]), np.zeros(2, dtype=np.int8), np.ones(2), np.empty((0, 2))
        )
        assert rank_records(sample).tolist() == self.lexsorted(sample).tolist() == [1, 0]

    def test_key_stays_inside_int64_near_the_bound(self):
        # Node ids and degrees just below 3·10⁹, repeated, with ties.
        rng = np.random.default_rng(5)
        top = 3_000_000_000
        nodes = np.concatenate([top - 1 - rng.integers(0, 4, 40), rng.integers(0, 4, 40)])
        degrees = np.concatenate([top - 1 - rng.integers(0, 4, 40), rng.integers(1, 4, 40)])
        sample = Sample(nodes, degrees, np.zeros(80, dtype=np.int8), np.ones(80), np.empty((0, 2)))
        assert np.array_equal(rank_records(sample), self.lexsorted(sample))

    @pytest.mark.parametrize("past", [0, 1])
    def test_composite_exactly_at_the_bound(self, past):
        # Eight records, ties among them, whose smallest key node - degree *
        # 2**30 is -2**60 at record 0: its composite key * 8 + 0 is -2**63,
        # the least int64. One past it, -2**60 - 1, the composite would wrap
        # to the top of int64 and the stable argsort ranks the records.
        nodes = np.array([past * (2**30 - 1), 2**30 - 1, 3, 0, 2**30 - 1, 7, 3, 0])
        degrees = np.array([2**30 + past, 1, 2, 2**30, 1, 5, 2, 3])
        sample = Sample(nodes, degrees, np.zeros(8, dtype=np.int8), np.ones(8), np.empty((0, 2)))
        assert int((nodes - degrees * 2**30).min()) * 8 == -(2**63) - 8 * past
        assert np.array_equal(rank_records(sample), self.lexsorted(sample))


class TestFirstRecords:
    """One stable order of unique composites against np.unique's first indices."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 60), steps=st.integers(1, 800), seed=st.integers(0, 2**31))
    def test_walk_with_revisits_matches_unique(self, n, steps, seed):
        walk = rwrw_walk(generate_homophilous_graph(n, 2, 0.3, 0.7, rng_seed=seed), steps, rng_seed=seed + 1)
        assert np.array_equal(first_records(walk.nodes), np.unique(walk.nodes, return_index=True)[1])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda r: st.lists(
                # Small ids, and ids around the largest whose composites fit
                # int64 among r records: id * r + r - 1 <= 2**63 - 1.
                st.sampled_from([0, 1, 2, 7] + [min(2**63 // r + d, 2**63 - 1) for d in (-2, -1, 0)]),
                min_size=r,
                max_size=r,
            )
        )
    )
    @example([5])
    @example([3] * 9)
    @example([0, 2**60 - 1, 5, 2**60 - 1, 0, 1, 2**60 - 1, 2**60 - 1])  # last composite 2**63 - 1
    @example([0, 2**60, 5, 2**60, 0, 1, 2**60, 2**60])  # past int64: the stable argsort
    def test_matches_unique(self, nodes):
        nodes = np.array(nodes, dtype=np.int64)
        assert np.array_equal(first_records(nodes), np.unique(nodes, return_index=True)[1])


def assert_same_sample(got, want):
    for f in dataclasses.fields(Sample):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


class TestPrefix:
    """The first z records of a sample are a sample of size z: exactly for
    walks, and in law for node, edge and snowball samples."""

    @pytest.mark.parametrize("seed_mode", [SEED_DEGREE, SEED_UNIFORM])
    @pytest.mark.parametrize("burn_in", [0, 300])
    def test_walk_prefix_is_the_shorter_walk(self, seed_mode, burn_in):
        g = generate_homophilous_graph(500, 3, 0.2, 0.8, rng_seed=80)
        for seed in range(20):
            walk = rwrw_walk(g, 3000, seed_mode=seed_mode, burn_in=burn_in, rng_seed=seed)
            for z in (1, 999, 1500, 2999):
                assert_same_sample(
                    prefix(walk, z),
                    rwrw_walk(g, z, seed_mode=seed_mode, burn_in=burn_in, rng_seed=seed),
                )

    def test_walk_prefix_across_the_block_boundary(self):
        # The walk reads its uniforms in blocks of 65536.
        g = generate_homophilous_graph(200, 2, 0.3, 0.7, rng_seed=81)
        walk = rwrw_walk(g, 66000, seed_mode=SEED_UNIFORM, burn_in=200, rng_seed=82)
        for z in (65000, 65336, 65337, 65999):
            assert_same_sample(
                prefix(walk, z), rwrw_walk(g, z, seed_mode=SEED_UNIFORM, burn_in=200, rng_seed=82)
            )

    def test_node_prefix_is_a_uniform_subset(self):
        # 7000 draws of 6 of 7 nodes, cut to 3: each of the 35 subsets
        # about 200 times, and each prefix induces the reference edges.
        g = UndirectedGraph.from_edges(
            7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (2, 5)], [0, 1, 0, 1, 0, 1, 1]
        )
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(7), 3))}
        counts = np.zeros(len(subsets))
        for rep in range(7000):
            head = prefix(node_sample(g, 6, rng_seed=(83, rep)), 3)
            counts[subsets[tuple(sorted(head.nodes.tolist()))]] += 1
            assert_induced_edges_match(g, head)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_edge_prefix_is_a_uniform_subset(self):
        # 11200 draws of all 8 edges, cut to 3 edges: each of the 56 edge
        # sets about 200 times, each edge with its own two records.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]
        g = UndirectedGraph.from_edges(6, edges, [0, 1, 0, 1, 1, 0])
        pairs = sorted(map(tuple, np.sort(edges, axis=1).tolist()))
        subsets = {c: i for i, c in enumerate(itertools.combinations(pairs, 3))}
        counts = np.zeros(len(subsets))
        for rep in range(11200):
            head = prefix(edge_sample(g, 8, rng_seed=(84, rep)), 6)
            assert head.edge_positions.tolist() == [[0, 1], [2, 3], [4, 5]]
            drawn = sorted(map(tuple, np.sort(head.nodes.reshape(-1, 2), axis=1).tolist()))
            counts[subsets[tuple(drawn)]] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_snowball_prefix_has_the_truncated_crawl_law(self):
        # The node set and discovery edges of a 4-record prefix of a 6-node
        # crawl, against a crawl of exactly 4 nodes by the truncation rule.
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7)]
        g = UndirectedGraph.from_edges(8, edges, [0, 1, 0, 1, 0, 1, 0, 1])
        rng = np.random.default_rng(85)
        prefixes, crawls = Counter(), Counter()
        for rep in range(8000):
            head = prefix(snowball_sample(g, 6, n_seeds=2, rng_seed=(86, rep)), 4)
            tree = map(tuple, head.nodes[head.edge_positions].tolist())
            prefixes[frozenset(head.nodes.tolist()), frozenset(tree)] += 1
            crawls[truncated_snowball(g, 4, 2, rng)] += 1
        # Outcomes seen fewer than 20 times in all are pooled into one column.
        common = [k for k in prefixes.keys() | crawls.keys() if prefixes[k] + crawls[k] >= 20]
        table = np.array([[c[k] for k in common] + [8000 - sum(c[k] for k in common)]
                          for c in (prefixes, crawls)])
        table = table[:, table.sum(axis=0) > 0]
        assert len(common) > 20
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_snowball_traverses_in_frontier_order(self):
        # A node reached from two frontier nodes belongs to the first in
        # frontier order (seeds ascending, then discovery order), whatever
        # order their records took. On K4 with two seeds, both other nodes
        # hang off the lower seed; on a 4-cycle from one seed, the far node
        # hangs off the lower of its two neighbours.
        k4 = UndirectedGraph.from_edges(4, list(itertools.combinations(range(4), 2)), [0, 1, 0, 1])
        cycle = path_graph(4, labels=[0, 1, 0, 1])
        cycle = UndirectedGraph.from_edges(4, cycle.edges.tolist() + [(0, 3)], [0, 1, 0, 1])
        for g, n_seeds, parents_wave in ((k4, 2, slice(0, 2)), (cycle, 1, slice(1, 3))):
            higher_first = 0
            for seed in range(20):
                sample = snowball_sample(g, 4, n_seeds=n_seeds, rng_seed=seed)
                frontier = sample.nodes[parents_wave]
                higher_first += frontier[0] > frontier[1]
                last = sample.edge_positions[-1]
                assert sample.nodes[last[0]] == frontier.min()
                assert last[0] < last[1]
            assert 0 < higher_first < 20


class TestImportanceResample:
    def test_regular_graph_weights_equal(self):
        g = triangle()
        walk = rwrw_walk(g, 1000, rng_seed=33)
        resampled = importance_resample(walk, 5000, rng_seed=34)
        assert np.allclose(walk.weights / walk.weights.sum(), 1.0 / len(walk))
        assert len(resampled) == 5000

    def test_star_hub_recovers_uniform_share(self):
        # pi(hub) = 1/2 in the walk; uniform target is 1/5.
        g = star_graph(4)
        walk = rwrw_walk(g, 20_000, rng_seed=35)
        resampled = importance_resample(walk, 100_000, rng_seed=36)
        assert np.mean(resampled.nodes == 0) == pytest.approx(0.2, abs=0.02)

    def test_resampled_degree_mean_matches_population(self):
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=37)
        walk = rwrw_walk(g, 200_000, rng_seed=38)
        resampled = importance_resample(walk, 100_000, rng_seed=39)
        assert resampled.degrees.mean() == pytest.approx(g.mean_degree, rel=0.02)

    def test_unweighted_mean_matches_walk_estimate(self):
        # Resample-then-average agrees with the reweighted estimator on
        # the same fixed sample.
        g = generate_homophilous_graph(300, 3, 0.3, 0.7, rng_seed=40)
        walk = rwrw_walk(g, 2000, rng_seed=41)
        direct = estimate_proportions(walk).b
        resampled = importance_resample(walk, 100_000, rng_seed=42)
        assert np.mean(resampled.labels == 1) == pytest.approx(direct, abs=0.01)


class TestEstimateEdgeVector:
    def test_single_group_graph(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 0, 0])
        walk = rwrw_walk(g, 100, rng_seed=43)
        assert estimate_edge_vector(walk).as_tuple() == (1.0, 0.0, 0.0)

    def test_bipartite_by_group_all_samplers(self):
        g = complete_bipartite(2, 3)
        samples = [
            rwrw_walk(g, 200, rng_seed=44),
            node_sample(g, 5, rng_seed=45),
            edge_sample(g, 6, rng_seed=46),
            snowball_sample(g, 5, n_seeds=2, rng_seed=47),
        ]
        for sample in samples:
            assert estimate_edge_vector(sample).as_tuple() == (0.0, 1.0, 0.0)

    def test_walk_mean_edge_shares_near_truth(self):
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=48)
        truth = np.array(reference_ground_truth(g).s.as_tuple())
        totals = np.zeros(3)
        reps = 500
        for rep in range(reps):
            walk = rwrw_walk(g, 3000, rng_seed=(49, rep))
            totals += estimate_edge_vector(walk).as_tuple()
        assert totals / reps == pytest.approx(truth, abs=0.02)

    def test_no_edges_raises(self):
        g = generate_homophilous_graph(200, 2, 0.3, 0.7, rng_seed=50)
        sparse = node_sample(g, 2, rng_seed=51)
        if sparse.edge_positions.shape[0] == 0:
            with pytest.raises(NoObservedEdgesError):
                estimate_edge_vector(sparse)

    def test_with_noisy_labels_replaces_labels(self):
        g = triangle()
        walk = rwrw_walk(g, 10, rng_seed=52)
        noisy = apply_noise(g.labels, symmetric_confusion(0.2), 53)
        tagged = with_noisy_labels(walk, noisy)
        assert np.array_equal(tagged.labels, noisy[walk.nodes])
        assert np.array_equal(walk.labels, g.labels[walk.nodes])
        for name in ("nodes", "degrees", "weights", "edge_positions"):
            assert np.array_equal(getattr(tagged, name), getattr(walk, name))
        estimate_edge_vector(tagged)


def weighted_visibility(sample, quantile):
    return estimate_proportions(top_records(sample, quantile))


class TestEstimateVisibility:
    def test_star_hub_is_the_top_weight_quantile(self):
        # A walk on a star alternates hub and leaf, so 1000 steps hold 500
        # hub records of weight 1/4 and 500 leaf records of weight 1: the
        # hub carries exactly a fifth of the weight, and the top quintile
        # is the hub's records, whole, and nothing else.
        g = star_graph(4, hub_label=1)
        walk = rwrw_walk(g, 1000, rng_seed=53)
        top = top_records(walk, 0.2)
        assert set(top.nodes.tolist()) == {0}
        assert len(top) == 500
        assert weighted_visibility(walk, 0.2).b == 1.0

    def test_all_top_nodes_majority(self):
        # Five heavy A nodes (clique plus all leaves) over 20 light
        # leaves: the top quintile contains only A, so the B share is 0.
        k, leaves = 5, 20
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += [(i, k + j) for i in range(k) for j in range(leaves)]
        labels = [0] * k + [(1 if j % 2 else 0) for j in range(leaves)]
        g = UndirectedGraph.from_edges(k + leaves, edges, labels)
        walk = rwrw_walk(g, 5000, rng_seed=54)
        assert weighted_visibility(walk, 0.2).b == 0.0

    def test_regular_graph_matches_proportions(self):
        # Degree carries no information on a regular graph, so visibility
        # is the group share (labels alternate, uncorrelated with node
        # id). A degree-6 circulant mixes fast enough for the tolerance.
        n = 40
        edges = [(i, (i + k) % n) for i in range(n) for k in (1, 2, 3)]
        g = UndirectedGraph.from_edges(n, edges, [i % 2 for i in range(n)])
        walk = rwrw_walk(g, 50_000, rng_seed=56)
        assert weighted_visibility(walk, 0.2).b == pytest.approx(0.5, abs=0.03)

    def test_mean_near_ground_truth(self):
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=58)
        truth = reference_ground_truth(g).visibility_b
        total = 0.0
        reps = 500
        for rep in range(reps):
            walk = rwrw_walk(g, 2000, rng_seed=(59, rep))
            total += weighted_visibility(walk, 0.2).b
        assert total / reps == pytest.approx(truth, abs=0.02)

    def test_weighted_and_resampled_agree_in_mean(self):
        # The same 300 walks through both estimators: the paired mean
        # difference is about 0.0005 apart from noise of SE 0.0005.
        g = generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=59)
        diffs = []
        for rep in range(300):
            walk = rwrw_walk(g, 1000, rng_seed=(61, rep))
            weighted = weighted_visibility(walk, 0.2).b
            diffs.append(weighted - walk_visibility(walk, 0.2, rng_seed=(62, rep)).b)
        assert abs(np.mean(diffs)) < 0.003

    def test_tiny_resample_rejected(self):
        g = triangle()
        walk = rwrw_walk(g, 10, rng_seed=61)
        with pytest.raises(ValueError):
            walk_visibility(walk, 0.2, out_size=4, rng_seed=62)


def unit_weight_samples():
    """Node, edge and snowball samples of small graphs, whose degrees tie
    often and whose edge samples repeat node ids."""
    draws = {
        "node": lambda g, k, seed: node_sample(g, k, rng_seed=seed),
        "edge": lambda g, k, seed: edge_sample(g, max(1, k // 2), rng_seed=seed),
        "snowball": lambda g, k, seed: snowball_sample(g, k, n_seeds=3, rng_seed=seed),
    }
    return st.builds(
        lambda n, m, kind, size, seed: draws[kind](
            generate_homophilous_graph(n, m, 0.3, 0.7, rng_seed=seed),
            1 + int(size * (n - 1)),
            seed + 1,
        ),
        n=st.integers(5, 200),
        m=st.integers(1, 3),
        kind=st.sampled_from(sorted(draws)),
        size=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )


class TestTopRecords:
    @settings(max_examples=150, deadline=None)
    @given(sample=unit_weight_samples(), quantile=st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    def test_unit_weights_select_top_quantile_indices(self, sample, quantile):
        if int(len(sample) * quantile) < 1:
            with pytest.raises(UndefinedShareError):
                top_records(sample, quantile)
            return
        want = take(sample, by_degree_then_id(sample, quantile))
        got = top_records(sample, quantile)
        for name in ("nodes", "degrees", "labels", "weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert estimate_proportions(got) == estimate_proportions(want)

    def test_whole_sample_at_quantile_one(self):
        g = generate_homophilous_graph(300, 3, 0.3, 0.7, rng_seed=66)
        for sample in (rwrw_walk(g, 701, rng_seed=67), edge_sample(g, 40, rng_seed=68)):
            # Every record, each with its full weight up to the budget's rounding.
            top = top_records(sample, 1.0)
            assert sorted(top.nodes.tolist()) == sorted(sample.nodes.tolist())
            assert sorted(top.weights) == pytest.approx(sorted(sample.weights), rel=1e-12)
            assert estimate_proportions(top).b == pytest.approx(estimate_proportions(sample).b)

    @pytest.mark.parametrize("steps, quantile", [(1000, 0.2), (2999, 0.2), (777, 0.37), (50, 0.5)])
    def test_walk_weights_sum_to_budget(self, steps, quantile):
        g = generate_homophilous_graph(500, 3, 0.2, 0.8, rng_seed=69)
        walk = rwrw_walk(g, steps, rng_seed=70)
        budget = walk.weights.sum() * int(steps * quantile) / steps
        assert top_records(walk, quantile).weights.sum() == pytest.approx(budget, rel=1e-12)

    @pytest.mark.parametrize("steps, quantile", [(1000, 0.2), (2999, 0.2), (777, 0.37), (50, 0.5)])
    def test_only_the_boundary_record_is_partial(self, steps, quantile):
        g = generate_homophilous_graph(500, 3, 0.2, 0.8, rng_seed=69)
        walk = rwrw_walk(g, steps, rng_seed=71)
        top = top_records(walk, quantile)
        order = np.lexsort((walk.nodes, -walk.degrees))[: len(top)]
        assert np.array_equal(top.nodes, walk.nodes[order])
        assert np.array_equal(top.weights[:-1], walk.weights[order[:-1]])
        assert 0.0 < top.weights[-1] <= walk.weights[order[-1]]
        # Degrees descend through the selection, so the weighted top set
        # holds more records than the count a unit-weight sample keeps.
        assert len(top) > int(steps * quantile)

    def test_walk_shorter_than_one_over_quantile_refused(self):
        g = generate_homophilous_graph(100, 2, 0.3, 0.7, rng_seed=72)
        with pytest.raises(UndefinedShareError, match="selects no records"):
            top_records(rwrw_walk(g, 4, rng_seed=73), 0.2)
        assert len(top_records(rwrw_walk(g, 5, rng_seed=73), 0.2)) >= 1

    @pytest.mark.parametrize("quantile", [0.0, -0.5, 1.5, float("nan")])
    def test_quantile_outside_unit_interval_refused(self, quantile):
        # A refusal, not a domain failure that a run would record as a row flag.
        walk = rwrw_walk(generate_homophilous_graph(100, 2, 0.3, 0.7, rng_seed=72), 50, rng_seed=73)
        with pytest.raises(ValueError, match=r"^top_quantile must lie in \(0, 1\]") as exc:
            top_records(walk, quantile)
        assert not isinstance(exc.value, UndefinedShareError)


class TestTopCutOfPrefix:
    """The top quantile of every prefix from one ranking of the whole draw."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["walk", "edge"]),
        n=st.integers(4, 60),
        size=st.integers(2, 120),
        quantile=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        seed=st.integers(0, 2**31),
    )
    def test_one_ranking_gives_each_prefix_its_own_cut(self, kind, n, size, quantile, seed):
        # Walks revisit nodes and edge samples repeat endpoints, so records
        # tie on (degree, node); the stable sort keeps them in record order
        # on both sides.
        g = generate_homophilous_graph(n, 2, 0.3, 0.7, rng_seed=seed)
        if kind == "walk":
            drawn = rwrw_walk(g, size, rng_seed=seed + 1)
        else:
            drawn = edge_sample(g, min(size, g.edge_count), rng_seed=seed + 1)
        ranked = rank_records(drawn)
        for count in range(1, len(drawn) + 1):
            head = prefix(drawn, count)
            if int(count * quantile) < 1:
                with pytest.raises(UndefinedShareError):
                    top_cut(ranked[ranked < count], drawn.weights, quantile)
                continue
            idx, weights = top_cut(ranked[ranked < count], drawn.weights, quantile)
            own_idx, own_weights = top_cut(rank_records(head), head.weights, quantile)
            assert np.array_equal(idx, own_idx)
            assert np.array_equal(weights, own_weights)
            top = top_records(head, quantile)
            assert np.array_equal(top.nodes, drawn.nodes[idx])
            assert np.array_equal(top.weights, weights)

    def test_ties_are_exercised(self):
        g = generate_homophilous_graph(30, 2, 0.3, 0.7, rng_seed=5)
        for drawn in (rwrw_walk(g, 200, rng_seed=6), edge_sample(g, 40, rng_seed=7)):
            keys = np.column_stack([drawn.degrees, drawn.nodes])
            assert np.unique(keys, axis=0).shape[0] < len(drawn)


class TestWalkSeed:
    def test_degree_seed_matches_weighted_choice(self):
        # The seed node is the one rng.choice(p=d/D) picks from the same
        # draw, on a star, a path and generated graphs up to 100k nodes.
        graphs = [
            star_graph(49),
            path_graph(60),
            generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=74),
            generate_homophilous_graph(100_000, 4, 0.2, 0.8, rng_seed=75),
        ]
        for g in graphs:
            p = g.degrees / g.total_degree
            for seed in range(2000):
                want = np.random.default_rng(seed).choice(g.node_count, p=p)
                assert rwrw_walk(g, 1, rng_seed=seed).nodes[0] == want


class TestRecords:
    def test_audit_file_format(self, tmp_path):
        g = star_graph(4)
        walk = rwrw_walk(g, 25, rng_seed=63)
        noisy = apply_noise(g.labels, symmetric_confusion(0.2), 64)
        path = tmp_path / "records.txt"
        write_sample_records(walk, path, noisy[walk.nodes])
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 25
        for i, line in enumerate(lines):
            node, degree, true_tok, noisy_tok, idx = line.split()
            node = int(node)
            assert node == walk.nodes[i]
            assert int(degree) == g.degrees[node]
            assert true_tok == GROUP_TOKENS[g.labels[node]]
            assert noisy_tok == GROUP_TOKENS[noisy[node]]
            assert idx == str(i)

    def test_without_noisy_labels_uses_na(self, tmp_path):
        g = star_graph(4)
        walk = rwrw_walk(g, 5, rng_seed=65)
        path = tmp_path / "records.txt"
        write_sample_records(walk, path)
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert all(l.split()[3] == "NA" for l in body)
