"""Graph construction, generation, preprocessing, and exact measures."""

import dataclasses
import hashlib
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import has_edge, mean_field_mixing, records_array
from graphquant import graph, ground_truth
from graphquant.graph import (
    MISSING,
    UndirectedGraph,
    _read_by_line,
    generate_homophilous_graph,
    graphs_equal,
    load_and_preprocess,
    load_graph_files,
    read_edge_list,
    read_label_file,
    write_edge_list,
    write_label_file,
)
from graphquant.quantify import EdgeVector, PropVector, coleman_homophily, ingroup_share
from graphquant.samplers import node_sample, with_noisy_labels, write_sample_records


# Node id fields for the reader grammar tests: the odd spellings Python's
# int() and numpy's parser may treat differently, and the int64 edges.
NODE_IDS = st.sampled_from(
    ["1", "+5", "007", "1_0", "1.0", "1e3", "-3", "-0", "٣",
     "99999999999999999999", "9223372036854775807", "-9223372036854775808",
     "9223372036854775808", "-9223372036854775809"]
) | st.integers(-(2**64), 2**64).map(str)
# Group fields: the three tokens, then unknown ones a lenient parser might take.
LABEL_TOKENS = st.sampled_from(["A", "B", "NA"]) | st.sampled_from(["a", "b", "na", "Na", "C", "N/A", "0"])


def complete_bipartite(n_a, n_b):
    """K_{n_a, n_b} with side A labeled 0 and side B labeled 1."""
    edges = [(i, n_a + j) for i in range(n_a) for j in range(n_b)]
    labels = [0] * n_a + [1] * n_b
    return UndirectedGraph.from_edges(n_a + n_b, edges, labels)


def two_cliques_with_bridge(k):
    """Two k-cliques of opposite groups joined by a single edge."""
    edges = []
    for block, offset in ((0, 0), (1, k)):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((offset + i, offset + j))
    edges.append((0, k))
    labels = [0] * k + [1] * k
    return UndirectedGraph.from_edges(2 * k, edges, labels)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(3, [(0, 0), (0, 1), (1, 2)], [0, 1, 0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)], [0, 1, 0])
        with pytest.raises(ValueError, match="duplicate edges"):
            UndirectedGraph.from_edges(3, [(1, 2), (0, 1), (1, 2)], [0, 1, 0])

    def test_rejects_isolated_node(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(3, [(0, 1)], [0, 1, 0])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(4, [(0, 1), (2, 3)], [0, 1, 0, 1])
        # A path through shuffled ids needs many labelling rounds; one
        # missing link splits it.
        order = np.random.default_rng(6).permutation(2000)
        edges = np.column_stack([order[:-1], order[1:]])
        labels = np.zeros(2000, dtype=np.int8)
        UndirectedGraph.from_edges(2000, edges, labels)
        with pytest.raises(ValueError, match="single connected component"):
            UndirectedGraph.from_edges(2000, np.delete(edges, 999, axis=0), labels)

    @pytest.mark.parametrize("labels", [np.array([0, 257, 256]), [0.0, 0.7, 1.0]])
    def test_labels_checked_before_cast(self, labels):
        # A cast to int8 first would read these as [0, 1, 0] and [0, 0, 1].
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            UndirectedGraph.from_edges(3, [(0, 1), (1, 2)], labels)

    def test_non_integer_edges_refused(self):
        # A cast to int64 first would read (1, 2.9) as (1, 2).
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            UndirectedGraph.from_edges(3, [(0, 1), (1, 2.9)], [0, 1, 0])
        with pytest.raises(ValueError, match="graph has no edges"):
            UndirectedGraph.from_edges(3, [], [0, 1, 0])

    def test_adjacency_symmetric_and_sorted(self):
        g = UndirectedGraph.from_edges(4, [(2, 0), (1, 0), (3, 1), (2, 1)], [0, 0, 1, 1])
        for u in range(4):
            nbrs = g.indices[g.indptr[u] : g.indptr[u + 1]]
            assert np.array_equal(nbrs, np.sort(nbrs))
            for v in nbrs:
                assert has_edge(g, int(v), u)
        assert g.total_degree == 2 * g.edge_count

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 40))
    def test_csr_matches_stable_argsort_build(self, data, n):
        # A path keeps every node incident; extra edges come from the
        # remaining pairs. Any order and orientation gives the same CSR as
        # a stable argsort of the half-edge keys.
        pairs = [(u, v) for u in range(n) for v in range(u + 2, n)]
        extra = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        edges = data.draw(st.permutations([(u, u + 1) for u in range(n - 1)] + extra))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
        g = UndirectedGraph.from_edges(n, edges, np.zeros(n, dtype=np.int8))
        want = reference_csr(n, edges)
        for name, array in zip(("edges", "indptr", "indices", "degrees"), want):
            got = getattr(g, name)
            assert got.dtype == np.int64 and np.array_equal(got, array), name


def reference_csr(node_count, edges):
    """``(edges, indptr, indices, degrees)`` from a stable argsort of the
    half-edge keys and a gather, which holds without distinct keys."""
    e = np.asarray(edges, dtype=np.int64)
    keys = np.sort(e.min(axis=1) * node_count + e.max(axis=1))
    lo, hi = np.divmod(keys, node_count)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    indices = dst[np.argsort(src * node_count + dst, kind="stable")]
    return np.column_stack([lo, hi]), indptr, indices, np.diff(indptr)


class TestGroundTruth:
    def test_complete_bipartite_perfect_heterophily(self):
        gt = ground_truth(complete_bipartite(2, 3))
        assert gt.s.as_tuple() == (0.0, 1.0, 0.0)
        assert gt.homophily_a == -1.0
        assert gt.homophily_b == -1.0
        assert gt.p.b == pytest.approx(0.6)

    def test_two_cliques_hand_count(self):
        # 2 * C(5,2) + 1 = 21 edges, one of them cross-group.
        gt = ground_truth(two_cliques_with_bridge(5))
        assert gt.s.ab == pytest.approx(1.0 / 21.0, abs=1e-12)
        assert gt.s.aa == pytest.approx(10.0 / 21.0, abs=1e-12)
        # s_a = 20/21, p_a = 1/2, so H_a = (20/21 - 1/2) / (1/2) = 19/21.
        assert gt.homophily_a == pytest.approx(19.0 / 21.0, abs=1e-12)

    def test_single_group_homophily_guarded(self):
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [0, 0, 0])
        gt = ground_truth(g)
        assert gt.p.as_tuple() == (1.0, 0.0)
        assert gt.homophily_b is None
        assert gt.homophily_a is None  # whole-population group is undefined too

    def test_shares_sum_to_one(self):
        g = generate_homophilous_graph(500, 3, 0.3, 0.7, rng_seed=2)
        gt = ground_truth(g)
        assert gt.p.a + gt.p.b == pytest.approx(1.0, abs=1e-12)
        assert sum(gt.s.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_visibility_counts_minority_in_top_quintile(self):
        # Hub (B) plus 4 leaves: top 20% of 5 nodes is exactly the hub.
        g = UndirectedGraph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], [1, 0, 0, 0, 0]
        )
        assert ground_truth(g, top_quantile=0.2).visibility_b == 1.0

    @pytest.mark.parametrize("n", [7, 12, 40, 3000])
    def test_census_equals_hand_count(self, n):
        # Counts over the graph's own arrays, with the top nodes ranked by
        # descending degree and ties by ascending id, give the same floats
        # bit for bit; below 1/q nodes there is no top node.
        g = generate_homophilous_graph(n, 3, 0.3, 0.7, rng_seed=n)
        p_b = np.count_nonzero(g.labels) / n
        pair = g.labels[g.edges].sum(axis=1)
        s = EdgeVector(*(np.count_nonzero(pair == k) / g.edge_count for k in range(3)))
        for q in (0.05, 0.2, 0.37, 1.0):
            gt = ground_truth(g, q)
            assert gt.p == PropVector(1.0 - p_b, p_b)
            assert gt.s == s
            if int(n * q) < 1:
                assert gt.visibility_b is None
            else:
                top = np.argsort(-g.degrees, kind="stable")[: int(n * q)]
                assert gt.visibility_b == np.count_nonzero(g.labels[top]) / top.shape[0]
            assert gt.homophily_a == coleman_homophily(ingroup_share(s, 0), 1.0 - p_b)
            assert gt.homophily_b == coleman_homophily(ingroup_share(s, 1), p_b)

    @pytest.mark.parametrize("quantile", [2.0, 0.0, -1.0, float("nan")])
    def test_top_quantile_outside_unit_interval_refused(self, quantile):
        # As in ExperimentConfig.validate: a quantile above 1 would use the
        # whole graph, and one of 0 or below only its top node.
        g = two_cliques_with_bridge(5)
        with pytest.raises(ValueError, match=r"^top_quantile must lie in \(0, 1\]"):
            ground_truth(g, top_quantile=quantile)
        assert ground_truth(g, top_quantile=1.0).visibility_b == 0.5


class TestGenerator:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_homophilous_graph(3, 3, 0.2, 0.8, 1)
        with pytest.raises(ValueError):
            generate_homophilous_graph(10, 0, 0.2, 0.8, 1)
        with pytest.raises(ValueError):
            generate_homophilous_graph(10, 2, 1.2, 0.8, 1)
        with pytest.raises(ValueError):
            generate_homophilous_graph(10, 2, 0.2, -0.1, 1)

    def test_deterministic_under_seed(self):
        a = generate_homophilous_graph(200, 3, 0.2, 0.8, rng_seed=9)
        b = generate_homophilous_graph(200, 3, 0.2, 0.8, rng_seed=9)
        assert graphs_equal(a, b)

    @pytest.mark.parametrize(
        "n, m, frac, pref, seed, edges_sha, labels_sha",
        [
            (2, 1, 0.5, 0.5, 0, "9d34149fbd1fe777", "96a296d224f285c6"),
            (5, 4, 0.2, 0.8, 7, "b7fb824b99cde1cd", "01e246b58d8e782f"),
            (300, 1, 0.2, 0.8, 0, "0164a1044cd16a96", "96053ffd979d6133"),
            (300, 3, 0.0, 0.8, 7, "853419c328b743f8", "c90c75cc1af2fdc0"),
            (300, 3, 1.0, 0.8, 0, "dd6ff6a23960991b", "23e1ac64a8338b8d"),
            (300, 3, 0.2, 0.0, 7, "2fa7a00ffa44a873", "cb3d80e956e2fa98"),
            (300, 3, 0.2, 1.0, 0, "ae9adb87afc38a48", "4e0839619472abf4"),
            (300, 2, 0.5, 5e-324, 7, "78a79307ce9d7404", "241433dedf501429"),
            (10, 1, 0.0, 5e-324, 0, "bf0165ed0c1e16ee", "01d448afd9280654"),
            (300, 1, 0.5, 1.0, 0, "40a96b958f0a07ea", "da555f567a39a028"),
            (1000, 4, 0.5, 0.2, 7, "03c085287e9eb44e", "79f9709137b32921"),
            (3000, 5, 0.2, 0.8, 0, "5f228c49c383750a", "00614ceec7fa91bc"),
            (30000, 4, 0.0001, 1.0, 1, "e3795fd9eba256f2", "6ac5e36295855db5"),
        ],
    )
    def test_pinned_graphs(self, n, m, frac, pref, seed, edges_sha, labels_sha):
        # The exact graphs, as sha256 prefixes of the edge and label bytes.
        # The points hold the generator's corners: n = m + 1, m = 1, all-A
        # and all-B groups, preference 0, 1 and denormal, and uniform
        # fallbacks. At (300, 1, 0.5, 1.0) node 2 finds no weighted
        # candidate and falls back before any try, so its draws follow the
        # first block of uniforms. The last point draws 15 blocks and runs
        # its fourth fallback after the sixth refill, so that fallback's
        # draws sit between two blocks. A rewrite of the generator that
        # keeps its random stream keeps these.
        g = generate_homophilous_graph(n, m, frac, pref, rng_seed=seed)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest()[:16] == edges_sha
        assert hashlib.sha256(g.labels.tobytes()).hexdigest()[:16] == labels_sha

    def test_reference_cell_shape(self):
        g = generate_homophilous_graph(10000, 4, 0.2, 0.8, rng_seed=1)
        assert g.mean_degree == pytest.approx(8.0, abs=0.05)
        assert ground_truth(g).p.b == pytest.approx(0.2, abs=0.02)
        # Power-law tail: the largest hub dwarfs the mean degree.
        assert g.degrees.max() > 10 * g.mean_degree

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(10, 80),
        m=st.integers(1, 4),
        frac=st.floats(0.0, 1.0),
        pref=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    # Denormal preference: rounding once sent the draw to an empty pool.
    @example(n=10, m=1, frac=0.0, pref=5e-324, seed=0)
    def test_invariants_hold_for_random_parameters(self, n, m, frac, pref, seed):
        g = generate_homophilous_graph(n, m, frac, pref, rng_seed=seed)
        assert g.node_count == n
        assert g.total_degree == 2 * g.edge_count
        # from_edges skips the BFS for generated graphs; verify here.
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.indices[g.indptr[u] : g.indptr[u + 1]]:
                if int(v) not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        assert len(seen) == n

    @pytest.mark.parametrize(
        "frac, pref, seeds",
        [(0.2, 0.8, 20), (0.3, 0.3, 20), (0.2, 1.0, 4), (0.2, 0.0, 4), (0.0, 0.8, 2), (1.0, 0.8, 2)],
    )
    def test_mixing_matches_mean_field_oracle(self, frac, pref, seeds):
        # Seed means of the minority's degree-mass share and the edge-type
        # shares. Over ten seed sets the largest gap was 0.0062 absolute
        # (finite n, the initial clique, the spread of group counts); a
        # generator that ignores ingroup_pref reads s_aa 0.640 against the
        # oracle's 0.763 at (0.2, 0.8).
        x_star, shares = mean_field_mixing(frac, pref)
        got = []
        for seed in range(seeds):
            g = generate_homophilous_graph(10000, 4, frac, pref, rng_seed=seed)
            pair = g.labels[g.edges].sum(axis=1)
            mass = g.degrees[g.labels == 1].sum() / g.total_degree
            got.append([mass, *np.bincount(pair, minlength=3) / g.edge_count])
        assert np.mean(got, axis=0) == pytest.approx([x_star, *shares.as_tuple()], abs=0.02)

    def test_oracle_extremes(self):
        # Full in-group preference keeps each group's degree mass to itself;
        # full cross-group preference gives every edge one endpoint in each.
        assert mean_field_mixing(0.2, 1.0)[0] == pytest.approx(0.2, abs=1e-12)
        assert mean_field_mixing(0.2, 0.0)[0] == pytest.approx(0.5, abs=1e-12)
        assert mean_field_mixing(0.2, 0.0)[1].ab == pytest.approx(1.0, abs=1e-12)

    def test_neutral_preference_gives_no_homophily(self):
        values = [
            ground_truth(generate_homophilous_graph(1000, 3, 0.5, 0.5, rng_seed=s)).homophily_a
            for s in range(50)
        ]
        assert abs(np.mean(values)) < 0.05

    def test_homophily_increases_with_preference(self):
        neutral = np.mean(
            [
                ground_truth(generate_homophilous_graph(1000, 3, 0.2, 0.5, rng_seed=s)).homophily_a
                for s in range(50)
            ]
        )
        preferring = np.mean(
            [
                ground_truth(generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=s)).homophily_a
                for s in range(50)
            ]
        )
        assert preferring > neutral

    def test_minority_homophily_band(self):
        # Exact enumeration over 50 generated graphs; the minority-group
        # Coleman index averages near 0.42 at these parameters. (The
        # majority-group index is higher, near 0.54.)
        h_b = [
            ground_truth(generate_homophilous_graph(1000, 3, 0.2, 0.8, rng_seed=s)).homophily_b
            for s in range(50)
        ]
        assert 0.37 < np.mean(h_b) < 0.47


def reference_preprocess(edge_records, label_records, directed_input=False):
    """Set-and-dict preprocessing, one record and one node at a time.

    Label records are ``(node id, group code)`` pairs; an id listed twice
    keeps its last code."""
    labels = {node: code for node, code in dict(label_records).items() if code != MISSING}
    if directed_input:
        directed = {(u, v) for u, v in edge_records}
        pairs = {(min(u, v), max(u, v)) for u, v in directed if u != v and (v, u) in directed}
    else:
        pairs = {(min(u, v), max(u, v)) for u, v in edge_records if u != v}
    kept = [(u, v) for u, v in pairs if u in labels and v in labels]
    if not kept:
        raise ValueError("empty graph after preprocessing")
    neighbors = {}
    for u, v in kept:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    best, unvisited = set(), set(neighbors)
    while unvisited:
        component, stack = set(), [min(unvisited)]
        while stack:
            node = stack.pop()
            if node not in component:
                component.add(node)
                stack.extend(neighbors[node])
        unvisited -= component
        if len(component) > len(best):
            best = component
    ordered = sorted(best)
    remap = {orig: i for i, orig in enumerate(ordered)}
    edges = sorted((remap[u], remap[v]) for u, v in kept if u in best)
    g = UndirectedGraph.from_edges(
        len(ordered), edges, [labels[orig] for orig in ordered], check_connected=False
    )
    return g, ordered


def preprocess(edges, labels, directed_input=False):
    """``load_and_preprocess`` on Python records, passed as the readers' arrays."""
    return load_and_preprocess(records_array(edges), records_array(labels), directed_input)


def own_records(g):
    """A graph's edges and labels as the records it would be read from."""
    return g.edges, np.column_stack([np.arange(g.node_count), g.labels])


class TestPreprocess:
    def test_mutualization_drops_unreciprocated(self):
        g = preprocess([(1, 2), (2, 1), (1, 3)], {1: "A", 2: "B", 3: "A"}, directed_input=True)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.id_map.tolist() == [1, 2]

    def test_largest_component_retained(self):
        g = preprocess([(1, 2), (2, 3), (4, 5)], {i: "A" if i % 2 else "B" for i in range(1, 6)})
        assert g.node_count == 3
        assert g.id_map.tolist() == [1, 2, 3]

    def test_unlabeled_nodes_dropped(self):
        g = preprocess([(0, 1), (1, 2), (2, 3)], {0: "A", 1: "B", 2: "NA", 3: "A"})
        assert g.node_count == 2
        assert g.id_map.tolist() == [0, 1]

    def test_self_loops_and_duplicates_dropped(self):
        g = preprocess([(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)], {0: "A", 1: "B", 2: "A"})
        assert g.edge_count == 2

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            preprocess([(0, 1)], {0: "NA", 1: "A"})
        with pytest.raises(ValueError):
            preprocess([(1, 2)], {1: "A", 2: "B"}, directed_input=True)
        # No edge records, or no label records, as the readers' empty array.
        empty = np.empty((0, 2), np.int64)
        for edges, labels in (
            (empty, records_array({1: "A"})),
            (records_array([(1, 2)]), empty),
            # Self loops only: no id is left to take a minimum of.
            (records_array([(3, 3)]), records_array({3: "A"})),
            (records_array([(3, 3), (-5, -5)]), empty),
        ):
            with pytest.raises(ValueError, match="^empty graph after preprocessing$"):
                load_and_preprocess(edges, labels)

    def test_malformed_records_raise(self):
        edges = records_array([(1, 2), (2, 3)])
        labels = records_array({1: "A", 2: "B", 3: "A"})
        malformed = [
            np.array([(1, 2, 3)]),  # (k, 3) records
            np.array([1, 2]),
            np.array([("x", 2)]),  # a string id or label
            np.array([(1, "A"), (2, "B")]),
            # A float is refused, not truncated, even when it equals an integer.
            np.array([(1.7, 2), (2, 3)]),
            np.array([(1.0, 2), (2, 3)]),
            np.array([(1, 2)], dtype=object),
            np.array([(1, 2)], dtype=np.uint64),  # no safe cast to int64
            # A bool is neither an id nor a group, though it casts to 0 or 1.
            np.array([(True, False)]),
        ]
        for bad in malformed:
            for records in ((bad, labels), (edges, bad)):
                with pytest.raises(ValueError, match="^malformed records: expected a"):
                    load_and_preprocess(*records)
        # Python records are refused; the readers' arrays are the only input.
        for records in (([(1, 2), (2, 3)], labels), (edges, {1: "A", 2: "B", 3: "A"})):
            with pytest.raises(ValueError, match="^malformed records: expected a"):
                load_and_preprocess(*records)
        for code in (-1, 3):
            bad = records_array({1: "A", 2: code, 3: "A"})
            with pytest.raises(ValueError, match="^malformed records: group code outside 0..2$"):
                load_and_preprocess(edges, bad)

    def test_group_tokens(self):
        # Codes 0 and 1 are groups A and B; code 2 (NA) marks a missing
        # label, as does an id without a label row.
        records = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        labels = {1: "A", 2: "B", 3: "NA", 4: 1, 5: 0, 6: MISSING}
        g = preprocess(records, labels)
        assert g.id_map.tolist() == [1, 2]
        assert g.labels.tolist() == [0, 1]
        g = preprocess(records[3:], labels)
        assert g.id_map.tolist() == [4, 5]
        assert g.labels.tolist() == [1, 0]
        # Narrower integer arrays give the same graph, with int64 ids.
        narrow = load_and_preprocess(
            records_array(records[3:]).astype(np.int32), records_array(labels).astype(np.uint8)
        )
        assert graphs_equal(narrow, g)
        assert narrow.id_map.dtype == np.int64

    def test_idempotent(self):
        g = preprocess(
            [(7, 3), (3, 9), (9, 7), (9, 12), (100, 200)],
            {3: "A", 7: "B", 9: "A", 12: "B", 100: "A", 200: "B"},
        )
        assert graphs_equal(g, load_and_preprocess(*own_records(g)))

    def test_equal_size_components_keep_lowest_original_id(self):
        # Two triangles; the one listed first has the higher ids.
        records = [(50, 51), (51, 52), (52, 50), (7, 30), (30, 9), (9, 7)]
        g = preprocess(records, {i: "A" for i in (7, 9, 30, 50, 51, 52)})
        assert g.id_map.tolist() == [7, 9, 30]

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)), max_size=60),
        labels=st.lists(
            st.tuples(st.integers(0, 25), st.sampled_from([0, 1, MISSING])), min_size=20, max_size=60
        ),
        spread=st.sampled_from([1, 7, 10**12, "inside", "past"]),
        place=st.sampled_from(["zero", "negative", "bottom", "top", "ends"]),
        directed=st.booleans(),
    )
    # Many label rows of one id, which an unstable sort reorders: the last
    # row's code still wins.
    @example(
        edges=[(0, 1), (1, 2), (2, 0)],
        labels=[(0, 0), (2, 1)] + [(1, (0, MISSING)[i % 2]) for i in range(40)] + [(1, 1)],
        spread=1,
        place="zero",
        directed=False,
    )
    def test_matches_reference(self, edges, labels, spread, place, directed):
        # Spread ids apart so dense re-indexing is exercised on sparse ids,
        # and place them anywhere in int64; "ends" splits them between its
        # two ends, whose span an int64 would wrap. "inside" and "past" pick
        # the spread that puts the span of the non-loop ids just inside or
        # just past the presence table's bound of two slots per endpoint.
        # Label rows may skip an id or list it more than once.
        if spread in ("inside", "past"):
            used = [x for u, v in edges if u != v for x in (u, v)]
            width = max(used) - min(used) if used else 0
            spread = max(1, (2 * len(used) - 1) // width + (spread == "past")) if width else 1
        lowest, highest = -(2**63), 2**63 - 1
        place_id = {
            "zero": lambda n: n * spread,
            "negative": lambda n: (n - 13) * spread,
            "bottom": lambda n: lowest + n * spread,
            "top": lambda n: highest - (25 - n) * spread,
            "ends": lambda n: lowest + n * spread if n < 13 else highest - (25 - n) * spread,
        }[place]
        edges = [(place_id(u), place_id(v)) for u, v in edges]
        labels = [(place_id(node), code) for node, code in labels]
        try:
            want, ordered = reference_preprocess(edges, labels, directed)
        except ValueError:
            with pytest.raises(ValueError):
                preprocess(edges, labels, directed_input=directed)
            return
        got = preprocess(edges, labels, directed_input=directed)
        assert graphs_equal(got, want)
        assert got.id_map.tolist() == ordered

    @pytest.mark.parametrize("shape", ["path", "binary_tree", "many_triangles", "tied_paths"])
    def test_adversarial_shapes_match_reference(self, shape):
        # Shapes that need many hooking rounds or many components, with
        # shuffled ids so that no round can follow the id order.
        rng = np.random.default_rng(5)
        if shape == "path":
            n = 3000
            edges = [(i, i + 1) for i in range(n - 1)]
        elif shape == "binary_tree":
            n = 4095
            edges = [((i - 1) // 2, i) for i in range(1, n)]
        elif shape == "many_triangles":
            n = 3 * 2000
            edges = [(t + a, t + b) for t in range(0, n, 3) for a, b in ((0, 1), (1, 2), (2, 0))]
        else:
            # Three equal paths and one shorter one; the largest size is tied.
            n = 4 * 500
            edges = [(p + i, p + i + 1) for p in range(0, n, 500) for i in range(499 - (p == 0))]
        ids = rng.permutation(10 * n)[:n] + 1  # sparse, shuffled original ids
        records = [(int(ids[u]), int(ids[v])) for u, v in edges]
        rng.shuffle(records)
        labels = [(int(i), int(i) % 2) for i in ids]
        want, ordered = reference_preprocess(records, labels)
        got = preprocess(records, labels)
        assert graphs_equal(got, want)
        assert got.id_map.tolist() == ordered
        if shape == "tied_paths":
            # Of the three tied paths, the one holding the lowest id is kept.
            tied = [ids[p : p + 500] for p in range(500, n, 500)]
            assert ordered[0] == min(int(part.min()) for part in tied)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40))
    def test_idempotent_property(self, edges):
        labels = {i: "A" if i % 3 else "B" for i in range(16)}
        try:
            g = preprocess(edges, labels)
        except ValueError:
            return
        assert graphs_equal(g, load_and_preprocess(*own_records(g)))


class TestFiles:
    def test_round_trip(self, tmp_path):
        g = generate_homophilous_graph(60, 2, 0.3, 0.7, rng_seed=4)
        edge_path = tmp_path / "g.edges"
        label_path = tmp_path / "g.labels"
        write_edge_list(g, edge_path)
        write_label_file(g, label_path)
        loaded = load_graph_files(edge_path, label_path)
        assert graphs_equal(g, loaded)

    def test_writers_exact_text(self, tmp_path):
        # The three writers' bytes: header lines, separators and tokens.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        g = UndirectedGraph.from_edges(4, edges, [0, 1, 1, 0])
        write_edge_list(g, tmp_path / "g.edges")
        write_label_file(g, tmp_path / "g.labels")
        assert (tmp_path / "g.edges").read_bytes() == b"# src dst\n0 1\n0 2\n0 3\n1 2\n2 3\n"
        assert (tmp_path / "g.labels").read_bytes() == b"0\tA\n1\tB\n2\tB\n3\tA\n"
        # Every node once, in id order; records name nodes by any int64 id.
        sample = node_sample(g, 4, rng_seed=0)
        sample = sample.take(np.argsort(sample.nodes))
        noisy = with_noisy_labels(sample, [1, 1, 0, 0])
        sample = dataclasses.replace(sample, nodes=np.array([100, 7, 2**63 - 1, -(2**63)]))
        header = b"# node_id degree true_label noisy_label step_index\n"
        write_sample_records(sample, tmp_path / "noisy.txt", noisy)
        assert (tmp_path / "noisy.txt").read_bytes() == header + (
            b"100 3 A B 0\n7 2 B B 1\n"
            b"9223372036854775807 3 B A 2\n-9223372036854775808 2 A A 3\n"
        )
        write_sample_records(sample, tmp_path / "plain.txt")
        assert (tmp_path / "plain.txt").read_bytes() == header + (
            b"100 3 A NA 0\n7 2 B NA 1\n"
            b"9223372036854775807 3 B NA 2\n-9223372036854775808 2 A NA 3\n"
        )

    def test_comments_and_na_tokens(self, tmp_path):
        edge_path = tmp_path / "e.txt"
        edge_path.write_text("# header\n1 2\n2 3\n")
        label_path = tmp_path / "l.txt"
        label_path.write_text("1\tA\n2\tB\n3\tNA\n")
        edges = read_edge_list(edge_path)
        labels = read_label_file(label_path)
        # Both readers return (k, 2) int64 rows; a group token becomes its code.
        assert edges.dtype == labels.dtype == np.int64
        assert edges.tolist() == [[1, 2], [2, 3]]
        assert labels.tolist() == [[1, 0], [2, 1], [3, MISSING]]
        g = load_and_preprocess(edges, labels)
        assert g.node_count == 2

    def test_bad_lines_raise(self, tmp_path):
        # Each message names the file and the line, counting comments and
        # blank lines.
        cases = [
            (read_edge_list, "1 2 3\n", ":1: expected two node ids"),
            (read_edge_list, "# ids\n\n1 2\n3\n", ":4: expected two node ids"),
            (read_edge_list, "1 2\n1 x\n", ":2: non-integer node id"),
            (read_edge_list, "5\n6\n", ":1: expected two node ids"),
            (read_edge_list, "1 2 3\n4 5 6\n", ":1: expected two node ids"),
            (read_edge_list, "1 2\n99999999999999999999 1\n", ":2: node id outside int64"),
            (read_label_file, "1\tC\n", ":1: unknown group token 'C'"),
            (read_label_file, "1\tA\n2\tB\tA\n", ":2: expected node id and group"),
            (read_label_file, "# ids\nx\tA\n", ":2: non-integer node id"),
            (read_label_file, "1\tA\n99999999999999999999\tB\n", ":2: node id outside int64"),
            (read_label_file, "-9223372036854775809\tNA\n", ":1: node id outside int64"),
        ]
        path = tmp_path / "bad.txt"
        for reader, text, message in cases:
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                reader(path)
            assert str(exc.value) == f"{path}{message}"

    def test_label_id_outside_int64_refused_on_load(self, tmp_path):
        # Loading names the label file's line, as reading it does, and the
        # int64 bounds themselves are ids.
        edge_path = tmp_path / "e.txt"
        edge_path.write_text("1 2\n2 3\n")
        label_path = tmp_path / "l.txt"
        label_path.write_text("1\tA\n2\tB\n# big\n99999999999999999999\tA\n3\tA\n")
        with pytest.raises(ValueError) as exc:
            load_graph_files(edge_path, label_path)
        assert str(exc.value) == f"{label_path}:4: node id outside int64"
        label_path.write_text("1\tA\n2\tB\n9223372036854775807\tA\n-9223372036854775808\tB\n3\tA\n")
        labels = read_label_file(label_path)
        assert labels[2:4].tolist() == [[2**63 - 1, 0], [-(2**63), 1]]
        assert np.array_equal(_read_by_line(label_path, labels=True), labels)
        assert load_graph_files(edge_path, label_path).node_count == 3

    def test_inline_comments(self, tmp_path):
        # Everything from the first '#' on is a comment, in both files.
        edge_path = tmp_path / "e.txt"
        edge_path.write_text("1 2 # first\n2 3#second\n#\n")
        label_path = tmp_path / "l.txt"
        label_path.write_text("1\tA # A\n2\tB#\n3\tA\n")
        assert read_edge_list(edge_path).tolist() == [[1, 2], [2, 3]]
        assert read_label_file(label_path).tolist() == [[1, 0], [2, 1], [3, 0]]

    def test_no_data_lines(self, tmp_path):
        path = tmp_path / "e.txt"
        for text in ("", "# header\n", "\n# a\n\n"):
            path.write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                edges = read_edge_list(path)
            assert not caught
            assert edges.shape == (0, 2)
            assert edges.dtype == np.int64

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_read_once(self, tmp_path):
        # A pipe is consumed by its first reader, so that reader must name
        # a bad line; a second open would wait for a writer.
        path = tmp_path / "edges.fifo"
        os.mkfifo(path)
        bad = f"{path}:2: non-integer node id"
        cases = (
            (read_edge_list, "1 2\n3 4\n", [[1, 2], [3, 4]]),
            (read_edge_list, "1 2\n3 x\n", bad),
            (read_label_file, "1 A\n3 B\n", [[1, 0], [3, 1]]),
            (read_label_file, "1 A\nx B\n", bad),
        )
        for read_file, text, want in cases:
            got = []

            def read():
                try:
                    result = read_file(path)
                    got.append(result.tolist())
                except ValueError as exc:
                    got.append(str(exc))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            path.write_text(text)
            reader.join(timeout=10)
            if reader.is_alive():
                path.write_text("")  # release a reader waiting on a second open
                reader.join(timeout=10)
            assert got == [want]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", " ", "\t"]),
                st.lists(NODE_IDS, max_size=3),
                st.sampled_from([" ", "\t", "  ", " \t"]),
                st.sampled_from(["", " # c", "#c", "# 1 2", " #"]),
                st.sampled_from(["\n", "\r\n"]),
            ),
            max_size=6,
        )
    )
    def test_reader_matches_line_parser(self, lines):
        # numpy's parser and the line parser accept one grammar: on any
        # file both raise the same message or return equal arrays.
        text = "".join(lead + sep.join(ids) + comment + end for lead, ids, sep, comment, end in lines)

        def outcome(reader, path):
            try:
                got = reader(path)
            except ValueError as exc:
                return str(exc)
            assert got.dtype == np.int64 and got.shape[1:] == (2,)
            return got.tolist()

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edges.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert outcome(read_edge_list, path) == outcome(_read_by_line, path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", " ", "\t"]),
                st.tuples(NODE_IDS, LABEL_TOKENS).map(list) | st.lists(NODE_IDS | LABEL_TOKENS, max_size=3),
                st.sampled_from([" ", "\t", "  ", " \t"]),
                st.sampled_from(["", " # c", "#c", "# 1 A", " #"]),
                st.sampled_from(["\n", "\r\n"]),
            ),
            max_size=6,
        )
    )
    def test_label_reader_matches_line_parser(self, lines):
        # Label files too: on any file numpy's parser and the line parser
        # raise the same message or return equal arrays.
        text = "".join(lead + sep.join(fields) + comment + end for lead, fields, sep, comment, end in lines)

        def outcome(reader, path):
            try:
                got = reader(path)
            except ValueError as exc:
                return str(exc)
            assert got.dtype == np.int64 and got.shape[1:] == (2,)
            return got.tolist()

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "labels.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            line_parser = outcome(lambda path: _read_by_line(path, labels=True), path)
            assert outcome(read_label_file, path) == line_parser

    def test_label_duplicate_ids_keep_last(self, tmp_path, monkeypatch):
        # The readers return every label row; loading gives an id listed
        # more than once its last group, on numpy's path and the line
        # parser's alike. Node 4's last row is NA, so node 4 is dropped.
        edge_path = tmp_path / "edges.txt"
        edge_path.write_text("1 2\n2 3\n3 1\n3 4\n")
        label_path = tmp_path / "labels.txt"
        label_path.write_text("1\tA\n2\tB\n3\tA\n4\tB\n1\tB\n2\tNA\n4\tNA\n2\tA\n")
        rows = [[1, 0], [2, 1], [3, 0], [4, 1], [1, 1], [2, MISSING], [4, MISSING], [2, 0]]

        def refuse(*args, **kwargs):
            pytest.fail("the reader took the other path")

        for path_taken in ("numpy", "line parser"):
            with monkeypatch.context() as patch:
                if path_taken == "numpy":
                    patch.setattr(graph, "_read_by_line", refuse)
                else:
                    patch.setattr(graph, "_loadtxt", lambda path, **kwargs: None)
                assert read_label_file(label_path).tolist() == rows
                g = load_graph_files(edge_path, label_path)
            assert g.id_map.tolist() == [1, 2, 3]
            assert g.labels.tolist() == [1, 0, 0]
