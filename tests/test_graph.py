"""Graph construction, generation, preprocessing, and exact measures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphquant.graph import (
    Group,
    UndirectedGraph,
    generate_homophilous_graph,
    graphs_equal,
    ground_truth,
    load_and_preprocess,
    load_graph_files,
    parse_group,
    read_edge_list,
    read_label_file,
    top_quantile_indices,
    write_edge_list,
    write_label_file,
)


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

    def test_rejects_isolated_node(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(3, [(0, 1)], [0, 1, 0])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(4, [(0, 1), (2, 3)], [0, 1, 0, 1])

    def test_adjacency_symmetric_and_sorted(self):
        g = UndirectedGraph.from_edges(4, [(2, 0), (1, 0), (3, 1), (2, 1)], [0, 0, 1, 1])
        for u in range(4):
            nbrs = g.indices[g.indptr[u] : g.indptr[u + 1]]
            assert np.array_equal(nbrs, np.sort(nbrs))
            for v in nbrs:
                assert g.has_edge(int(v), u)
        assert g.total_degree == 2 * g.edge_count


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


class TestTopQuantile:
    def test_tie_break_by_ascending_id(self):
        degrees = [5, 3, 3, 3, 1]
        picked = top_quantile_indices(degrees, 0.6)
        assert sorted(picked.tolist()) == [0, 1, 2]

    def test_strictly_higher_degrees_enter_first(self):
        degrees = [1, 9, 2, 9, 3]
        picked = top_quantile_indices(degrees, 0.4)
        assert sorted(picked.tolist()) == [1, 3]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            top_quantile_indices([3, 2, 1], 0.2)


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
    """Set-and-dict preprocessing, one record and one node at a time."""
    labels = {}
    for node, raw in label_records.items():
        if raw is not None and raw != "NA":
            labels[int(node)] = raw if isinstance(raw, int) else "AB".index(raw)
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


class TestPreprocess:
    def test_mutualization_drops_unreciprocated(self):
        g = load_and_preprocess(
            [(1, 2), (2, 1), (1, 3)], {1: "A", 2: "B", 3: "A"}, directed_input=True
        )
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.id_map.tolist() == [1, 2]

    def test_largest_component_retained(self):
        g = load_and_preprocess(
            [(1, 2), (2, 3), (4, 5)], {i: "A" if i % 2 else "B" for i in range(1, 6)}
        )
        assert g.node_count == 3
        assert g.id_map.tolist() == [1, 2, 3]

    def test_unlabeled_nodes_dropped(self):
        g = load_and_preprocess(
            [(0, 1), (1, 2), (2, 3)], {0: "A", 1: "B", 2: "NA", 3: "A"}
        )
        assert g.node_count == 2
        assert g.id_map.tolist() == [0, 1]

    def test_self_loops_and_duplicates_dropped(self):
        g = load_and_preprocess(
            [(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)], {0: "A", 1: "B", 2: "A"}
        )
        assert g.edge_count == 2

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            load_and_preprocess([(0, 1)], {0: "NA", 1: "A"})
        with pytest.raises(ValueError):
            load_and_preprocess([(1, 2)], {1: "A", 2: "B"}, directed_input=True)

    def test_malformed_records_raise(self):
        with pytest.raises(ValueError):
            load_and_preprocess([(1, 2, 3)], {1: "A", 2: "B"})
        with pytest.raises(ValueError):
            load_and_preprocess([("x", 2)], {2: "B"})

    def test_idempotent(self):
        g = load_and_preprocess(
            [(7, 3), (3, 9), (9, 7), (9, 12), (100, 200)],
            {3: "A", 7: "B", 9: "A", 12: "B", 100: "A", 200: "B"},
        )
        again = load_and_preprocess(
            [tuple(e) for e in g.edges], {i: int(g.labels[i]) for i in range(g.node_count)}
        )
        assert graphs_equal(g, again)

    def test_equal_size_components_keep_lowest_original_id(self):
        # Two triangles; the one listed first has the higher ids.
        records = [(50, 51), (51, 52), (52, 50), (7, 30), (30, 9), (9, 7)]
        g = load_and_preprocess(records, {i: "A" for i in (7, 9, 30, 50, 51, 52)})
        assert g.id_map.tolist() == [7, 9, 30]

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)), max_size=60),
        tokens=st.lists(st.sampled_from(["A", "B", "NA", 0, 1, None]), min_size=26, max_size=26),
        spread=st.sampled_from([1, 7, 10**12]),
        directed=st.booleans(),
    )
    def test_matches_reference(self, edges, tokens, spread, directed):
        # Spread ids apart so dense re-indexing is exercised on sparse ids.
        edges = [(u * spread, v * spread) for u, v in edges]
        labels = {i * spread: token for i, token in enumerate(tokens)}
        try:
            want, ordered = reference_preprocess(edges, labels, directed)
        except ValueError:
            with pytest.raises(ValueError):
                load_and_preprocess(edges, labels, directed_input=directed)
            return
        got = load_and_preprocess(edges, labels, directed_input=directed)
        assert graphs_equal(got, want)
        assert got.id_map.tolist() == ordered

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40))
    def test_idempotent_property(self, edges):
        labels = {i: "A" if i % 3 else "B" for i in range(16)}
        try:
            g = load_and_preprocess(edges, labels)
        except ValueError:
            return
        again = load_and_preprocess(
            [tuple(e) for e in g.edges], {i: int(g.labels[i]) for i in range(g.node_count)}
        )
        assert graphs_equal(g, again)


class TestFiles:
    def test_round_trip(self, tmp_path):
        g = generate_homophilous_graph(60, 2, 0.3, 0.7, rng_seed=4)
        edge_path = tmp_path / "g.edges"
        label_path = tmp_path / "g.labels"
        write_edge_list(g, edge_path)
        write_label_file(g, label_path)
        loaded = load_graph_files(edge_path, label_path)
        assert graphs_equal(g, loaded)

    def test_comments_and_na_tokens(self, tmp_path):
        edge_path = tmp_path / "e.txt"
        edge_path.write_text("# header\n1 2\n2 3\n")
        label_path = tmp_path / "l.txt"
        label_path.write_text("1\tA\n2\tB\n3\tNA\n")
        edges = read_edge_list(edge_path)
        labels = read_label_file(label_path)
        assert edges == [(1, 2), (2, 3)]
        assert labels == {1: "A", 2: "B", 3: "NA"}
        g = load_and_preprocess(edges, labels)
        assert g.node_count == 2

    def test_bad_lines_raise(self, tmp_path):
        bad_edges = tmp_path / "bad.edges"
        bad_edges.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_edge_list(bad_edges)
        bad_labels = tmp_path / "bad.labels"
        bad_labels.write_text("1\tC\n")
        with pytest.raises(ValueError):
            read_label_file(bad_labels)

    def test_parse_group_tokens(self):
        assert parse_group("A") == Group.A
        assert parse_group("B") == Group.B
        assert parse_group("NA") is None
        with pytest.raises(ValueError):
            parse_group("Q")
