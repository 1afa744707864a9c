"""Two-group undirected graphs: synthetic generation, file ingestion and
preprocessing, and exact whole-graph measures by full enumeration. Graphs
keep neighbours in CSR arrays, and one breadth-first wave (``_wave``)
serves snowball sampling, the connectivity check and component extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .quantify import EdgeVector, PropVector, coleman_homophily, ingroup_share

MISSING_LABEL = "NA"


class Group(IntEnum):
    """Node group; by convention group B is the minority."""

    A = 0
    B = 1


def parse_group(token: str) -> int | None:
    """Map a label-file token to a group int, or None for the missing marker."""
    if token == "A":
        return int(Group.A)
    if token == "B":
        return int(Group.B)
    if token == MISSING_LABEL:
        return None
    raise ValueError(f"unknown group token {token!r}")


def group_token(value: int) -> str:
    return "B" if value == 1 else "A"


@dataclass
class UndirectedGraph:
    """Simple connected graph over dense node ids 0..N-1 with group labels.

    Neighbours are stored in CSR form: the neighbours of node u are
    ``indices[indptr[u]:indptr[u + 1]]``, in ascending id order.
    Construction enforces the structural invariants: no self loops or
    duplicate edges, every node incident to at least one edge, and (when
    checked) a single connected component. Instances are treated as
    immutable after construction and are safe to share across workers.
    """

    labels: np.ndarray  # int8 group per node
    edges: np.ndarray  # (E, 2) int64, each undirected edge once with src < dst
    indptr: np.ndarray  # (N + 1,) int64 offsets into indices
    indices: np.ndarray  # (2E,) int64 neighbour ids, ascending per node
    degrees: np.ndarray
    id_map: np.ndarray | None = None  # dense id -> original id, when remapped

    @property
    def node_count(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @property
    def total_degree(self) -> int:
        return int(self.degrees.sum())

    @property
    def mean_degree(self) -> float:
        return self.total_degree / self.node_count

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.indices[self.indptr[u] : self.indptr[u + 1]]
        k = int(np.searchsorted(nbrs, v))
        return k < nbrs.shape[0] and nbrs[k] == v

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges,
        labels,
        id_map: np.ndarray | None = None,
        check_connected: bool = True,
    ) -> "UndirectedGraph":
        if node_count < 2:
            raise ValueError("graph needs at least two nodes")
        edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edge_arr.shape[0] == 0:
            raise ValueError("graph has no edges")
        if edge_arr.min() < 0 or edge_arr.max() >= node_count:
            raise ValueError("edge endpoint outside 0..N-1")
        label_arr = np.asarray(labels, dtype=np.int8)
        if label_arr.shape != (node_count,):
            raise ValueError("labels must give one group per node")
        if label_arr.min() < 0 or label_arr.max() > 1:
            raise ValueError("labels must be 0 or 1")

        keys = np.sort(edge_arr.min(axis=1) * node_count + edge_arr.max(axis=1))
        lo, hi = np.divmod(keys, node_count)
        if (lo == hi).any():
            raise ValueError("self loops are not allowed")
        if (np.diff(keys) == 0).any():
            raise ValueError("duplicate edges are not allowed")

        indptr, indices = _csr(node_count, lo, hi)
        degrees = np.diff(indptr)
        if (degrees == 0).any():
            raise ValueError("every node must be incident to at least one edge")
        if check_connected and not _connected(indptr, indices):
            raise ValueError("graph must be a single connected component")
        return cls(
            labels=label_arr,
            edges=np.column_stack([lo, hi]),
            indptr=indptr,
            indices=indices,
            degrees=degrees,
            id_map=id_map,
        )


def _csr(node_count: int, lo: np.ndarray, hi: np.ndarray):
    """CSR ``(indptr, indices)`` of the edges ``lo[i]-hi[i]``, neighbours
    ascending, from one stable argsort of the half-edge keys."""
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst[np.argsort(src * node_count + dst, kind="stable")]


def _wave(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, visited: np.ndarray):
    """One breadth-first wave: the unvisited neighbours of ``frontier``.

    They come in frontier order, each node's neighbours ascending, and a
    node reached twice belongs to its first discoverer. Returns the new
    nodes, now marked visited, and the frontier position of each one's
    discoverer.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    offsets = np.cumsum(counts) - counts  # where each node's neighbours land in slots
    slots = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    nbrs = indices[slots]
    fresh = ~visited[nbrs]
    nbrs = nbrs[fresh]
    first = np.sort(np.unique(nbrs, return_index=True)[1])
    visited[nbrs[first]] = True
    return nbrs[first], np.repeat(np.arange(frontier.shape[0]), counts)[fresh][first]


def _component(indptr: np.ndarray, indices: np.ndarray, start: int, visited: np.ndarray):
    """Nodes reachable from ``start``, wave by wave; all end up visited."""
    visited[start] = True
    waves = [np.array([start], dtype=np.int64)]
    while waves[-1].shape[0]:
        waves.append(_wave(indptr, indices, waves[-1], visited)[0])
    return np.concatenate(waves)


def _connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    visited = np.zeros(indptr.shape[0] - 1, dtype=bool)
    return _component(indptr, indices, 0, visited).shape[0] == visited.shape[0]


def graphs_equal(g1: UndirectedGraph, g2: UndirectedGraph) -> bool:
    return (
        g1.node_count == g2.node_count
        and np.array_equal(g1.labels, g2.labels)
        and np.array_equal(g1.edges, g2.edges)
    )


def generate_homophilous_graph(
    n: int, m: int, minority_frac: float, ingroup_pref: float, rng_seed=None
) -> UndirectedGraph:
    """Grow a two-group power-law graph with tunable group mixing.

    Growth starts from an m-clique of alternating groups. Each new node
    draws its group with probability ``minority_frac``, then attaches to
    m distinct existing nodes chosen with probability proportional to
    degree times a mixing weight: ``ingroup_pref`` for a same-group
    target, ``1 - ingroup_pref`` otherwise. Targets within one step are
    sampled without replacement (by rejection); if every candidate has
    zero weight, or the weighted pool cannot supply m distinct targets,
    the remaining slots are filled uniformly so growth stays total at the
    preference extremes. The result is connected by construction.
    """
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if not 0.0 <= minority_frac <= 1.0:
        raise ValueError(f"minority_frac must lie in [0, 1], got {minority_frac}")
    if not 0.0 <= ingroup_pref <= 1.0:
        raise ValueError(f"ingroup_pref must lie in [0, 1], got {ingroup_pref}")

    rng = np.random.default_rng(rng_seed)
    labels = np.empty(n, dtype=np.int8)
    labels[:m] = np.arange(m) % 2
    labels[m:] = (rng.random(n - m) < minority_frac).astype(np.int8)
    label_of = labels.tolist()

    # Node id repeated once per unit of degree, split by group; list length
    # doubles as the group's total degree mass.
    rep: tuple[list[int], list[int]] = ([], [])
    src: list[int] = []
    dst: list[int] = []
    for i in range(m):
        for j in range(i + 1, m):
            src.append(i)
            dst.append(j)
            rep[label_of[i]].append(i)
            rep[label_of[j]].append(j)

    draw = rng.random
    buf = draw(16384).tolist()
    buf_at = 0
    rep_a, rep_b = rep
    w_same = ingroup_pref
    w_cross = 1.0 - ingroup_pref
    for v in range(m, n):
        gv = label_of[v]
        wa = (w_same if gv == 0 else w_cross) * len(rep_a)
        wb = (w_same if gv == 1 else w_cross) * len(rep_b)
        total = wa + wb
        targets: set[int] = set()
        tries = 60 * m + 60  # rejection cap before the uniform fallback
        while len(targets) < m and total > 0.0 and tries:
            if buf_at + 2 > 16384:
                buf = draw(16384).tolist()
                buf_at = 0
            # A pool with zero mass is never picked, even when rounding
            # pushes the draw to the boundary (denormal weights).
            pool = rep_a if wb == 0.0 or buf[buf_at] * total < wa else rep_b
            u = pool[int(buf[buf_at + 1] * len(pool))]
            buf_at += 2
            if u not in targets:
                targets.add(u)
            tries -= 1
        if len(targets) < m:
            rest = [u for u in range(v) if u not in targets]
            picked = rng.choice(len(rest), size=m - len(targets), replace=False)
            targets.update(rest[int(i)] for i in picked)
        for u in sorted(targets):
            src.append(v)
            dst.append(u)
            rep[label_of[u]].append(u)
        rep[gv].extend([v] * m)

    edges = np.column_stack([np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)])
    # Growth attaches every new node to existing ones, so connectivity holds
    # by construction and the BFS check is skipped.
    return UndirectedGraph.from_edges(n, edges, labels, check_connected=False)


def _normalize_label(raw) -> int | None:
    if raw is None:
        return None
    if isinstance(raw, (int, np.integer)):
        value = int(raw)
        if value not in (0, 1):
            raise ValueError(f"integer labels must be 0 or 1, got {value}")
        return value
    return parse_group(str(raw))


def load_and_preprocess(
    edge_records, label_records, directed_input: bool = False
) -> UndirectedGraph:
    """Build a clean undirected graph from raw edge and label records.

    Directed inputs keep only reciprocated pairs. Self loops, duplicate
    edges, and edges touching unlabeled nodes are dropped; the largest
    connected component survives; node ids are remapped to a dense
    0..N-1 range in ascending original-id order, with the originals kept
    in ``id_map``. Preprocessing its own output is a no-op.
    """
    labels: dict[int, int] = {}
    for node, raw in label_records.items():
        value = _normalize_label(raw)
        if value is not None:
            labels[int(node)] = value

    try:
        pairs = np.array(list(edge_records), dtype=np.int64)
        labelled_ids = np.fromiter(labels, dtype=np.int64, count=len(labels))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed records: {exc}") from exc
    if pairs.size and pairs.shape[1:] != (2,):
        raise ValueError("malformed edge records: expected (u, v) integer pairs")
    pairs = pairs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    # Dense ids 0..K-1 rise with the original ids, so pair keys lo*K + hi
    # cannot overflow and sort like the original pairs.
    ids, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(-1, 2)
    k = ids.shape[0]
    keys = dense.min(axis=1) * k + dense.max(axis=1)
    if directed_input:
        keys = 2 * keys + (dense[:, 0] > dense[:, 1])  # tag the direction
    # Sorting drops repeats tens of times faster than numpy's hash-based
    # np.unique does on arrays this large.
    keys = np.sort(keys)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    if directed_input:
        # A pair is reciprocated when both of its directions remain.
        keys = keys[1:][keys[1:] // 2 == keys[:-1] // 2] // 2
    lo, hi = np.divmod(keys, k)
    labelled = np.isin(ids, labelled_ids)
    keep = labelled[lo] & labelled[hi]
    if not keep.any():
        raise ValueError("empty graph after preprocessing")
    lo, hi = lo[keep], hi[keep]

    # Scanning from the lowest id and replacing the best component only by
    # a strictly larger one keeps, among equal sizes, the lowest-id one.
    indptr, indices = _csr(k, lo, hi)
    visited = indptr[1:] == indptr[:-1]  # ids without a kept edge
    best = np.empty(0, dtype=np.int64)
    for start in range(k):
        if not visited[start]:
            component = _component(indptr, indices, start, visited)
            if component.shape[0] > best.shape[0]:
                best = component

    members = np.sort(best)
    new_id = np.full(k, -1, dtype=np.int64)
    new_id[members] = np.arange(members.shape[0])
    inside = new_id[lo] >= 0
    edge_arr = np.column_stack([new_id[lo[inside]], new_id[hi[inside]]])
    id_map = ids[members]
    label_arr = [labels[orig] for orig in id_map.tolist()]
    return UndirectedGraph.from_edges(
        members.shape[0], edge_arr, label_arr, id_map=id_map, check_connected=False
    )


def top_quantile_indices(degrees, quantile: float, node_ids=None, minimum: int = 0) -> np.ndarray:
    """Indices of the top-quantile records by degree.

    The cutoff keeps floor(count * quantile) records, at least
    ``minimum``; everything strictly above the cutoff degree enters
    first, and ties at the cutoff fill the remaining slots in ascending
    node-id order so the selection is deterministic.
    """
    deg = np.asarray(degrees, dtype=np.int64)
    count = max(int(minimum), int(deg.shape[0] * quantile))
    if count < 1:
        raise ValueError("quantile selects no records")
    ids = np.arange(deg.shape[0]) if node_ids is None else np.asarray(node_ids)
    order = np.lexsort((ids, -deg))
    return order[:count]


@dataclass(frozen=True)
class GroundTruth:
    """Exact population measures of a labeled graph."""

    p: PropVector
    s: EdgeVector
    visibility_b: float
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
    """Population measures by full enumeration of nodes and edges.

    Homophily for a group is None when that group is empty or is the
    whole population, where the index is undefined.
    """
    p_b = float(np.count_nonzero(g.labels)) / g.node_count
    p = PropVector(1.0 - p_b, p_b, role="true_p")

    pair = g.labels[g.edges[:, 0]].astype(np.int64) + g.labels[g.edges[:, 1]]
    e = g.edge_count
    s = EdgeVector(
        float(np.count_nonzero(pair == 0)) / e,
        float(np.count_nonzero(pair == 1)) / e,
        float(np.count_nonzero(pair == 2)) / e,
        role="true_s",
    )

    # Population visibility always exists: on very small graphs the top
    # quantile clamps to the single highest-degree node.
    top = top_quantile_indices(g.degrees, top_quantile, minimum=1)
    visibility_b = float(np.count_nonzero(g.labels[top])) / top.shape[0]

    def h_for(p_g: float, group: int) -> float | None:
        if p_g <= 0.0 or p_g >= 1.0:
            return None
        return coleman_homophily(ingroup_share(s, group), p_g, group).value

    return GroundTruth(
        p=p,
        s=s,
        visibility_b=visibility_b,
        homophily_a=h_for(p.a, 0),
        homophily_b=h_for(p.b, 1),
    )


def read_edge_list(path) -> list[tuple[int, int]]:
    """Edge file: two whitespace-separated integer ids per line, '#' comments."""
    out: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids")
            try:
                out.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
    return out


def read_label_file(path) -> dict[int, str]:
    """Label file: ``node_id<TAB>group`` per line, group A, B, or NA."""
    out: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected node id and group")
            token = parts[1]
            if token not in ("A", "B", MISSING_LABEL):
                raise ValueError(f"{path}:{lineno}: unknown group token {token!r}")
            try:
                out[int(parts[0])] = token
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
    return out


def load_graph_files(edge_path, label_path, directed: bool = False) -> UndirectedGraph:
    return load_and_preprocess(
        read_edge_list(edge_path), read_label_file(label_path), directed_input=directed
    )


def write_edge_list(g: UndirectedGraph, path) -> None:
    """Write dense-id edges, one per line, compatible with read_edge_list."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# src dst\n")
        for u, v in g.edges:
            fh.write(f"{int(u)} {int(v)}\n")


def write_label_file(g: UndirectedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for node in range(g.node_count):
            fh.write(f"{node}\t{group_token(int(g.labels[node]))}\n")
