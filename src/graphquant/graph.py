"""Two-group undirected graphs: structure, synthetic generation, and file
ingestion and preprocessing. Graphs keep neighbours in CSR arrays and
groups as int8 codes. One token table (``GROUP_TOKENS``) serves the
label-file reader and both writers. Both readers return one record
shape, a ``(k, 2)`` int64 array: ``(u, v)`` rows for edge files and
``(node id, group code)`` rows for label files. numpy's parser reads
both files, and one line parser that names the first bad line reads any
file it refuses. Preprocessing takes these arrays only. One component
labelling (``_components``) serves both the connectivity check and the
largest-component cut of preprocessing; it works on the edge list, so no
traversal is needed.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Label-file tokens by group code: 0 is A, 1 is B (by convention the
# minority) and MISSING is NA.
GROUP_TOKENS = ("A", "B", "NA")
MISSING = 2
_GROUP_CODES = {token: code for code, token in enumerate(GROUP_TOKENS)}
_INT64 = np.iinfo(np.int64)


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
        # Values are checked as given, so no cast can change them first.
        edge_arr = np.asarray(edges)
        if edge_arr.size == 0:
            raise ValueError("graph has no edges")
        if edge_arr.dtype.kind not in "iu":
            raise ValueError("edge endpoints must be integers")
        if edge_arr.min() < 0 or edge_arr.max() >= node_count:
            raise ValueError("edge endpoint outside 0..N-1")
        edge_arr = edge_arr.astype(np.int64, copy=False).reshape(-1, 2)
        label_arr = np.asarray(labels)
        if label_arr.shape != (node_count,):
            raise ValueError("labels must give one group per node")
        if not np.isin(label_arr, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        label_arr = label_arr.astype(np.int8, copy=False)

        u, v = edge_arr[:, 0], edge_arr[:, 1]
        if (u == v).any():
            raise ValueError("self loops are not allowed")
        # One sort of the half-edge keys src*N + dst orders the CSR, neighbours
        # ascending. An edge given twice, in either direction, repeats its keys.
        keys = np.concatenate([u * node_count + v, v * node_count + u])
        keys.sort()
        if (np.diff(keys) == 0).any():
            raise ValueError("duplicate edges are not allowed")
        src, indices = np.divmod(keys, node_count)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
        degrees = np.diff(indptr)
        if (degrees == 0).any():
            raise ValueError("every node must be incident to at least one edge")
        # The upward half-edges are each edge once, in (lo, hi) order.
        up = src < indices
        lo, hi = src[up], indices[up]
        if check_connected and _components(node_count, lo, hi).any():
            raise ValueError("graph must be a single connected component")
        return cls(
            labels=label_arr,
            edges=np.column_stack([lo, hi]),
            indptr=indptr,
            indices=indices,
            degrees=degrees,
            id_map=id_map,
        )


def _components(node_count: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each node's component label: the lowest node id in its component.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 1982). Each round hooks the larger root of every edge onto
    the smaller one, then jumps pointers until every node points at a
    root. Nodes only ever point at lower ids, so a component's root is its
    lowest id. A node without edges labels itself.
    """
    root = np.arange(node_count)
    while True:
        a, b = root[lo], root[hi]
        split = a != b
        if not split.any():
            return root
        # An edge inside one tree stays inside it; later rounds skip it.
        lo, hi, a, b = lo[split], hi[split], a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def graphs_equal(g1: UndirectedGraph, g2: UndirectedGraph) -> bool:
    return (
        g1.node_count == g2.node_count
        and np.array_equal(g1.labels, g2.labels)
        and np.array_equal(g1.edges, g2.edges)
    )


def check_growth(n: int, m: int, minority_frac: float, ingroup_pref: float) -> None:
    """Refuse generator parameters outside ``n > m >= 1`` and fractions in [0, 1]."""
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if not 0.0 <= minority_frac <= 1.0:
        raise ValueError(f"minority_frac must lie in [0, 1], got {minority_frac}")
    if not 0.0 <= ingroup_pref <= 1.0:
        raise ValueError(f"ingroup_pref must lie in [0, 1], got {ingroup_pref}")


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
    check_growth(n, m, minority_frac, ingroup_pref)
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

    # Mixing weight of each target group, by the new node's group.
    mixing = ((ingroup_pref, 1.0 - ingroup_pref), (1.0 - ingroup_pref, ingroup_pref))
    # One stream of uniforms in blocks: the first drawn now, each later one only
    # when a try needs it, so fallback draws keep their place. A try reads two.
    blocks = iter(lambda: rng.random(16384).tolist(), None)
    uniforms = itertools.chain.from_iterable(itertools.chain([next(blocks)], blocks))
    pairs = zip(uniforms, uniforms)
    for v in range(m, n):
        gv = label_of[v]
        wa, wb = mixing[gv][0] * len(rep[0]), mixing[gv][1] * len(rep[1])
        total = wa + wb
        targets: set[int] = set()
        tries = 60 * m + 60 if total > 0.0 else 0  # rejections before the uniform fallback
        for x, y in itertools.islice(pairs, tries):
            # A pool with zero mass is never picked, even when rounding
            # pushes the draw to the boundary (denormal weights).
            pool = rep[0] if wb == 0.0 or x * total < wa else rep[1]
            targets.add(pool[int(y * len(pool))])
            if len(targets) == m:
                break
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
    # by construction and the component check is skipped.
    return UndirectedGraph.from_edges(n, edges, labels, check_connected=False)


def load_and_preprocess(
    edge_records, label_records, directed_input: bool = False
) -> UndirectedGraph:
    """Build a clean undirected graph from raw edge and label records.

    Directed inputs keep only reciprocated pairs. Self loops, duplicate
    edges, and edges touching unlabeled nodes are dropped; the largest
    connected component survives; node ids are remapped to a dense
    0..N-1 range in ascending original-id order, with the originals kept
    in ``id_map``. Both record sets are ``(k, 2)`` integer arrays, as the
    readers return them: ``(u, v)`` edge rows and ``(node id, group
    code)`` label rows, with codes in ``GROUP_TOKENS`` order. A node
    without a label row, or whose last row gives ``MISSING``, is
    unlabeled. A list, a bool, float or string array, or a group code
    outside 0..2 raises ``ValueError``. Preprocessing its own output is a
    no-op.
    """
    for records in (edge_records, label_records):
        # A bool casts safely to int64, so the kind is checked as well.
        if not (
            isinstance(records, np.ndarray)
            and records.shape[1:] == (2,)
            and records.dtype.kind in "iu"
            and np.can_cast(records.dtype, np.int64)
        ):
            raise ValueError("malformed records: expected a (k, 2) integer array")
    if ((label_records[:, 1] < 0) | (label_records[:, 1] > MISSING)).any():
        raise ValueError("malformed records: group code outside 0..2")
    pairs = edge_records.astype(np.int64, copy=False)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    # Dense ids 0..K-1 rise with the original ids, so pair keys lo*K + hi
    # cannot overflow and sort like the original pairs.
    ids, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(-1, 2)
    # Each dense id's group code: its last label row, found after a stable
    # sort as the last sorted id not above it. An id below the first one
    # lands on -1, the appended MISSING slot.
    order = np.argsort(label_records[:, 0], kind="stable")
    label_ids = np.append(label_records[order, 0], 0)
    codes = np.append(label_records[order, 1], MISSING)
    at = np.searchsorted(label_ids[:-1], ids, side="right") - 1
    code = np.where(label_ids[at] == ids, codes[at], MISSING)
    k = ids.shape[0]
    u, v = dense[:, 0], dense[:, 1]
    keys = np.minimum(u, v) * k + np.maximum(u, v)
    if directed_input:
        keys = 2 * keys + (u > v)  # tag the direction
    # Sorting drops repeats tens of times faster than numpy's hash-based
    # np.unique does on arrays this large.
    keys = np.sort(keys)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    if directed_input:
        # A pair is reciprocated when both of its directions remain.
        keys = keys[1:][keys[1:] // 2 == keys[:-1] // 2] // 2
    lo, hi = np.divmod(keys, k)
    keep = (code[lo] != MISSING) & (code[hi] != MISSING)
    if not keep.any():
        raise ValueError("empty graph after preprocessing")
    lo, hi = lo[keep], hi[keep]

    # A component's label is its lowest id, and argmax returns the first of
    # equal sizes, so ties keep the component with the lowest original id.
    root = _components(k, lo, hi)
    members = np.flatnonzero(root == np.argmax(np.bincount(root)))
    new_id = np.full(k, -1, dtype=np.int64)
    new_id[members] = np.arange(members.shape[0])
    inside = new_id[lo] >= 0
    edge_arr = np.column_stack([new_id[lo[inside]], new_id[hi[inside]]])
    return UndirectedGraph.from_edges(
        members.shape[0], edge_arr, code[members], id_map=ids[members], check_connected=False
    )


def _read_by_line(path, labels: bool = False) -> np.ndarray:
    """A reader's rows parsed one line at a time, naming the first bad line.

    Everything from the first '#' on is a comment, and lines left blank
    are skipped. A label line's group token is checked before its id.
    """
    expected = "expected node id and group" if labels else "expected two node ids"
    rows: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.partition("#")[0].split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: {expected}")
            first, second = fields
            if labels and second not in _GROUP_CODES:
                raise ValueError(f"{path}:{lineno}: unknown group token {second!r}")
            try:
                row = (int(first), _GROUP_CODES[second] if labels else int(second))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
            if not _INT64.min <= min(row) <= max(row) <= _INT64.max:
                raise ValueError(f"{path}:{lineno}: node id outside int64")
            rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _loadtxt(path, **kwargs) -> np.ndarray | None:
    """numpy's int64 parse of a two-column file, or None for the line parser.

    None when numpy raises, warns (numpy 1.x only warns when it truncates
    a float id) or finds other than two columns, and for a pipe, which
    cannot be read twice."""
    if not os.path.isfile(path):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8", **kwargs)
        except (KeyError, ValueError, OverflowError, Warning):
            return None
    return rows if rows.shape[1] == 2 else None


def read_edge_list(path) -> np.ndarray:
    """Edge file as a ``(k, 2)`` int64 array of ``(u, v)`` rows, one per
    data line.

    A data line holds two whitespace-separated integer ids. Everything
    from the first '#' on is a comment, and lines left blank are skipped.
    A bad line raises ``ValueError("path:lineno: ...")``.
    """
    rows = _loadtxt(path)
    return _read_by_line(path) if rows is None else rows


def read_label_file(path) -> np.ndarray:
    """Label file as a ``(k, 2)`` int64 array of ``(node id, group code)``
    rows, one per data line.

    A data line holds an id and a group token, A, B or NA, read as its
    code 0, 1 or 2. Comments, blank lines and bad-line errors are as in
    ``read_edge_list``. Every line is kept; preprocessing gives an id
    listed twice its last group."""
    rows = _loadtxt(path, converters={1: _GROUP_CODES.__getitem__})
    return _read_by_line(path, labels=True) if rows is None else rows


def load_graph_files(edge_path, label_path, directed: bool = False) -> UndirectedGraph:
    return load_and_preprocess(
        read_edge_list(edge_path), read_label_file(label_path), directed_input=directed
    )


def write_edge_list(g: UndirectedGraph, path) -> None:
    """Write dense-id edges, one per line, compatible with read_edge_list."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, g.edges, fmt="%d", header="src dst")


def write_label_file(g: UndirectedGraph, path) -> None:
    tokens = np.array(GROUP_TOKENS)[g.labels]
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([np.arange(g.node_count), tokens]), fmt="%s", delimiter="\t")
