"""Directed edge-list and label files for the ingest workload.

The file holds one large power-law component, written as reciprocated
pairs, plus the debris that preprocessing has to strip: thousands of
small reciprocated components, one-way edges, self loops, duplicate
records and nodes labeled ``NA``. Every node gets a sparse original id.
The large component's ids rise with its dense ids, so the graph that
preprocessing keeps must equal the generated component exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# One in this many small components gets an NA label on every node.
_NA_COMPONENT_EVERY = 10


def write_ingest_input(
    out_dir: Path, seed: int, main_nodes: int, components: int, leading: int
) -> dict:
    """Write ``edges.txt``, ``labels.txt`` and ``expected.npz`` under out_dir.

    Returns ``{"records": <raw edge records written>}``.
    """
    from graphquant.graph import generate_homophilous_graph

    rng = np.random.default_rng([seed, 0x16E57])
    main = generate_homophilous_graph(main_nodes, 2, 0.2, 0.8, rng_seed=[seed, 1])

    sizes = rng.integers(2, 6, size=components)
    na_leaves = max(1, main_nodes // 50)
    total = main_nodes + int(sizes.sum()) + na_leaves
    # Sparse ids: distinct draws from a range ten times the node count. The
    # first ``leading`` small components take the lowest ids, so they
    # precede the large component in id order; the other nodes' ids are
    # dealt out at random and interleave with it.
    ids = np.sort(rng.choice(10 * total, size=total, replace=False))
    n_small = int(sizes.sum())
    lead = int(sizes[:leading].sum())
    rest = rng.permutation(ids[lead:])
    main_ids = np.sort(rest[:main_nodes])
    small_ids = np.concatenate([ids[:lead], rest[main_nodes : main_nodes + n_small - lead]])
    leaf_ids = rest[main_nodes + n_small - lead :]

    records: list[np.ndarray] = []
    labels: list[tuple[np.ndarray, np.ndarray]] = []

    main_edges = main_ids[main.edges]
    records.append(main_edges)
    records.append(main_edges[:, ::-1])
    labels.append((main_ids, main.labels))

    # Small components: a path over each group of ids, reciprocated.
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    na_nodes: list[np.ndarray] = []
    for c, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        nodes = small_ids[start : start + size]
        path = np.column_stack([nodes[:-1], nodes[1:]])
        records.append(path)
        records.append(path[:, ::-1])
        if c % _NA_COMPONENT_EVERY == 0:
            na_nodes.append(nodes)
        else:
            labels.append((nodes, rng.integers(0, 2, size=size).astype(np.int8)))

    # NA leaves hang off the large component by reciprocated edges, which
    # preprocessing must drop along with the leaf.
    anchors = main_ids[rng.integers(0, main_nodes, size=na_leaves)]
    leaf_edges = np.column_stack([anchors, leaf_ids])
    records.append(leaf_edges)
    records.append(leaf_edges[:, ::-1])
    na_nodes.append(leaf_ids)

    # One-way edges inside the large component and from small components
    # into it; directed preprocessing keeps only reciprocated pairs.
    n_oneway = main_nodes // 5
    a = main_ids[rng.integers(0, main_nodes, size=n_oneway)]
    b = main_ids[rng.integers(0, main_nodes, size=n_oneway)]
    keep = a != b
    a, b = a[keep], b[keep]
    span = 10 * total
    present = np.concatenate([main_edges[:, 0] * span + main_edges[:, 1],
                              main_edges[:, 1] * span + main_edges[:, 0]])
    oneway = np.column_stack([a, b])[~np.isin(a * span + b, present)]
    records.append(oneway)
    bridges = np.column_stack(
        [small_ids[rng.integers(0, small_ids.shape[0], size=components)],
         main_ids[rng.integers(0, main_nodes, size=components)]]
    )
    records.append(bridges)

    # Self loops and duplicate records.
    loops = main_ids[rng.integers(0, main_nodes, size=main_nodes // 100)]
    records.append(np.column_stack([loops, loops]))
    records.append(main_edges[rng.integers(0, main_edges.shape[0], size=main_nodes // 20)])

    edge_arr = np.concatenate(records)
    edge_arr = edge_arr[rng.permutation(edge_arr.shape[0])]

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "edges.txt", "w", encoding="utf-8") as fh:
        fh.write("# directed edge list: src dst\n")
        fh.write("\n".join(f"{u} {v}" for u, v in edge_arr.tolist()))
        fh.write("\n")
    label_lines = [
        f"{n}\t{'B' if g else 'A'}"
        for node_arr, group_arr in labels
        for n, g in zip(node_arr.tolist(), group_arr.tolist())
    ]
    label_lines += [f"{n}\tNA" for arr in na_nodes for n in arr.tolist()]
    order = rng.permutation(len(label_lines))
    with open(out_dir / "labels.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(label_lines[i] for i in order.tolist()))
        fh.write("\n")
    np.savez(
        out_dir / "expected.npz",
        edges=main.edges,
        labels=main.labels,
        id_map=main_ids,
        records=np.int64(edge_arr.shape[0]),
    )
    return {"records": int(edge_arr.shape[0])}

