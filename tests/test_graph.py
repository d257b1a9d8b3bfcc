import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from begin import (
    BeginGraph,
    EdgeList,
    GraphNode,
    Mask,
    Partition,
    Pmf,
    assemble_sigma,
    build_graph,
    build_index_sets,
    export_graph,
    graph_from_json,
    make_ci_pmf,
    make_generic_pmf,
    sb_inverse,
    schur_complement,
    separates,
)
from begin import test_ci as decide_ci
from begin._textrows import CHUNK_ROWS
from begin.graph import _pen_text


def graph_of(pmf, part, tol=1e-8):
    sp = assemble_sigma(pmf, part)
    om = sb_inverse(sp, schur_complement(sp))
    return build_graph(om, sp.labels, tol)


def node(width, bits, wing, label):
    return GraphNode(mask=Mask(bits, width), wing=wing, label=label)


def test_halves_graph_structure(halves_pmf, split111):
    g = graph_of(halves_pmf, split111)
    assert [(n.label, n.wing) for n in g.nodes] == [
        ("B1", "B"),
        ("A1", "L"),
        ("A1*B1", "L"),
        ("C1", "R"),
        ("B1*C1", "R"),
    ]
    named = {(g.nodes[i].label, g.nodes[j].label) for i, j, _ in g.edges}
    assert named == {("B1", "A1"), ("B1", "C1")}
    assert separates(g)


def test_xor_graph_couples_the_wings(xor_pmf, split111):
    g = graph_of(xor_pmf, split111)
    named = {(g.nodes[i].label, g.nodes[j].label) for i, j, _ in g.edges}
    assert named == {("A1", "B1*C1"), ("A1*B1", "C1")}
    assert not separates(g)


def test_point_mass_graph_is_edgeless(split111):
    g = graph_of(Pmf(3, np.eye(8)[0]), split111)
    assert g.edges == ()
    assert separates(g)


def test_separation_on_hand_built_graphs():
    nodes = (
        node(3, 0b010, "B", "B1"),
        node(3, 0b100, "L", "A1"),
        node(3, 0b001, "R", "C1"),
    )
    direct = BeginGraph(nodes=nodes, edges=((1, 2, 0.5),), tol=1e-8)
    assert not separates(direct)
    through_center = BeginGraph(
        nodes=nodes, edges=((0, 1, 0.5), (0, 2, -0.5)), tol=1e-8
    )
    assert separates(through_center)
    no_right = BeginGraph(nodes=nodes[:2], edges=((0, 1, 1.0),), tol=1e-8)
    assert separates(no_right)


def test_separation_through_wing_chain():
    # a left-left edge followed by a left-right edge is an open path
    nodes = (
        node(3, 0b010, "B", "B1"),
        node(3, 0b100, "L", "A1"),
        node(3, 0b110, "L", "A1*B1"),
        node(3, 0b001, "R", "C1"),
    )
    g = BeginGraph(nodes=nodes, edges=((1, 2, 0.3), (2, 3, 0.3)), tol=1e-8)
    assert not separates(g)


def test_labels_fall_back_to_coordinates():
    # generators spanning several coordinates get plain X names
    part = Partition(
        4,
        a_gens=[Mask(0b0001, 4)],
        b_gens=[Mask(0b1100, 4), Mask(0b0110, 4), Mask(0b1010, 4)],
        c_gens=[Mask(0b1000, 4), Mask(0b0100, 4), Mask(0b0010, 4)],
    )
    g = graph_of(make_generic_pmf(4, seed=3), part)
    labels = {n.label for n in g.nodes}
    assert "X1*X2" in labels
    assert all(lbl[0] == "X" for lbl in labels)


def test_dot_export_clusters_and_edges(halves_pmf, split111):
    dot = export_graph(graph_of(halves_pmf, split111), "dot")
    for wing in ("L", "B", "R"):
        assert f"subgraph cluster_{wing} {{" in dot
    assert 'n0 [label="B1"];' in dot
    assert dot.startswith("graph begin {")
    assert dot.endswith("}\n")
    assert dot.count(" -- ") == 2


def test_dot_export_lists_isolated_nodes(split111):
    dot = export_graph(graph_of(Pmf(3, np.eye(8)[0]), split111), "dot")
    assert dot.count("[label=") == 5
    assert " -- " not in dot


def test_json_export_schema_and_round_trip(halves_pmf, split111):
    g = graph_of(halves_pmf, split111)
    text = export_graph(g, "json")
    obj = json.loads(text)
    assert sorted(obj) == ["edges", "nodes", "tol", "width"]
    assert obj["width"] == 3
    assert sorted(obj["nodes"][0]) == ["bits", "label", "wing"]
    assert graph_from_json(text) == g


def test_unknown_export_format_raises(halves_pmf, split111):
    with pytest.raises(ValueError):
        export_graph(graph_of(halves_pmf, split111), "svg")


def test_separation_matches_inverse_offblock():
    shapes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 2)]
    for idx, (r, s, t) in enumerate(shapes):
        part = Partition.coordinate_split(r, s, t)
        for k in range(6):
            if k % 2:
                pmf = make_ci_pmf(r, s, t, seed=400 + 13 * idx + k)
            else:
                pmf = make_generic_pmf(r + s + t, seed=500 + 13 * idx + k)
            sp = assemble_sigma(pmf, part)
            om = sb_inverse(sp, schur_complement(sp))
            g = build_graph(om, sp.labels, 1e-8)
            n_b, n_l = sp.n_b, sp.n_l
            off = om[n_b : n_b + n_l, n_b + n_l :]
            vanished = np.abs(off).max() <= 1e-8 if off.size else True
            assert separates(g) == vanished


def permute_bits(value, sigma):
    out = 0
    for k, src in enumerate(sigma):
        out |= ((value >> src) & 1) << k
    return out


def test_graph_invariant_under_coordinate_relabeling():
    """Renaming coordinates permutes masks but preserves wings, adjacency,
    and weights, keyed by the permuted masks."""
    rng = np.random.default_rng(77)
    pmf = make_generic_pmf(4, seed=21)
    part = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    base = graph_of(pmf, part)
    base_wings = {n.mask.bits: n.wing for n in base.nodes}
    base_edges = {
        tuple(sorted((base.nodes[i].mask.bits, base.nodes[j].mask.bits))): w
        for i, j, w in base.edges
    }
    for _ in range(20):
        sigma = tuple(rng.permutation(4).tolist())
        probs = np.zeros_like(pmf.probs)
        for cell in range(16):
            probs[permute_bits(cell, sigma)] = pmf.probs[cell]
        ppmf = Pmf(4, probs)
        ppart = Partition(
            4,
            a_gens=[Mask(permute_bits(m.bits, sigma), 4) for m in part.a_gens],
            b_gens=[Mask(permute_bits(m.bits, sigma), 4) for m in part.b_gens],
            c_gens=[Mask(permute_bits(m.bits, sigma), 4) for m in part.c_gens],
        )
        g = graph_of(ppmf, ppart)
        wings = {
            permute_bits(n.mask.bits, sigma): n.wing for n in base.nodes
        }
        assert wings == {n.mask.bits: n.wing for n in g.nodes}
        edges = {
            tuple(sorted((g.nodes[i].mask.bits, g.nodes[j].mask.bits))): w
            for i, j, w in g.edges
        }
        mapped = {
            tuple(sorted((permute_bits(a, sigma), permute_bits(b, sigma)))): w
            for (a, b), w in base_edges.items()
        }
        assert sorted(edges) == sorted(mapped)
        for key, w in mapped.items():
            assert abs(edges[key] - w) <= 1e-12


def test_graph_validation_errors(split111, halves_pmf):
    nodes = (
        node(3, 0b010, "B", "B1"),
        node(3, 0b100, "L", "A1"),
    )
    with pytest.raises(ValueError):
        BeginGraph(nodes=nodes, edges=((1, 0, 0.5),), tol=1e-8)
    with pytest.raises(ValueError):
        BeginGraph(nodes=nodes, edges=((0, 1, 1e-12),), tol=1e-8)
    with pytest.raises(ValueError):
        GraphNode(mask=Mask(0b1, 3), wing="Q", label="X3")
    sp = assemble_sigma(halves_pmf, split111)
    om = sb_inverse(sp, schur_complement(sp))
    wrong = Partition.coordinate_split(1, 2, 1)
    with pytest.raises(ValueError):
        build_graph(om, assemble_sigma(make_ci_pmf(1, 2, 1, seed=0), wrong).labels, 1e-8)


def test_build_graph_refuses_an_omega_of_the_wrong_shape_and_takes_a_nested_list():
    part = Partition.coordinate_split(1, 1, 1)
    sp = assemble_sigma(make_generic_pmf(3, seed=6), part)
    om = sb_inverse(sp, schur_complement(sp))
    n = om.shape[0]
    for bad in (om[:-1], om[:, :-1], om[0], np.zeros((n + 1, n + 1))):
        shape = rf"omega shape \({', '.join(map(str, bad.shape))},?\) does not match {n} labeled masks"
        with pytest.raises(ValueError, match=shape):
            build_graph(bad, sp.labels, 1e-8)
    nested = om.tolist()
    assert type(nested) is list and type(nested[0]) is list
    assert build_graph(nested, sp.labels, 1e-8) == build_graph(om, sp.labels, 1e-8)
    with pytest.raises(ValueError, match=rf"omega shape \({n - 1}, {n}\) does not match"):
        build_graph(nested[:-1], sp.labels, 1e-8)


# References for the array-backed graph: the per-entry threshold loop and
# adjacency-list BFS that build_graph and separates replaced, and the
# exporters as written for a plain tuple of (i, j, weight) triples.


def reference_edges(mat, tol):
    n = mat.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = float(mat[i, j])
            if abs(w) > tol:
                edges.append((i, j, w))
    return tuple(edges)


def reference_separates(nodes, edges):
    adj = [[] for _ in nodes]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    blocked = [nd.wing == "B" for nd in nodes]
    seen = [False] * len(nodes)
    queue = deque(i for i, nd in enumerate(nodes) if nd.wing == "L")
    for i in queue:
        seen[i] = True
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if blocked[j] or seen[j]:
                continue
            if nodes[j].wing == "R":
                return False
            seen[j] = True
            queue.append(j)
    return True


def reference_dot(nodes, edges):
    quote = lambda t: '"' + t.replace("\\", "\\\\").replace('"', '\\"') + '"'  # noqa: E731
    max_w = max((abs(w) for _, _, w in edges), default=1.0)
    lines = ["graph begin {", "  node [shape=ellipse];"]
    for wing in ("L", "B", "R"):
        lines.append(f"  subgraph cluster_{wing} {{")
        lines.append(f"    label={quote(wing)};")
        for i, nd in enumerate(nodes):
            if nd.wing == wing:
                lines.append(f"    n{i} [label={quote(nd.label)}];")
        lines.append("  }")
    for i, j, w in edges:
        pen = 0.5 + 2.5 * abs(w) / max_w
        lines.append(f'  n{i} -- n{j} [weight="{w:.17g}", penwidth="{pen:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_json(nodes, edges, tol):
    obj = {
        "width": nodes[0].mask.width if nodes else 0,
        "tol": tol,
        "nodes": [
            {"bits": nd.mask.to_string(), "wing": nd.wing, "label": nd.label}
            for nd in nodes
        ],
        "edges": [[i, j, w] for i, j, w in edges],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# The CLI's vector reader and writers and the pmf CSV writer as they were
# before the bulk % formatting, one f-string or float() call per value.


def reference_read_vector(path):
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals.extend(float(v) for v in line.split(","))
    if not vals:
        raise ValueError(f"{path} has no numeric entries")
    return np.array(vals, dtype=np.float64)


def reference_format_matrix(mat, fmt):
    if fmt == "json":
        return json.dumps([[float(v) for v in row] for row in mat]) + "\n"
    lines = [",".join(f"{v:.17g}" for v in row) for row in mat]
    return "\n".join(lines) + "\n"


def reference_format_vector(vec, fmt):
    if fmt == "json":
        return json.dumps([float(v) for v in vec]) + "\n"
    return "\n".join(f"{v:.17g}" for v in vec) + "\n"


def reference_write_pmf_csv(pmf, path):
    with open(path, "w", newline="") as fh:
        for key in sorted(pmf.meta):
            fh.write(f"# {key}: {pmf.meta[key]}\n")
        fh.write("bits,prob\n")
        for cell in pmf.support:
            pattern = "".join(
                "-" if (cell >> (pmf.p - 1 - j)) & 1 else "+" for j in range(pmf.p)
            )
            fh.write(f"{pattern},{pmf.probs[cell]:.17g}\n")


OVERLAP_PART = Partition(
    3, a_gens=[Mask(0b110, 3)], b_gens=[Mask(0b010, 3)], c_gens=[Mask(0b100, 3)]
)

REFERENCE_CASES = [
    (Partition.coordinate_split(1, 1, 1), "ci", 3),
    (Partition.coordinate_split(2, 2, 2), "ci", 5),
    (Partition.coordinate_split(2, 2, 2), "generic", 6),
    (Partition.coordinate_split(2, 0, 2), "generic", 7),
    (Partition.coordinate_split(2, 1, 3), "generic", 8),
    (OVERLAP_PART, "generic", 9),
]


def case_graph(part, kind, seed, tol=1e-8):
    if kind == "ci":
        sizes = [len(part.a_gens), len(part.b_gens), len(part.c_gens)]
        pmf = make_ci_pmf(*sizes, seed=seed, zero_prob=0.3)
    else:
        pmf = make_generic_pmf(part.p, seed=seed)
    sp = assemble_sigma(pmf, part)
    om = sb_inverse(sp, schur_complement(sp))
    return om, build_graph(om, sp.labels, tol)


@pytest.mark.parametrize("part,kind,seed", REFERENCE_CASES)
def test_build_graph_and_exports_match_reference(part, kind, seed):
    om, g = case_graph(part, kind, seed)
    ref = reference_edges(om, g.tol)
    assert g.edges == ref
    assert tuple(g.edges) == ref
    assert len(g.edges) == len(ref)
    assert [type(v) for e in g.edges for v in e] == [int, int, float] * len(ref)
    if ref:
        assert g.edges[0] == ref[0] and g.edges[-1] == ref[-1]
    assert separates(g) == reference_separates(g.nodes, ref)
    assert export_graph(g, "dot") == reference_dot(g.nodes, ref)
    text = export_graph(g, "json")
    assert text == reference_json(g.nodes, ref, g.tol)
    assert graph_from_json(text) == g
    assert hash(graph_from_json(text)) == hash(g)


def test_edge_list_behaves_like_a_tuple_of_triples():
    triples = ((0, 2, 0.5), (1, 2, -0.25))
    edges = EdgeList.from_triples(triples)
    assert edges == triples and triples == edges
    assert edges != triples[:1] and edges != list(triples)
    assert EdgeList.from_triples(()) == ()
    assert edges[1] == (1, 2, -0.25)
    assert edges[:1] == triples[:1]
    assert hash(edges) == hash(triples)
    with pytest.raises(AttributeError):
        edges.rows = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError):
        edges.weights[0] = 1.0
    with pytest.raises(ValueError):
        EdgeList([0], [1, 2], [0.5])


def test_edge_validation_reports_the_first_bad_edge():
    nodes = (node(3, 0b010, "B", "B1"), node(3, 0b100, "L", "A1"), node(3, 0b001, "R", "C1"))
    with pytest.raises(ValueError, match=r"bad edge \(2,1\) for 3 nodes"):
        BeginGraph(nodes=nodes, edges=((0, 1, 0.5), (2, 1, 0.5), (0, 1, 0.0)), tol=1e-8)
    with pytest.raises(ValueError, match=r"edge \(0,2\) weight 1e-09 inside tolerance"):
        BeginGraph(nodes=nodes, edges=((0, 2, 1e-9), (1, 5, 0.5)), tol=1e-8)
    with pytest.raises(ValueError, match=r"bad edge \(0,3\)"):
        BeginGraph(nodes=nodes, edges=((0, 3, 0.5),), tol=1e-8)


@st.composite
def hand_built_graphs(draw):
    wings = draw(st.lists(st.sampled_from("BLR"), min_size=0, max_size=9))
    n = len(wings)
    nodes = tuple(node(4, i + 1, wing, f"N{i}") for i, wing in enumerate(wings))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(min_value=0.01, max_value=2.0) | st.floats(
        min_value=-2.0, max_value=-0.01
    )
    edges = tuple(sorted((i, j, draw(weights)) for i, j in chosen))
    return BeginGraph(nodes=nodes, edges=edges, tol=1e-8)


@seed(3)
@settings(max_examples=300, deadline=None)
@given(g=hand_built_graphs())
def test_separation_matches_reference_on_hand_built_graphs(g):
    assert separates(g) == reference_separates(g.nodes, tuple(g.edges))


@seed(4)
@settings(max_examples=200, deadline=None)
@given(
    part=st.sampled_from(
        [
            Partition.coordinate_split(1, 1, 1),
            Partition.coordinate_split(1, 0, 2),
            Partition.coordinate_split(2, 1, 0),
            OVERLAP_PART,
        ]
    ),
    data=st.data(),
)
def test_separation_matches_reference_on_random_symmetric_matrices(part, data):
    labels = build_index_sets(part)
    n = len(labels.all_masks())
    # entries mix exact zeros, values inside the tolerance and clear weights
    entry = st.sampled_from([0.0, 0.0, 0.0, 5e-9, -1e-8, 2e-8, 0.3, -1.0])
    upper = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    mat = np.triu(upper.reshape(n, n))
    mat = mat + np.triu(mat, 1).T
    g = build_graph(mat, labels, 1e-8)
    ref = reference_edges(mat, 1e-8)
    assert g.edges == ref
    assert separates(g) == reference_separates(g.nodes, ref)


def test_separation_edge_cases_match_reference():
    left, center, right = node(3, 4, "L", "A1"), node(3, 2, "B", "B1"), node(3, 1, "R", "C1")
    cases = [
        ((), ()),
        ((right, left), ()),
        ((right, left), ((0, 1, 0.5),)),
        ((left, left, center), ((0, 1, 0.5), (1, 2, 0.5))),
        ((right, center, right), ((0, 1, 0.5), (1, 2, 0.5))),
        ((right, center, left, left), ((0, 3, 0.5), (1, 2, 0.5), (2, 3, 0.5))),
        ((center, left, right), ()),
    ]
    for nodes, edges in cases:
        g = BeginGraph(nodes=nodes, edges=edges, tol=1e-8)
        assert separates(g) == reference_separates(nodes, edges)


def test_overlapping_wing_partitions_match_reference():
    for k in range(12):
        om, g = case_graph(OVERLAP_PART, "generic", 600 + k)
        ref = reference_edges(om, g.tol)
        assert g.edges == ref
        assert separates(g) == reference_separates(g.nodes, ref)


def eager_nodes(labels):
    # build_graph's node loop before labels were made on first read
    from begin.graph import _coordinate_names, _mask_label

    names = _coordinate_names(labels.part, labels.width)
    return tuple(
        GraphNode(mask=mk, wing=wing, label=_mask_label(mk, names))
        for wing, masks in zip("BLR", (labels.b_set, labels.l_set, labels.r_set))
        for mk in masks
    )


def test_verdicts_make_no_node_labels(monkeypatch):
    import begin.graph as graph_module

    def refuse(labels):
        raise AssertionError("node labels built")

    monkeypatch.setattr(graph_module, "_labelled_nodes", refuse)
    part = Partition.coordinate_split(2, 2, 1)
    assert decide_ci(make_ci_pmf(2, 2, 1, seed=4), part).criteria["separation"]
    g = graph_of(make_generic_pmf(5, seed=4), part)
    assert len(g.nodes) == 19 and not separates(g)
    with pytest.raises(AssertionError, match="node labels built"):
        g.nodes[0]


def test_lazy_nodes_equal_eager_ones():
    for part, pmf in (
        (Partition.coordinate_split(1, 2, 2), make_generic_pmf(5, seed=1)),
        (
            Partition(4, (Mask(0b1001, 4),), (Mask(0b0110, 4),), (Mask(0b0011, 4),)),
            make_generic_pmf(4, seed=2),
        ),
    ):
        g = graph_of(pmf, part)
        eager = eager_nodes(build_index_sets(part))
        assert g.nodes == eager and eager == tuple(g.nodes)
        assert g.nodes.wings.tolist() == [node.wing for node in eager]
        explicit = BeginGraph(nodes=eager, edges=tuple(g.edges), tol=g.tol)
        assert explicit == graph_of(pmf, part) and g == explicit
        assert hash(explicit) == hash(graph_of(pmf, part))
        assert export_graph(explicit, "json") == export_graph(graph_of(pmf, part), "json")
        assert export_graph(explicit, "dot") == export_graph(graph_of(pmf, part), "dot")
        assert g.nodes[1:3] == eager[1:3] and list(g.nodes) == list(eager)
    with pytest.raises(AttributeError):
        g.nodes.wings = None


# The one-pass edge extraction and the wing-code separation past 128 nodes,
# and on graphs whose nodes come in any order.


@pytest.mark.parametrize("kind, seed", [("ci", 20), ("generic", 21)])
def test_build_graph_matches_the_reference_loop_past_one_tile(kind, seed):
    part = Partition.coordinate_split(1, 6, 1)
    om, g = case_graph(part, kind, seed)
    assert om.shape[0] > 128
    ref = reference_edges(om, g.tol)
    assert g.edges == ref and len(g.edges) == len(ref)
    assert g.edges.rows.dtype == np.int64 and g.edges.weights.dtype == np.float64
    assert separates(g) == reference_separates(g.nodes, ref)


def test_build_graph_thresholds_like_abs_on_a_sparse_matrix_past_one_tile():
    part = Partition.coordinate_split(1, 6, 1)
    labels = build_index_sets(part)
    n = len(labels.all_masks())
    rng = np.random.default_rng(5)
    values = np.array([0.0, -0.0, 1e-8, -1e-8, 2e-8, -0.4, 0.7])
    mat = values[rng.integers(values.size, size=(n, n))]
    for tol in (1e-8, 0.5):
        g = build_graph(mat, labels, tol)
        assert n > 128 and g.edges == reference_edges(mat, tol)


def shuffled_json(text, rng):
    """The JSON export with its nodes permuted and its edges renumbered."""
    obj = json.loads(text)
    perm = rng.permutation(len(obj["nodes"]))
    nodes = [None] * len(perm)
    for old, new in enumerate(perm):
        nodes[new] = obj["nodes"][old]
    edges = [[int(min(perm[i], perm[j])), int(max(perm[i], perm[j])), w] for i, j, w in obj["edges"]]
    rng.shuffle(edges)
    obj["nodes"], obj["edges"] = nodes, edges
    return json.dumps(obj)


@pytest.mark.parametrize("part, kind, seed", REFERENCE_CASES)
def test_separation_matches_reference_on_shuffled_json_graphs(part, kind, seed):
    _, g = case_graph(part, kind, seed)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        loaded = graph_from_json(shuffled_json(export_graph(g, "json"), rng))
        assert loaded.nodes.codes.tolist() == ["BLR".index(w) for w in loaded.nodes.wings]
        assert separates(loaded) == separates(g)
        assert separates(loaded) == reference_separates(loaded.nodes, tuple(loaded.edges))


def test_edge_list_constructor_copies_the_callers_arrays():
    rows, cols = np.array([0, 1]), np.array([2, 2])
    weights = np.array([0.5, -0.25])
    edges = EdgeList(rows, cols, weights)
    rows[0], cols[0], weights[0] = 1, 1, 9.0
    assert edges == ((0, 2, 0.5), (1, 2, -0.25))
    assert rows.flags.writeable and cols.flags.writeable and weights.flags.writeable
    assert not (edges.rows.flags.writeable or edges.weights.flags.writeable)


# edge counts either side of one % format chunk, and the smallest graphs
EDGE_COUNTS = [0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]


@st.composite
def weighted_graphs(draw):
    """Graphs with weights of every finite magnitude, both signs, and
    subnormals; tol 0 admits every nonzero weight."""
    m = draw(st.sampled_from(EDGE_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["wide", "subnormal", "unit"]))
    if kind == "wide":
        weights = 10.0 ** rng.uniform(-300, 300, m)
    elif kind == "subnormal":
        weights = rng.integers(1, 1 << 52, m) * 5e-324
    else:
        weights = rng.uniform(0.01, 1.0, m)
    weights *= rng.choice([-1.0, 1.0], m)
    picked = draw(st.lists(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
        | st.floats(min_value=-1.7976931348623157e308, max_value=-5e-324),
        max_size=min(m, 4),
    ))
    weights[: len(picked)] = picked
    tol = draw(st.sampled_from([0.0, 1e-300])) if kind != "subnormal" else 0.0
    weights[np.abs(weights) <= tol] = 1.0
    return random_graph(rng, weights, tol)


def random_graph(rng, weights, tol):
    """A graph with one edge per weight, on random node pairs and wings."""
    n = 200  # past sqrt(2 (CHUNK_ROWS + 1)), so every edge can be distinct
    pairs = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    flat = np.sort(rng.choice(pairs, size=weights.size, replace=False))
    rows, cols = np.divmod(flat, n)
    wings = rng.choice(list("BLR"), n)
    nodes = tuple(node(8, i, str(wing), f"N{i}") for i, wing in enumerate(wings))
    return BeginGraph(nodes=nodes, edges=EdgeList(rows, cols, weights), tol=tol)


# centres of the small weight pools: subnormals, the smallest normal, values
# whose pen width 0.5 + 2.5 |w| / max_w overflows to inf, and the largest float
POOL_CENTRES = [5e-324, 3 * 5e-324, 2.2250738585072014e-308, 1e-8, 0.1, 1.0, 1e300,
                7.3e307, 1e308, 1.7976931348623157e308]


@st.composite
def pooled_graphs(draw):
    """Graphs whose weights repeat a pool of a few values: each pool centre
    with its one-ulp neighbours, both signs; tol 0 admits every nonzero weight."""
    m = draw(st.sampled_from(EDGE_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = np.array(draw(st.lists(st.sampled_from(POOL_CENTRES), min_size=1, max_size=3)))
    with np.errstate(over="ignore"):  # past the largest float: inf, dropped
        pool = np.concatenate([centres, np.nextafter(centres, 0), np.nextafter(centres, np.inf)])
    pool = pool[(pool != 0) & np.isfinite(pool)]
    pool = np.concatenate([pool, -pool])
    size = draw(st.integers(1, pool.size))
    return random_graph(rng, rng.choice(rng.choice(pool, size, replace=False), m), 0.0)


@seed(10)
@settings(max_examples=25, deadline=None)
@given(g=weighted_graphs())
def test_bulk_exports_match_the_reference_writers_byte_for_byte(g):
    triples = tuple(g.edges)
    assert export_graph(g, "dot") == reference_dot(g.nodes, triples)
    text = export_graph(g, "json")
    assert text == reference_json(g.nodes, triples, g.tol)
    assert graph_from_json(text) == g


@seed(18)
@settings(max_examples=40, deadline=None)
@given(g=pooled_graphs())
def test_exports_of_repeated_weights_match_the_reference_writers(g):
    triples = tuple(g.edges)
    assert export_graph(g, "dot") == reference_dot(g.nodes, triples)
    assert export_graph(g, "json") == reference_json(g.nodes, triples, g.tol)


def test_dot_pen_width_overflows_to_inf_as_the_reference_does():
    nodes = (node(3, 0b010, "B", "B1"), node(3, 0b100, "L", "A1"), node(3, 0b001, "R", "C1"))
    g = BeginGraph(nodes=nodes, edges=((0, 1, 1e308), (1, 2, -1.5e308)), tol=1e-8)
    text = export_graph(g, "dot")
    assert text == reference_dot(g.nodes, tuple(g.edges))
    assert 'penwidth="inf"' in text


def test_pen_widths_match_percent_format_at_and_near_ties():
    # odd sixteenths are the only exact ties at three decimals; the floats at
    # and next to (k + 0.5) / 1000 lie within an ulp of the other midpoints
    near = (np.arange(500, 3000) + 0.5) / 1000
    pens = np.concatenate([
        np.arange(9, 48, 2) / 16, near, np.nextafter(near, 0), np.nextafter(near, 4),
        np.random.default_rng(5).uniform(0.5, 3.0, 20000),
        [0.5, 3.0, np.nextafter(3.0, 4), np.inf],
    ])
    table, index = _pen_text(pens)
    assert table[index].tolist() == ["%.3f" % v for v in pens.tolist()]


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_bad_tolerances_are_refused(tol):
    nodes = (node(3, 0b010, "B", "B1"), node(3, 0b100, "L", "A1"))
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        BeginGraph(nodes=nodes, edges=(), tol=tol)
    pmf = make_generic_pmf(3, seed=1)
    part = Partition.coordinate_split(1, 1, 1)
    sp = assemble_sigma(pmf, part)
    om = sb_inverse(sp, schur_complement(sp))
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        build_graph(om, sp.labels, tol)
    with pytest.raises(ValueError, match="^tol must be finite and non-negative"):
        decide_ci(pmf, part, tol=tol)
    with pytest.raises(ValueError, match="^rank_tol must be finite and non-negative"):
        decide_ci(pmf, part, rank_tol=tol)


def test_zero_tolerances_are_accepted():
    pmf = make_generic_pmf(3, seed=1)
    part = Partition.coordinate_split(1, 1, 1)
    assert decide_ci(pmf, part, tol=0.0, rank_tol=0.0).tol == 0.0
    assert graph_of(pmf, part, tol=0).tol == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_edge_weights_are_refused(bad):
    nodes = (node(3, 0b010, "B", "B1"), node(3, 0b100, "L", "A1"), node(3, 0b001, "R", "C1"))
    with pytest.raises(ValueError, match=rf"edge \(1,2\) weight {bad} is not finite"):
        BeginGraph(nodes=nodes, edges=((0, 1, 0.5), (1, 2, bad)), tol=1e-8)
    good = BeginGraph(nodes=nodes, edges=((0, 1, 0.5), (1, 2, 0.25)), tol=1e-8)
    # json writes NaN and Infinity, which json.loads reads back as floats
    text = export_graph(good, "json").replace("0.25", json.dumps(bad))
    with pytest.raises(ValueError, match="is not finite"):
        graph_from_json(text)


def test_build_graph_skips_the_public_edge_checks(monkeypatch):
    pmf = make_generic_pmf(4, seed=2)
    part = Partition.coordinate_split(1, 2, 1)
    sp = assemble_sigma(pmf, part)
    om = sb_inverse(sp, schur_complement(sp))
    public = BeginGraph(nodes=eager_nodes(sp.labels), edges=reference_edges(om, 1e-8),
                        tol=1e-8)

    def refuse(self):
        raise AssertionError("edges built by build_graph checked again")

    monkeypatch.setattr(BeginGraph, "__post_init__", refuse)
    g = build_graph(om, sp.labels, 1e-8)
    assert g == public and g.tol == 1e-8
