"""Undirected graph on interaction masks with edges from the block inverse.

Center nodes come first, then the wings; an edge joins two distinct nodes
whenever the matching entry of the block inverse clears the tolerance.
Separation of the wings by the center is the graphical face of the CI
verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ._textrows import distinct_column, format_rows
from .bitgroup import IndexSets, Mask, Partition
from .schur import SchurResult, _require_tolerance

__all__ = [
    "GraphNode",
    "EdgeList",
    "BeginGraph",
    "build_graph",
    "separates",
    "export_graph",
    "graph_from_json",
]


@dataclass(frozen=True)
class GraphNode:
    """One vertex: its mask, wing membership, and a human-readable name."""

    mask: Mask
    wing: str
    label: str

    def __post_init__(self) -> None:
        if self.wing not in ("B", "L", "R"):
            raise ValueError(f"wing must be B, L, or R, got {self.wing!r}")


_WINGS = "BLR"
_WING_CODES = np.arange(3, dtype=np.int8)


Edge = Tuple[int, int, float]


class EdgeList:
    """Read-only (i, j, weight) edges held as three flat arrays.

    Iterates as (int, int, float) triples and has a length, without holding
    a Python object per edge: a dense block inverse can give millions of
    edges.  Two EdgeLists are equal when their arrays are; an EdgeList
    equals no tuple, and is unhashable.
    """

    __slots__ = ("rows", "cols", "weights")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> None:
        self._hold(
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(weights, dtype=np.float64),
        )

    @classmethod
    def _adopt(cls, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> "EdgeList":
        """Edges over int64, int64 and float64 arrays that the caller made
        for this list and gives up: they are frozen, not copied."""
        out = cls.__new__(cls)
        out._hold(rows, cols, weights)
        return out

    def _hold(self, *arrays: np.ndarray) -> None:
        if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
            raise ValueError("edge rows, cols and weights must be equal-length vectors")
        for name, arr in zip(self.__slots__, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_triples(cls, edges: Iterable[Edge]) -> "EdgeList":
        """Edges from (i, j, weight) triples, as hand-built graphs and JSON give them."""
        triples = [(int(i), int(j), float(w)) for i, j, w in edges]
        return cls(*(zip(*triples) if triples else ((), (), ())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EdgeList is read-only")

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __iter__(self) -> Iterator[Edge]:
        return zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeList):
            return (
                np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.weights, other.weights)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"EdgeList({len(self)} edges)"


class BeginGraph:
    """Thresholded adjacency of the block inverse, wing-annotated.

    nodes may be given as any iterable of GraphNodes and edges as any
    iterable of (i, j, weight) triples; they are stored as a tuple and an
    EdgeList.  codes holds each node's wing as its index in "BLR" (int8).
    A graph that build_graph made holds labels instead of nodes, labelled
    when first read, and either its edges or the SchurResult it was given
    (the block inverse, held by its blocks): separates reads its off-block,
    all a verdict needs, and the edges are formed from its dense Omega when
    first read, the SchurResult dropped once they exist.  Equal graphs have
    equal nodes, edges and tol; the hash covers nodes and tol only, so
    hashing forms no Omega and no edge.
    """

    __slots__ = ("codes", "tol", "_edges", "_inverse", "_labels", "_nodes")

    def __init__(self, nodes: Iterable[GraphNode], edges: Iterable[Edge], tol: float) -> None:
        _require_tolerance("tol", tol)
        nodes = tuple(nodes)
        codes = np.array([_WINGS.index(node.wing) for node in nodes], dtype=np.int8)
        if not isinstance(edges, EdgeList):
            edges = EdgeList.from_triples(edges)
        n = len(nodes)
        rows, cols, weights = edges.rows, edges.cols, edges.weights
        bad_index = (rows < 0) | (rows >= cols) | (cols >= n)
        finite = np.isfinite(weights)
        bad = bad_index | ~finite | (np.abs(weights) <= tol)
        if bad.any():
            k = int(np.argmax(bad))
            i, j, w = int(rows[k]), int(cols[k]), float(weights[k])
            if bad_index[k]:
                raise ValueError(f"bad edge ({i},{j}) for {n} nodes")
            if not finite[k]:
                raise ValueError(f"edge ({i},{j}) weight {w} is not finite")
            raise ValueError(f"edge ({i},{j}) weight {w} inside tolerance")
        self._set(codes, tol, edges, None, None, nodes)

    @classmethod
    def _adopt(cls, labels: IndexSets, tol: float, edges: Optional[EdgeList],
               inverse: Optional[SchurResult]) -> "BeginGraph":
        """A graph over the center, left and right wing masks of labels, in
        order, at a valid tol, with the edges that build_graph found or the
        SchurResult it keeps."""
        out = cls.__new__(cls)
        counts = (labels.b_bits.size, labels.l_bits.size, labels.r_bits.size)
        out._set(np.repeat(_WING_CODES, counts), tol, edges, inverse, labels, None)
        return out

    def _set(self, codes: np.ndarray, tol: float, edges: Optional[EdgeList],
             inverse: Optional[SchurResult], labels: Optional[IndexSets],
             nodes: Optional[Tuple[GraphNode, ...]]) -> None:
        codes.flags.writeable = False
        for name, value in zip(self.__slots__, (codes, tol, edges, inverse, labels, nodes)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BeginGraph is read-only")

    @property
    def nodes(self) -> Tuple[GraphNode, ...]:
        if self._nodes is None:
            object.__setattr__(self, "_nodes", _labelled_nodes(self._labels))
        return self._nodes

    @property
    def edges(self) -> EdgeList:
        if self._edges is None:
            object.__setattr__(self, "_edges", _threshold(self._inverse.dense(), self.tol))
            object.__setattr__(self, "_inverse", None)
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeginGraph):
            return NotImplemented
        return (self.nodes, self.edges, self.tol) == (other.nodes, other.edges, other.tol)

    def __hash__(self) -> int:
        return hash((self.nodes, self.tol))

    def __repr__(self) -> str:
        return f"BeginGraph(nodes={self.nodes!r}, edges={self.edges!r}, tol={self.tol!r})"


def _coordinate_names(part: Optional[Partition], width: int) -> Dict[int, str]:
    """Per-coordinate display names; block-aware when the generators are
    disjoint single coordinates, plain X-names otherwise."""
    names = {j: f"X{j}" for j in range(1, width + 1)}
    if part is None:
        return names
    assigned: Dict[int, str] = {}
    for prefix, gens in (("A", part.a_gens), ("B", part.b_gens), ("C", part.c_gens)):
        for i, g in enumerate(gens):
            cs = g.coords()
            if len(cs) != 1 or cs[0] in assigned:
                return names
            assigned[cs[0]] = f"{prefix}{i + 1}"
    names.update(assigned)
    return names


def _mask_label(mask: Mask, names: Dict[int, str]) -> str:
    if mask.is_identity:
        return "1"
    return "*".join(names[j] for j in mask.coords())


def _labelled_nodes(labels: IndexSets) -> Tuple[GraphNode, ...]:
    names = _coordinate_names(labels.part, labels.width)
    nodes: List[GraphNode] = []
    for wing, masks in zip("BLR", (labels.b_set, labels.l_set, labels.r_set)):
        for mk in masks:
            nodes.append(GraphNode(mask=mk, wing=wing, label=_mask_label(mk, names)))
    return tuple(nodes)


def build_graph(
    omega: Union[SchurResult, np.ndarray], labels: IndexSets, tol: float
) -> BeginGraph:
    """The undirected wing-labeled graph of the n x n block inverse at tol.

    A SchurResult (sb_inverse's), which holds Omega by its blocks, is kept
    uncopied, not its edges (see BeginGraph); its wings must split as
    labels' do.  Any other omega is read as an n x n float64 array and
    thresholded at once.
    """
    _require_tolerance("tol", tol)
    n_b, n_l = labels.b_bits.size, labels.l_bits.size
    n = n_b + n_l + labels.r_bits.size
    held = isinstance(omega, SchurResult)
    mat = omega if held else np.asarray(omega, dtype=np.float64)
    if mat.shape != (n, n):
        raise ValueError(f"omega shape {mat.shape} does not match {n} labeled masks")
    if held:
        if (omega.sigma.n_b, omega.sigma.n_l) != (n_b, n_l):
            raise ValueError("block inverse's center and wings differ from the labeled masks'")
        return BeginGraph._adopt(labels, tol, None, omega)
    return BeginGraph._adopt(labels, tol, _threshold(mat, tol), None)


def _threshold(mat: np.ndarray, tol: float) -> EdgeList:
    """The edges of an n x n matrix: its strict upper triangle's entries
    with |entry| > tol, in row-major order."""
    n = mat.shape[0]
    # |entry| > tol over the strict upper triangle, with no |omega| temporary
    upper = mat > tol
    upper |= mat < -tol
    # upper > tri drops the diagonal and below, in place
    np.greater(upper, np.tri(n, dtype=bool), out=upper)
    # one row-major pass: flat indices give the rows, columns and weights
    flat = np.flatnonzero(upper)
    del upper
    weights = mat.ravel()[flat]
    rows = np.empty_like(flat)
    np.divmod(flat, n, out=(rows, flat))  # flat becomes the column array
    return EdgeList._adopt(rows, flat, weights)


def separates(g: BeginGraph) -> bool:
    """True iff removing the center nodes disconnects left wing from right.

    Every node outside the center lies on a wing, so a path from the left
    wing to the right one that avoids the center must cross a left-right
    edge somewhere; separation is the absence of such an edge.  A graph
    that still holds its SchurResult answers from its off-block, the
    entries of Omega[L, R], the only ones a left-right edge can come from;
    any other reads its edges' wing codes.
    """
    if g._inverse is not None:
        corner = g._inverse.offblock()
        return not ((corner > g.tol).any() or (corner < -g.tol).any())
    codes = g.codes
    # B, L, R are codes 0, 1, 2: only a left-right edge XORs to 3
    return not ((codes[g.edges.rows] ^ codes[g.edges.cols]) == 3).any()


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(g: BeginGraph, format: str) -> str:
    """Render to DOT (three wing clusters) or JSON; byte-stable output."""
    kind = format.lower()
    if kind == "dot":
        return _export_dot(g)
    if kind == "json":
        return _export_json(g)
    raise ValueError(f"unknown format {format!r}; use dot or json")


def _node_text(n: int, prefix: str) -> np.ndarray:
    """prefix + str(i) for every node index i, looked up per edge: copying a
    string costs less than printing an int."""
    return np.array([f"{prefix}{i}" for i in range(n)], dtype=object)


def _export_dot(g: BeginGraph) -> str:
    lines = ["graph begin {", "  node [shape=ellipse];"]
    for wing in ("L", "B", "R"):
        lines.append(f"  subgraph cluster_{wing} {{")
        lines.append(f"    label={_dot_quote(wing)};")
        for i, node in enumerate(g.nodes):
            if node.wing == wing:
                lines.append(f"    n{i} [label={_dot_quote(node.label)}];")
        lines.append("  }")
    edges = g.edges
    max_w = float(np.abs(edges.weights).max()) if edges.weights.size else 1.0

    def pen_width(weights: np.ndarray) -> np.ndarray:
        # 0.5 + 2.5 * |w| / max_w, the per-edge float operations in their
        # order; a weight past 7e307 gives inf, as the Python float product did
        with np.errstate(over="ignore"):
            return 0.5 + 2.5 * np.abs(weights) / max_w

    names = _node_text(len(g.nodes), "n")
    body = format_rows(
        "  %s -- %s [%s];\n", (names, edges.rows), (names, edges.cols),
        distinct_column('weight="%.17g", penwidth="%.3f"', edges.weights, pen_width),
    )
    # one join, so no partial copy of the whole text is ever made
    return "".join(["\n".join(lines), "\n", *body, "}\n"])


def _export_json(g: BeginGraph) -> str:
    nodes = [
        {"bits": node.mask.to_string(), "wing": node.wing, "label": node.label}
        for node in g.nodes
    ]
    edges = g.edges
    # finite weights (BeginGraph refuses others), whose repr is json's
    ids = _node_text(len(g.nodes), "")
    listed = list(format_rows(",[%s,%s,%s]", (ids, edges.rows), (ids, edges.cols),
                              distinct_column("%r", edges.weights)))
    if listed:
        listed[0] = listed[0][1:]
    width = g.nodes[0].mask.width if g.nodes else 0
    # the keys in sort_keys order, with the separators of the whole-object
    # dump, in one join
    return "".join([
        '{"edges":[', *listed,
        '],"nodes":', json.dumps(nodes, sort_keys=True, separators=(",", ":")),
        ',"tol":', json.dumps(g.tol), ',"width":', json.dumps(width), "}\n",
    ])


def graph_from_json(text: str) -> BeginGraph:
    """Inverse of the JSON export; rejects structurally invalid payloads."""
    obj = json.loads(text)
    nodes = tuple(
        GraphNode(
            mask=Mask.from_string(entry["bits"]),
            wing=entry["wing"],
            label=entry["label"],
        )
        for entry in obj["nodes"]
    )
    edges = EdgeList.from_triples(obj["edges"])
    return BeginGraph(nodes=nodes, edges=edges, tol=float(obj["tol"]))
