"""Undirected graph on interaction masks with edges from the block inverse.

Center nodes come first, then the wings; an edge joins two distinct nodes
whenever the matching entry of the block inverse clears the tolerance.
Separation of the wings by the center is the graphical face of the CI
verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ._textrows import distinct_column, format_rows
from .bitgroup import IndexSets, Mask, Partition

__all__ = [
    "GraphNode",
    "NodeList",
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
_WING_LETTERS = np.array(list(_WINGS))


class NodeList:
    """Read-only sequence of GraphNodes whose wings are held as an array.

    Iterates, indexes, measures and compares equal like the tuple of nodes
    it stands for.  codes holds each node's wing as its index in "BLR"
    (int8).  A graph built from index sets makes its nodes, with
    their display labels, only when they are first read: a verdict needs
    only the wings.
    """

    __slots__ = ("codes", "_index_sets", "_nodes")

    def __init__(self, nodes: Iterable[GraphNode]) -> None:
        nodes = tuple(nodes)
        codes = np.array([_WINGS.index(node.wing) for node in nodes], dtype=np.int8)
        self._set(codes, None, nodes)

    @classmethod
    def of_index_sets(cls, labels: IndexSets) -> "NodeList":
        """Center, left and right wing masks in order, labelled on first read."""
        out = cls.__new__(cls)
        counts = (labels.b_bits.size, labels.l_bits.size, labels.r_bits.size)
        out._set(np.repeat(_WING_CODES, counts), labels, None)
        return out

    def _set(self, codes: np.ndarray, labels: Optional[IndexSets], nodes) -> None:
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_index_sets", labels)
        object.__setattr__(self, "_nodes", nodes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NodeList is read-only")

    @property
    def wings(self) -> np.ndarray:
        """Each node's wing letter."""
        return _WING_LETTERS[self.codes]

    @property
    def _tuple(self) -> Tuple[GraphNode, ...]:
        if self._nodes is None:
            object.__setattr__(self, "_nodes", _labelled_nodes(self._index_sets))
        return self._nodes

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._tuple)

    def __getitem__(self, index):
        return self._tuple[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeList):
            return self._tuple == other._tuple
        if isinstance(other, tuple):
            return self._tuple == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return f"NodeList({self._tuple!r})"


Edge = Tuple[int, int, float]


class EdgeList:
    """Read-only sequence of (i, j, weight) edges held as three flat arrays.

    Iterates, indexes, measures and compares equal like the tuple of
    (int, int, float) triples it stands for, without holding a Python object
    per edge: a dense block inverse can give millions of edges.
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return (int(self.rows[index]), int(self.cols[index]), float(self.weights[index]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeList):
            return (
                np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.weights, other.weights)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EdgeList({tuple(self)!r})"


@dataclass(frozen=True)
class BeginGraph:
    """Thresholded adjacency of the block inverse, wing-annotated.

    nodes may be given as any iterable of GraphNodes and edges as any
    iterable of (i, j, weight) triples; they are stored as a NodeList and
    an EdgeList.
    """

    nodes: NodeList
    edges: EdgeList
    tol: float

    def __post_init__(self) -> None:
        _require_tolerance("tol", self.tol)
        if not isinstance(self.nodes, NodeList):
            object.__setattr__(self, "nodes", NodeList(self.nodes))
        edges = self.edges
        if not isinstance(edges, EdgeList):
            edges = EdgeList.from_triples(edges)
            object.__setattr__(self, "edges", edges)
        n = len(self.nodes)
        rows, cols, weights = edges.rows, edges.cols, edges.weights
        bad_index = (rows < 0) | (rows >= cols) | (cols >= n)
        finite = np.isfinite(weights)
        bad = bad_index | ~finite | (np.abs(weights) <= self.tol)
        if bad.any():
            k = int(np.argmax(bad))
            i, j, w = edges[k]
            if bad_index[k]:
                raise ValueError(f"bad edge ({i},{j}) for {n} nodes")
            if not finite[k]:
                raise ValueError(f"edge ({i},{j}) weight {w} is not finite")
            raise ValueError(f"edge ({i},{j}) weight {w} inside tolerance")

    @classmethod
    def _adopt(cls, nodes: NodeList, edges: EdgeList, tol: float) -> "BeginGraph":
        """A graph over nodes, edges and a tolerance the caller made valid
        together, as build_graph does: they are not checked again."""
        out = cls.__new__(cls)
        for name, value in (("nodes", nodes), ("edges", edges), ("tol", tol)):
            object.__setattr__(out, name, value)
        return out


def _require_tolerance(name: str, value: float) -> None:
    """Refuse a negative or non-finite tolerance: -1 would make every pair an
    edge, and NaN or infinity none."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


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


def build_graph(omega: np.ndarray, labels: IndexSets, tol: float) -> BeginGraph:
    """Threshold the n x n block inverse into an undirected wing-labeled graph."""
    _require_tolerance("tol", tol)
    n = labels.b_bits.size + labels.l_bits.size + labels.r_bits.size
    mat = np.asarray(omega, dtype=np.float64)
    if mat.shape != (n, n):
        raise ValueError(f"omega shape {mat.shape} does not match {n} labeled masks")
    # |entry| > tol over the strict upper triangle, with no |omega| temporary
    upper = mat > tol
    upper |= mat < -tol
    upper &= ~np.tri(n, dtype=bool)
    # one row-major pass: flat indices give the rows, columns and weights
    flat = np.flatnonzero(upper)
    rows, cols = np.divmod(flat, n)
    edges = EdgeList._adopt(rows, cols, mat.ravel()[flat])
    return BeginGraph._adopt(NodeList.of_index_sets(labels), edges, tol)


def separates(g: BeginGraph) -> bool:
    """True iff removing the center nodes disconnects left wing from right.

    Every node outside the center lies on a wing, so a path from the left
    wing to the right one that avoids the center must cross a left-right
    edge somewhere; separation is the absence of such an edge.
    """
    codes = g.nodes.codes
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


# the text of every "%.3f" pen width a table lookup gives: widths lie in [0.5, 3]
_PEN_TEXT = np.array([f"{k // 1000}.{k % 1000:03d}" for k in range(3001)], dtype=object)


def _pen_text(pen: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A (table, index) column giving "%.3f" % v for each pen width v.

    fl(1000 v) lies within 2^-41 of the exact 1000 v for v < 4, so where it is
    more than 1e-6 from a half-integer both round to the same thousandth,
    whose text _PEN_TEXT holds.  The rest, near-ties and inf, are formatted
    by "%.3f" itself and appended to the table.
    """
    thousandths = pen * 1000.0
    k = np.rint(thousandths)
    with np.errstate(invalid="ignore"):  # inf - inf
        clear = (np.abs(thousandths - k) < 0.5 - 1e-6) & (k <= 3000)
    index = np.where(clear, k, 0.0).astype(np.int64)
    unclear = np.flatnonzero(~clear)
    index[unclear] = _PEN_TEXT.size + np.arange(unclear.size)
    extra = np.array(["%.3f" % v for v in pen[unclear].tolist()], dtype=object)
    return np.concatenate([_PEN_TEXT, extra]), index


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

    def pen_text(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # 0.5 + 2.5 * |w| / max_w, the per-edge float operations in their
        # order; a weight past 7e307 gives inf, as the Python float product did
        with np.errstate(over="ignore"):
            return _pen_text(0.5 + 2.5 * np.abs(weights) / max_w)

    names = _node_text(len(g.nodes), "n")
    body = format_rows(
        "  %s -- %s [%s];\n", (names, edges.rows), (names, edges.cols),
        distinct_column('weight="%.17g", penwidth="%s"', edges.weights, pen_text),
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
