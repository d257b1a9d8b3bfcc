"""GF(2) algebra of interaction masks.

A mask over p binary coordinates selects which coordinates enter a product
interaction: bit j set means coordinate X_j is a factor.  Coordinate X_1 is
the MOST significant bit everywhere, so the string "100" at width 3 is the
first coordinate alone.  Multiplying two interactions XORs their masks, which
makes every collection of interactions a GF(2) linear span; the wing/center
index sets are span differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "WIDTH_CAP",
    "Mask",
    "MaskSpan",
    "Partition",
    "IndexSets",
    "mask_product",
    "span_generate",
    "span_intersect",
    "build_index_sets",
    "partition_to_json",
    "partition_from_json",
]

# dense 2^p objects downstream become infeasible past this
WIDTH_CAP = 24


@dataclass(frozen=True, order=True)
class Mask:
    """One interaction: bit j set iff coordinate X_j enters the product."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= WIDTH_CAP:
            raise ValueError(f"width must be in 1..{WIDTH_CAP}, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits {self.bits} out of range for width {self.width}")

    @classmethod
    def from_string(cls, text: str) -> "Mask":
        """Parse a {0,1} string, X_1 leftmost."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"mask string must be nonempty over {{0,1}}, got {text!r}")
        return cls(int(text, 2), len(text))

    def to_string(self) -> str:
        return format(self.bits, f"0{self.width}b")

    def coords(self) -> tuple[int, ...]:
        """1-based coordinates in the product, ascending."""
        return tuple(
            j + 1 for j in range(self.width) if self.bits >> (self.width - 1 - j) & 1
        )

    @property
    def is_identity(self) -> bool:
        return self.bits == 0

    def __str__(self) -> str:
        return self.to_string()


def _check_same_width(a: Mask, b: Mask) -> None:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")


def mask_product(a: Mask, b: Mask) -> Mask:
    """Product of interactions X_a * X_b = X_(a XOR b)."""
    _check_same_width(a, b)
    return Mask(a.bits ^ b.bits, a.width)


def _echelon_basis(vectors: Iterable[int]) -> list[int]:
    """Reduced row-echelon GF(2) basis as ints, descending by pivot bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            pivot = v.bit_length() - 1
            if pivot in basis:
                v ^= basis[pivot]
            else:
                basis[pivot] = v
                break
    # clear every pivot column from the other rows
    for p in sorted(basis):
        for q in list(basis):
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return [basis[p] for p in sorted(basis, reverse=True)]


@dataclass(frozen=True)
class MaskSpan:
    """GF(2) span of masks, kept as a reduced echelon basis."""

    basis: tuple[Mask, ...]
    width: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.dim

    def __contains__(self, mask: Mask) -> bool:
        if mask.width != self.width:
            raise ValueError(f"width mismatch: {mask.width} != {self.width}")
        return self._rest(mask.bits) == 0

    def _rest(self, v: int) -> int:
        """v with every basis pivot bit cleared: 0 exactly on the span."""
        for b in self.basis:
            if v >> (b.bits.bit_length() - 1) & 1:
                v ^= b.bits
        return v

    def member_bits(self) -> np.ndarray:
        """All 2^dim elements as an int64 array in group order.

        Index c selects basis elements by its bits, basis[0] most significant,
        so element[c1] XOR element[c2] = element[c1 XOR c2].
        """
        members = np.zeros(1, dtype=np.int64)
        for b in reversed(self.basis):
            members = np.concatenate([members, members ^ b.bits])
        return members

    def complement_in(self, other: "MaskSpan") -> "MaskSpan":
        """The rests of other's members: a span that meets this one only in
        0 and, with it, spans everything other does."""
        rows = _echelon_basis(self._rest(b.bits) for b in other.basis)
        return MaskSpan(tuple(Mask(r, self.width) for r in rows), self.width)


def span_generate(gens: Sequence[Mask], width: Optional[int] = None) -> MaskSpan:
    """Reduced echelon span of the given masks; {0} for an empty list."""
    if gens:
        w = gens[0].width
        for g in gens[1:]:
            _check_same_width(gens[0], g)
    elif width is not None:
        w = width
    else:
        raise ValueError("empty generator list needs an explicit width")
    rows = _echelon_basis(g.bits for g in gens)
    return MaskSpan(tuple(Mask(r, w) for r in rows), w)


def span_intersect(u: MaskSpan, v: MaskSpan) -> MaskSpan:
    """Intersection of two spans (Zassenhaus over GF(2) with paired bits)."""
    if u.width != v.width:
        raise ValueError(f"width mismatch: {u.width} != {v.width}")
    w = u.width
    # rows (x | x) for x in u and (y | 0) for y in v; after elimination the
    # rows whose high half vanished carry a basis of the intersection low.
    rows = [(b.bits << w) | b.bits for b in u.basis] + [b.bits << w for b in v.basis]
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            pivot = r.bit_length() - 1
            if pivot in basis:
                r ^= basis[pivot]
            else:
                basis[pivot] = r
                break
    low = [r & ((1 << w) - 1) for p, r in basis.items() if p < w]
    return MaskSpan(tuple(Mask(b, w) for b in _echelon_basis(low)), w)


@dataclass(frozen=True)
class Partition:
    """Three generator-mask lists defining derived binary vectors A, B, C."""

    p: int
    a_gens: tuple[Mask, ...]
    b_gens: tuple[Mask, ...]
    c_gens: tuple[Mask, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.p <= WIDTH_CAP:
            raise ValueError(f"base width must be in 1..{WIDTH_CAP}, got {self.p}")
        object.__setattr__(self, "a_gens", tuple(self.a_gens))
        object.__setattr__(self, "b_gens", tuple(self.b_gens))
        object.__setattr__(self, "c_gens", tuple(self.c_gens))
        for gens in (self.a_gens, self.b_gens, self.c_gens):
            for g in gens:
                if g.width != self.p:
                    raise ValueError(f"generator width {g.width} != base width {self.p}")
                if g.is_identity:
                    raise ValueError("generator masks must be nonzero")
        all_gens = self.a_gens + self.b_gens + self.c_gens
        union_dim = span_generate(all_gens, width=self.p).dim if all_gens else 0
        if union_dim < 1:
            raise ValueError("the union of the generator spans must be nondegenerate")

    # the generator spans are computed on first read and kept; they are not
    # fields, so equality and hashing see only the generators

    @cached_property
    def a_span(self) -> "MaskSpan":
        return span_generate(self.a_gens, width=self.p)

    @cached_property
    def b_span(self) -> "MaskSpan":
        return span_generate(self.b_gens, width=self.p)

    @cached_property
    def c_span(self) -> "MaskSpan":
        return span_generate(self.c_gens, width=self.p)

    @cached_property
    def wing_complements(self) -> tuple["MaskSpan", "MaskSpan"]:
        """Complements of span(B) in span(A,B) and in span(B,C).

        Every left wing mask is alpha XOR beta for a unique nonzero alpha of
        the first and beta of span(B) (alpha is its rest modulo span(B)), and
        likewise on the right; a mask in both wings has its rest in both.
        """
        span_b = self.b_span
        return span_b.complement_in(self.a_span), span_b.complement_in(self.c_span)

    @classmethod
    def coordinate_split(cls, r: int, s: int, t: int) -> "Partition":
        """Disjoint single-coordinate blocks: first r coords A, next s B, last t C."""
        if min(r, s, t) < 0 or r + s + t < 1:
            raise ValueError("block sizes must be nonnegative with positive total")
        p = r + s + t
        single = lambda j: Mask(1 << (p - 1 - j), p)  # noqa: E731
        return cls(
            p,
            tuple(single(j) for j in range(r)),
            tuple(single(r + j) for j in range(s)),
            tuple(single(r + s + j) for j in range(t)),
        )


@dataclass(frozen=True, eq=False)
class IndexSets:
    """Center and wing masks: B = <B>\\{1}, L = <A,B>\\<B>, R = <B,C>\\<B>,
    each as read-only ascending int64 mask bits, and as Mask tuples made on
    first read.  Wing mask i (left wing, then right) is the center member
    beta[i] (b_span member_bits order) XOR complement character alpha[i]:
    the nonzero wing_complements members, left then right, in member_bits
    order.  overlap_count masks lie in both wings.
    """

    b_bits: np.ndarray
    l_bits: np.ndarray
    r_bits: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    overlap_count: int
    width: int
    part: Optional[Partition] = None

    def _masks(self, bits: Iterable[int]) -> tuple[Mask, ...]:
        return tuple(Mask(v, self.width) for v in bits)

    b_set = cached_property(lambda self: self._masks(self.b_bits.tolist()))
    l_set = cached_property(lambda self: self._masks(self.l_bits.tolist()))
    r_set = cached_property(lambda self: self._masks(self.r_bits.tolist()))

    @cached_property
    def overlap(self) -> tuple[Mask, ...]:
        """Masks present in both wings (derived-feature partitions only)."""
        return self._masks(sorted(set(self.l_bits.tolist()).intersection(self.r_bits.tolist())))

    def all_masks(self) -> tuple[Mask, ...]:
        return self.b_set + self.l_set + self.r_set


def build_index_sets(partition: Partition) -> IndexSets:
    """Index sets ordered (center, left wing, right wing), each ascending.

    Every wing mask is alpha XOR beta for exactly one nonzero alpha of the
    wing's complement and one beta of span(B), so a wing is its XOR table
    sorted, and each mask's place in the table is its (alpha, beta).
    """
    span_ab = span_generate(partition.a_gens + partition.b_gens, width=partition.p)
    span_bc = span_generate(partition.b_gens + partition.c_gens, width=partition.p)
    center = partition.b_span.member_bits()
    configs = len(center)
    a_comp, c_comp = partition.wing_complements
    # row alpha of the table is the complement character alpha
    chars = np.concatenate([a_comp.member_bits()[1:], c_comp.member_bits()[1:]])
    table = np.bitwise_xor.outer(chars, center).ravel()
    n_l = ((1 << a_comp.dim) - 1) * configs
    order = np.concatenate([np.argsort(table[:n_l]), n_l + np.argsort(table[n_l:])])
    wings = table[order]
    alpha, beta = np.divmod(order.astype(np.int32), configs)
    arrays = [np.sort(center)[1:], wings[:n_l], wings[n_l:], beta, alpha]
    for arr in (*arrays, wings):
        arr.flags.writeable = False
    overlap = (1 << span_intersect(span_ab, span_bc).dim) - configs
    return IndexSets(*arrays, overlap, partition.p, partition)


def partition_to_json(part: Partition) -> str:
    """Serialize to the partition file format: {"p":3,"A":["100"],...}."""
    obj = {
        "p": part.p,
        "A": [g.to_string() for g in part.a_gens],
        "B": [g.to_string() for g in part.b_gens],
        "C": [g.to_string() for g in part.c_gens],
    }
    return json.dumps(obj, sort_keys=True)


def partition_from_json(text: str) -> Partition:
    """Parse the partition file format; mask strings are {0,1}, X_1 leftmost."""
    obj = json.loads(text)
    try:
        p = obj["p"]
        lists = {key: list(obj.get(key, [])) for key in ("A", "B", "C")}
    except (TypeError, KeyError) as exc:
        raise ValueError(f"partition JSON missing field: {exc}") from exc
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"partition width p must be an integer, got {p!r}")

    def parse_block(strings: list) -> tuple[Mask, ...]:
        masks = []
        for s in strings:
            m = Mask.from_string(str(s))
            if m.width != p:
                raise ValueError(f"mask {s!r} has width {m.width}, expected {p}")
            masks.append(m)
        return tuple(masks)

    return Partition(p, parse_block(lists["A"]), parse_block(lists["B"]), parse_block(lists["C"]))
