"""Dyadic quantization of [-1,1] variables and the depth-d CI discrepancy.

A coordinate is cut into 2^d equal cells; the cell center has an exact
d-term sign expansion, so each quantized coordinate becomes d new +-1
variables and the CI machinery applies unchanged.  Analytic sources carry
exact conditional structure, which keeps the discrepancy arithmetic honest:
piecewise-constant grids are dyadic-exact, tilted-density sources have
closed-form cell probabilities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bitgroup import WIDTH_CAP, Partition, _admit
from .distribution import Pmf
from .engine import CiVerdict, test_ci

__all__ = [
    "QuantConfig",
    "quantize_index",
    "quantize_value",
    "GridSource",
    "SmoothSource",
    "source_from_json",
    "quantized_pmf",
    "quantized_partition",
    "quantized_ci_scan",
    "DeltaPoint",
    "DeltaReport",
    "delta_curve",
]

# full-event enumeration walks all 2^n subsets per side
_EXACT_ATOM_CAP = 12


@dataclass(frozen=True)
class QuantConfig:
    """Depth and coordinate counts of one quantization run."""

    d: int
    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"depth must be >= 1, got {self.d}")
        if min(self.r, self.s, self.t) < 0 or self.r + self.s + self.t < 1:
            raise ValueError("coordinate counts must be nonnegative, total >= 1")
        if self.total_bits > WIDTH_CAP:
            raise ValueError(
                f"{self.total_bits} quantized bits exceed the {WIDTH_CAP}-bit cap"
            )

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.r, self.s, self.t)

    @property
    def total_bits(self) -> int:
        return self.d * (self.r + self.s + self.t)


def quantize_index(x, d: int):
    """Dyadic cell number in 0..2^d-1; x = 1 clamps into the top cell."""
    if d < 1:
        raise ValueError(f"depth must be >= 1, got {d}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not (arr.min() >= -1.0 and arr.max() <= 1.0):
        raise ValueError("values must lie in [-1, 1]")
    idx = np.minimum(np.floor((arr + 1.0) * (1 << (d - 1))), (1 << d) - 1)
    idx = idx.astype(np.int64)
    return int(idx) if np.isscalar(x) else idx


def quantize_value(x, d: int):
    """Center of the dyadic cell containing x: -1 + 2^-d + 2^(1-d) * cell."""
    idx = quantize_index(x, d)
    val = -1.0 + 2.0 ** (-d) + 2.0 ** (1 - d) * np.asarray(idx, dtype=np.float64)
    return float(val) if np.isscalar(x) else val


def _cell_centers(d: int) -> np.ndarray:
    return -1.0 + 2.0 ** (-d) + 2.0 ** (1 - d) * np.arange(1 << d)


def _check_pmf_rows(tables: Sequence[Tuple[str, np.ndarray]]) -> None:
    """Refuse the first row that is not a probability vector, taking row j of
    every table in turn before row j + 1; all rows are checked in one pass.
    A row holding a nan fails both comparisons and is refused."""
    bad = np.stack(
        [~(rows.min(axis=1) >= 0.0) | ~(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
         for _, rows in tables]
    )
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        name = tables[int(np.argmax(bad[:, j]))][0]
        raise ValueError(f"{name} must be a probability vector")


def _check_constants(source: Source) -> None:
    """Refuse a declared Holder constant (alpha, l_u, l_w) that is not
    finite and positive; an undeclared one is None."""
    for name in ("alpha", "l_u", "l_w"):
        value = getattr(source, name)
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class GridSource:
    """Piecewise-constant joint density on a dyadic grid, V-conditional.

    U and W are conditionally uniform within their atoms given the V-atom;
    conditional atom weights come either as a product (u_given_v, w_given_v:
    conditional independence built in) or as one full table uw_given_v.
    """

    v_depth: int
    v_probs: np.ndarray
    u_depth: int
    w_depth: int
    u_given_v: Optional[np.ndarray] = None
    w_given_v: Optional[np.ndarray] = None
    uw_given_v: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    l_u: Optional[float] = None
    l_w: Optional[float] = None

    def __post_init__(self) -> None:
        _check_constants(self)
        for depth in (self.v_depth, self.u_depth, self.w_depth):
            if not 0 <= depth <= WIDTH_CAP:
                raise ValueError(f"bad grid depth {depth}")
        nv, nu, nw = 1 << self.v_depth, 1 << self.u_depth, 1 << self.w_depth
        depths = f"u={self.u_depth}, v={self.v_depth}, w={self.w_depth}"
        _admit(f"the atom table of grid depths {depths}", nu, nv, nw)
        vp = np.asarray(self.v_probs, dtype=np.float64).reshape(nv)
        _check_pmf_rows([("v_probs", vp.reshape(1, nv))])
        object.__setattr__(self, "v_probs", vp)
        product_mode = self.u_given_v is not None or self.w_given_v is not None
        if product_mode == (self.uw_given_v is not None):
            raise ValueError("supply either u_given_v/w_given_v or uw_given_v")
        if product_mode:
            ug = np.asarray(self.u_given_v, dtype=np.float64).reshape(nv, nu)
            wg = np.asarray(self.w_given_v, dtype=np.float64).reshape(nv, nw)
            _check_pmf_rows([("u_given_v row", ug), ("w_given_v row", wg)])
            object.__setattr__(self, "u_given_v", ug)
            object.__setattr__(self, "w_given_v", wg)
        else:
            uw = np.asarray(self.uw_given_v, dtype=np.float64).reshape(nv, nu, nw)
            _check_pmf_rows([("uw_given_v slice", uw.reshape(nv, -1))])
            object.__setattr__(self, "uw_given_v", uw)

    @property
    def max_depth(self) -> int:
        return max(self.v_depth, self.u_depth, self.w_depth)

    def _atom_table(self) -> np.ndarray:
        """Joint atom probabilities, axes (U-atom, V-atom, W-atom)."""
        if self.uw_given_v is not None:
            return np.einsum("b,bac->abc", self.v_probs, self.uw_given_v)
        return np.einsum(
            "b,ba,bc->abc", self.v_probs, self.u_given_v, self.w_given_v
        )

    def joint_table(self, d: int) -> np.ndarray:
        """Exact joint of (U_d, V_d, W_d) cells; dyadic inputs stay exact.

        Each axis is refined or merged on its own.  The merging axes go
        first, so no intermediate outgrows the atom table or the result.
        """
        table = self._atom_table()
        depths = (self.u_depth, self.v_depth, self.w_depth)
        for axis in sorted(range(3), key=lambda ax: d >= depths[ax]):
            table = _to_depth(table, axis, depths[axis], d)
        return table

    def measured_constants(self) -> Optional[Tuple[float, float, float]]:
        if None in (self.alpha, self.l_u, self.l_w):
            return None
        return (self.alpha, self.l_u, self.l_w)


def _to_depth(table: np.ndarray, axis: int, atom_depth: int, d: int) -> np.ndarray:
    """Atom masses along one axis to depth-d cell masses.

    A coordinate is uniform inside its atom, so refining splits each atom
    evenly over its 2^(d - atom_depth) cells (exact: a power-of-two
    scaling), and merging sums each run of 2^(atom_depth - d) atoms.
    """
    if d >= atom_depth:
        split = 1 << (d - atom_depth)
        out = np.repeat(table, split, axis=axis)
        out /= split
        return out
    shape = list(table.shape)
    shape[axis : axis + 1] = [1 << d, 1 << (atom_depth - d)]
    return table.reshape(shape).sum(axis=axis + 1)


@dataclass(frozen=True)
class SmoothSource:
    """Tilted-density source: U and W conditionally linear in shape given V.

    V has a piecewise-constant density on 2^v_depth dyadic atoms; given
    V = v, U has density (1 + m_U(v) u)/2 on [-1,1] with m_U affine on each
    V-atom (rows of u_mean are (intercept, slope)), and W likewise.  U and W
    are conditionally independent given the exact V, so any dependence of
    the quantized variables is pure discretization effect.
    """

    v_depth: int
    v_probs: np.ndarray
    u_mean: np.ndarray
    w_mean: np.ndarray
    alpha: Optional[float] = None
    l_u: Optional[float] = None
    l_w: Optional[float] = None

    def __post_init__(self) -> None:
        _check_constants(self)
        if not 0 <= self.v_depth <= WIDTH_CAP:
            raise ValueError(f"bad grid depth {self.v_depth}")
        nv = 1 << self.v_depth
        vp = np.asarray(self.v_probs, dtype=np.float64).reshape(nv)
        _check_pmf_rows([("v_probs", vp.reshape(1, nv))])
        um = np.asarray(self.u_mean, dtype=np.float64).reshape(nv, 2)
        wm = np.asarray(self.w_mean, dtype=np.float64).reshape(nv, 2)
        edges = -1.0 + 2.0 ** (1 - self.v_depth) * np.arange(nv + 1)
        for name, coef in (("u_mean", um), ("w_mean", wm)):
            if not np.isfinite(coef).all():
                raise ValueError(f"{name} holds a non-finite coefficient")
            ends = np.stack(
                [coef[:, 0] + coef[:, 1] * edges[:-1], coef[:, 0] + coef[:, 1] * edges[1:]]
            )
            if np.abs(ends).max() > 1.0 + 1e-12:
                raise ValueError(f"{name} exceeds magnitude 1 on some atom")
        object.__setattr__(self, "v_probs", vp)
        object.__setattr__(self, "u_mean", um)
        object.__setattr__(self, "w_mean", wm)

    @property
    def max_depth(self) -> int:
        return self.v_depth

    def joint_table(self, d: int) -> np.ndarray:
        """Closed-form joint of (U_d, V_d, W_d): polynomial piece integrals."""
        # the fine intervals are the depth-d cells split at the atom edges:
        # each lies in one cell and one atom
        depth = max(d, self.v_depth)
        fine = np.arange(1 << depth)
        atom = fine >> (depth - self.v_depth)
        edges = -1.0 + 2.0 ** (1 - depth) * np.arange((1 << depth) + 1)
        # numpy's vector power rounds some cubes past 18 bits differently
        # from the scalar power
        cubes = np.array([x**3 for x in edges.tolist()])
        lo, hi = edges[:-1], edges[1:]
        j0 = hi - lo
        j1 = (hi * hi - lo * lo) / 2.0
        j2 = (cubes[1:] - cubes[:-1]) / 3.0
        rho = self.v_probs[atom] / 2.0 ** (1 - self.v_depth)
        c0u, c1u = self.u_mean[atom].T
        c0w, c1w = self.w_mean[atom].T
        pieces = (
            rho * j0,
            rho * (c0u * j0 + c1u * j1),
            rho * (c0w * j0 + c1w * j1),
            rho * (c0u * c0w * j0 + (c0u * c1w + c1u * c0w) * j1 + c1u * c1w * j2),
        )
        # bincount adds each cell's pieces onto zero in ascending atom order
        cell = fine >> (depth - d)
        a0, au, aw, ax = (np.bincount(cell, weights=w, minlength=1 << d) for w in pieces)
        ubar = _cell_centers(d)
        wbar = _cell_centers(d)
        table = (
            a0[None, :, None]
            + ubar[:, None, None] * au[None, :, None]
            + wbar[None, None, :] * aw[None, :, None]
            + ubar[:, None, None] * wbar[None, None, :] * ax[None, :, None]
        )
        return table / float(1 << (2 * d))

    def measured_constants(self) -> Optional[Tuple[float, float, float]]:
        """Holder data (alpha, L_U, L_W) from the mean families.

        Declared values win; otherwise alpha = 1 with L = max slope / 4,
        valid only when each mean family is continuous across atoms.
        """
        if None not in (self.alpha, self.l_u, self.l_w):
            return (self.alpha, self.l_u, self.l_w)
        nv = 1 << self.v_depth
        edges = -1.0 + 2.0 ** (1 - self.v_depth) * np.arange(nv + 1)
        for coef in (self.u_mean, self.w_mean):
            left = coef[1:, 0] + coef[1:, 1] * edges[1:-1]
            right = coef[:-1, 0] + coef[:-1, 1] * edges[1:-1]
            if left.size and np.abs(left - right).max() > 1e-12:
                return None
        return (
            1.0,
            float(np.abs(self.u_mean[:, 1]).max()) / 4.0,
            float(np.abs(self.w_mean[:, 1]).max()) / 4.0,
        )


Source = Union[GridSource, SmoothSource]


def source_from_json(text: str) -> Source:
    """Parse an analytic source spec; kind selects grid or smooth."""
    obj = json.loads(text)
    kind = obj.get("kind")
    common = {
        key: obj[key] for key in ("alpha", "l_u", "l_w") if key in obj
    }
    if kind == "grid":
        return GridSource(
            v_depth=int(obj["v_depth"]),
            v_probs=np.asarray(obj["v_probs"], dtype=np.float64),
            u_depth=int(obj["u_depth"]),
            w_depth=int(obj["w_depth"]),
            u_given_v=_opt_array(obj.get("u_given_v")),
            w_given_v=_opt_array(obj.get("w_given_v")),
            uw_given_v=_opt_array(obj.get("uw_given_v")),
            **common,
        )
    if kind == "smooth":
        return SmoothSource(
            v_depth=int(obj["v_depth"]),
            v_probs=np.asarray(obj["v_probs"], dtype=np.float64),
            u_mean=np.asarray(obj["u_mean"], dtype=np.float64),
            w_mean=np.asarray(obj["w_mean"], dtype=np.float64),
            **common,
        )
    raise ValueError(f"unknown source kind {kind!r}")


def _opt_array(val) -> Optional[np.ndarray]:
    return None if val is None else np.asarray(val, dtype=np.float64)


def quantized_partition(cfg: QuantConfig) -> Partition:
    """Coordinate blocks of the quantized bits: U bits | V bits | W bits."""
    return Partition.coordinate_split(
        cfg.d * cfg.r, cfg.d * cfg.s, cfg.d * cfg.t
    )


def quantized_pmf(data, cfg: QuantConfig) -> Pmf:
    """Pmf of the quantized sign bits from samples or an analytic source.

    A sample matrix is n x (r+s+t) with entries in [-1,1], columns ordered
    (U..., V..., W...).  Cell bits encode -1 as 1, so a coordinate's bit
    pattern is the complement of its cell number.
    """
    if isinstance(data, (GridSource, SmoothSource)):
        if cfg.dims != (1, 1, 1):
            raise ValueError("analytic sources are scalar: dims must be (1,1,1)")
        # sign bits are the complemented cell number: each axis flips
        table = data.joint_table(cfg.d)[::-1, ::-1, ::-1]
        return Pmf(cfg.total_bits, table.reshape(-1), meta={"generator": "quantized-source"})
    arr = np.asarray(data, dtype=np.float64)
    n_coords = cfg.r + cfg.s + cfg.t
    if arr.ndim != 2 or arr.shape[1] != n_coords or not arr.shape[0]:
        raise ValueError(f"expected n x {n_coords} samples, got shape {arr.shape}")
    top = (1 << cfg.d) - 1
    cells = np.zeros(arr.shape[0], dtype=np.int64)
    for col in range(n_coords):
        cells = (cells << cfg.d) | (top ^ quantize_index(arr[:, col], cfg.d))
    counts = np.bincount(cells, minlength=1 << cfg.total_bits)
    meta = {"generator": "quantized-samples", "n": arr.shape[0], "d": cfg.d}
    return Pmf(cfg.total_bits, counts / arr.shape[0], meta=meta)


def quantized_ci_scan(
    source: Source, depths: Sequence[int], tol: float = 1e-8
) -> List[CiVerdict]:
    """Engine verdicts for U_d vs W_d given V_d at each requested depth."""
    verdicts = []
    for d in depths:
        cfg = QuantConfig(d=d, r=1, s=1, t=1)
        pmf = quantized_pmf(source, cfg)
        verdicts.append(test_ci(pmf, quantized_partition(cfg), tol))
    return verdicts


@dataclass(frozen=True)
class DeltaPoint:
    """Discrepancy tiers at one depth; exact is None beyond enumeration."""

    d: int
    delta_rect: float
    delta_exact: Optional[float]
    delta_upper: float
    bound_rhs: Optional[float]

    def __post_init__(self) -> None:
        slack = 1e-12 * (1.0 + self.delta_upper)
        if self.delta_exact is not None:
            if not (
                self.delta_rect <= self.delta_exact + slack
                and self.delta_exact <= self.delta_upper + slack
            ):
                raise ValueError(f"tier ordering violated at depth {self.d}")
        elif self.delta_rect > self.delta_upper + slack:
            raise ValueError(f"tier ordering violated at depth {self.d}")


@dataclass(frozen=True)
class DeltaReport:
    """Discrepancy-versus-depth table with the rate-bound constants used."""

    points: Tuple[DeltaPoint, ...]
    alpha: Optional[float]
    l_u: Optional[float]
    l_w: Optional[float]
    mode: str

    def to_csv(self) -> str:
        lines = ["d,delta_rect,delta_exact,delta_upper,bound_rhs"]
        for pt in self.points:
            cells = [
                str(pt.d),
                f"{pt.delta_rect:.17g}",
                "" if pt.delta_exact is None else f"{pt.delta_exact:.17g}",
                f"{pt.delta_upper:.17g}",
                "" if pt.bound_rhs is None else f"{pt.bound_rhs:.17g}",
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _subset_indicators(n: int) -> np.ndarray:
    """All-subsets 0/1 matrix, row index read as a bitmask over atoms."""
    rows = np.arange(1 << n, dtype=np.int64)
    return ((rows[:, None] >> np.arange(n)) & 1).astype(np.float64)


def delta_curve(
    source: Source,
    depths: Sequence[int],
    mode: str = "auto",
    constants: Optional[Tuple[float, float, float]] = None,
) -> DeltaReport:
    """Quantized-CI discrepancy per depth, three tiers per point.

    rect restricts events to single-atom rectangles; exact enumerates every
    event pair (feasible only for small atom counts); upper is the half-L1
    envelope, always valid.  The sup sits outside the expectation over the
    conditioning cell in every tier.  Mode only picks the exact tier (exact;
    auto within the atom cap): rect and upper both skip it, byte-equal CSVs.
    """
    if mode not in ("auto", "rect", "exact", "upper"):
        raise ValueError(f"unknown mode {mode!r}")
    if constants is None:
        constants = source.measured_constants()
    # each depth's joint table holds (2^d)^3 float64 cells, so every depth
    # is checked before any table is built
    for d in depths:
        if d < 0:
            raise ValueError(f"depth must be >= 0, got {d}")
        cells = 1 << d
        _admit(f"the depth {d} joint table", cells, cells, cells)
        if mode == "exact" and cells > _EXACT_ATOM_CAP:
            raise ValueError(
                f"exact mode needs <= {_EXACT_ATOM_CAP} atoms per side, got {cells}"
            )
    points = []
    for d in depths:
        cells = 1 << d
        want_exact = mode in ("exact", "auto") and cells <= _EXACT_ATOM_CAP
        table = source.joint_table(d)
        nu, nw = table.shape[0], table.shape[2]
        p_v = table.sum(axis=(0, 2))
        acc_rect = np.zeros((nu, nw))
        upper = 0.0
        acc_exact = (
            np.zeros((1 << nu, 1 << nw)) if want_exact else None
        )
        su = _subset_indicators(nu) if want_exact else None
        sw = _subset_indicators(nw) if want_exact else None
        for j in np.flatnonzero(p_v > 0.0):
            q = table[:, j, :] / p_v[j]
            e = q - np.outer(q.sum(axis=1), q.sum(axis=0))
            acc_rect += p_v[j] * np.abs(e)
            upper += p_v[j] * 0.5 * float(np.abs(e).sum())
            if want_exact:
                acc_exact += p_v[j] * np.abs(su @ e @ sw.T)
        rect = float(acc_rect.max()) if acc_rect.size else 0.0
        exact = float(acc_exact.max()) if want_exact else None
        bound = None
        if constants is not None:
            alpha, l_u, l_w = constants
            # scalar V, so the s^alpha factor is 1
            bound = l_u * l_w * 2.0 ** (2 * alpha * (1 - d) - 2)
        points.append(
            DeltaPoint(
                d=d,
                delta_rect=rect,
                delta_exact=exact,
                delta_upper=upper,
                bound_rhs=bound,
            )
        )
    alpha, l_u, l_w = constants if constants is not None else (None, None, None)
    return DeltaReport(
        points=tuple(points), alpha=alpha, l_u=l_u, l_w=l_w, mode=mode
    )
