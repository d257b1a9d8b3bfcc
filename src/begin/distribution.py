"""Exact pmfs over {+1,-1}^p, interaction moments, and test distributions.

Cells are indexed by bit patterns with X_1 most significant and bit j = 1
meaning X_j = -1, so cell 0 is the all-(+1) corner.  The generators round
probabilities to dyadic rationals (denominator 2^14 per conditional factor,
more for tables with over 2^14 positive cells), which keeps every oracle
identity exact in binary64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Sequence

import numpy as np

from ._textrows import distinct_column, field_counts, format_rows, read_lines
from .bitgroup import WIDTH_CAP
from .hadamard import fwht

__all__ = [
    "Pmf",
    "moments_from_pmf",
    "pmf_from_samples",
    "draw_samples",
    "interaction_cov",
    "make_ci_pmf",
    "make_generic_pmf",
    "make_ising_cycle_pmf",
    "write_pmf_csv",
    "read_pmf_csv",
    "write_samples_csv",
    "read_samples_csv",
]

# denominator exponent for dyadic rounding: three factors of 2^-14 still
# multiply exactly inside a binary64 mantissa
DYADIC_BITS = 14
# bits beyond log2(positive cells) once a table outgrows 2^DYADIC_BITS of them
_DYADIC_HEADROOM = 8


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over the 2^p sign cells."""

    p: int
    probs: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.p <= WIDTH_CAP:
            raise ValueError(f"p must be in 1..{WIDTH_CAP}, got {self.p}")
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (1 << self.p,):
            raise ValueError(f"probs must have length 2^{self.p}, got {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(
                f"non-finite probabilities {arr[bad[:4]].tolist()} at cells {bad[:4].tolist()}"
            )
        if arr.min() < 0.0:
            raise ValueError(f"negative probability {arr.min()}")
        total = arr.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def support(self) -> np.ndarray:
        """Cell indices with strictly positive probability."""
        return np.flatnonzero(self.probs > 0.0)

    @property
    def support_size(self) -> int:
        return int((self.probs > 0.0).sum())


def moments_from_pmf(pmf: Pmf) -> np.ndarray:
    """All interaction means m[mask] = E[X_mask]; m[0] = 1."""
    return fwht(pmf.probs)


def pmf_from_samples(data: np.ndarray) -> Pmf:
    """Empirical cell frequencies from an n x p matrix of +-1 entries."""
    arr = np.asarray(data)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"expected an n x p sample matrix, got shape {arr.shape}")
    if not np.isin(arr, (-1, 1)).all():
        raise ValueError("sample entries must be +1 or -1")
    n, p = arr.shape
    if p > WIDTH_CAP:
        raise ValueError(f"{p} sample columns exceed the {WIDTH_CAP}-bit cap")
    # cell per row: bit j set iff column j is -1, X_1 most significant
    cells = (arr.astype(np.int64) < 0) @ (1 << np.arange(p - 1, -1, -1, dtype=np.int64))
    counts = np.bincount(cells, minlength=1 << p)
    return Pmf(p, counts / n, meta={"generator": "empirical", "n": n})


def draw_samples(pmf: Pmf, n: int, seed: int) -> np.ndarray:
    """Seeded n x p matrix of +-1 rows distributed per the pmf."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(1 << pmf.p, size=n, p=pmf.probs)
    shifts = np.arange(pmf.p - 1, -1, -1, dtype=np.int64)
    bits = (cells[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int64)


def interaction_cov(pmf: Pmf, row_bits: Sequence[int], col_bits: Sequence[int]) -> np.ndarray:
    """Covariance block of the interaction features with the given mask bits.

    Entry (i,j) = m[r_i XOR c_j] - m[r_i] m[c_j]; products of interactions
    XOR their masks, so the second moment is itself a first moment.  Bits
    outside [0, 2^p) are refused.
    """
    rows = np.asarray(row_bits, dtype=np.int64).reshape(-1)
    cols = np.asarray(col_bits, dtype=np.int64).reshape(-1)
    for bits in (rows, cols):
        bad = bits[(bits < 0) | (bits >= 1 << pmf.p)]
        if bad.size:
            raise ValueError(f"mask bits {int(bad[0])} out of range for width {pmf.p}")
    m = moments_from_pmf(pmf)
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size))
    cov = m[np.bitwise_xor.outer(rows, cols)]
    cov -= np.outer(m[rows], m[cols])
    return cov


def _dyadic_bits(positive: int) -> int:
    """Denominator exponent for a table with this many positive cells.

    Every positive cell gets at least one count, so more than 2^bits of them
    cannot sum to 1; past 2^DYADIC_BITS the exponent grows with the count.
    """
    if positive <= 1 << DYADIC_BITS:
        return DYADIC_BITS
    return (positive - 1).bit_length() + _DYADIC_HEADROOM


def _dyadic_probs(weights: np.ndarray) -> np.ndarray:
    """Round nonnegative weights to exact probabilities k/2^bits.

    bits is _dyadic_bits of the positive count.  Largest-remainder
    apportionment; strictly positive weights keep strictly positive counts
    so the rounding never manufactures new zeros.
    """
    w = np.asarray(weights, dtype=np.float64)
    bits = _dyadic_bits(int(np.count_nonzero(w > 0)))
    total = w.sum()
    if not total > 0.0:
        raise ValueError("weights must have positive sum")
    scaled = w / total * (1 << bits)
    counts = np.floor(scaled).astype(np.int64)
    counts[(w > 0) & (counts == 0)] = 1
    shortfall = (1 << bits) - counts.sum()
    if shortfall > 0:
        order = np.argsort(-(scaled - np.floor(scaled)), kind="stable")
        order = order[w[order] > 0]
        counts[order[: int(shortfall)]] += 1
    elif shortfall < 0:
        order = np.argsort(-counts, kind="stable")
        for idx in order:
            if shortfall == 0:
                break
            take = min(counts[idx] - 1, -shortfall)
            counts[idx] -= take
            shortfall += take
    return counts / float(1 << bits)


def _dirichlet_table(
    rng: np.random.Generator, size: int, alpha: float, zero_prob: float
) -> np.ndarray:
    """One dyadic conditional pmf of the given size, optionally with hard zeros."""
    weights = rng.dirichlet(np.full(size, alpha))
    if zero_prob > 0.0 and size > 1:
        keep = rng.random(size) >= zero_prob
        if not keep.any():
            keep[rng.integers(size)] = True
        # a small alpha draws exact zeros, and every kept weight may be one
        if not weights[keep].any():
            keep = weights == weights.max()
        weights = np.where(keep, weights, 0.0)
    return _dyadic_probs(weights)


def make_ci_pmf(
    r: int,
    s: int,
    t: int,
    seed: int,
    zero_prob: float = 0.0,
    alpha: float = 1.0,
) -> Pmf:
    """Seeded pmf factored as p(b) p(a|b) p(c|b) over coordinate blocks.

    Conditionals come from a symmetric Dirichlet rounded to dyadic rationals;
    zero_prob > 0 plants hard zeros in the conditional tables and in p(b).
    """
    if min(r, s, t) < 0 or not 1 <= r + s + t <= WIDTH_CAP:
        raise ValueError("invalid block dimensions")
    if not 0.0 <= zero_prob < 1.0:
        raise ValueError(f"zero_prob must be in [0,1), got {zero_prob}")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    rng = np.random.default_rng(seed)
    na, nb, nc = 1 << r, 1 << s, 1 << t
    pb = _dirichlet_table(rng, nb, alpha, zero_prob)
    probs = np.zeros((na, nb, nc))
    positive = np.count_nonzero(pb)
    for b in range(nb):
        pa = _dirichlet_table(rng, na, alpha, zero_prob)
        pc = _dirichlet_table(rng, nc, alpha, zero_prob)
        positive = max(positive, np.count_nonzero(pa), np.count_nonzero(pc))
        if pb[b] == 0.0:
            continue
        probs[:, b, :] = pb[b] * np.outer(pa, pc)
    meta = {
        "generator": "ci",
        "r": r,
        "s": s,
        "t": t,
        "seed": seed,
        "zero_prob": zero_prob,
        "alpha": alpha,
        "denom_bits": _dyadic_bits(int(positive)),
    }
    return Pmf(r + s + t, probs.ravel(), meta=meta)


def make_generic_pmf(p: int, seed: int, zero_fraction: float = 0.0) -> Pmf:
    """Seeded random pmf with roughly the requested fraction of zero cells."""
    if not 0.0 <= zero_fraction < 1.0:
        raise ValueError(f"zero_fraction must be in [0,1), got {zero_fraction}")
    if not 1 <= p <= WIDTH_CAP:
        raise ValueError(f"p must be in 1..{WIDTH_CAP}, got {p}")
    rng = np.random.default_rng(seed)
    n = 1 << p
    weights = rng.random(n) + 1e-3
    n_zero = min(int(round(zero_fraction * n)), n - 1)
    if n_zero:
        weights[rng.choice(n, size=n_zero, replace=False)] = 0.0
    probs = _dyadic_probs(weights)
    meta = {
        "generator": "generic",
        "p": p,
        "seed": seed,
        "zero_fraction": zero_fraction,
        "denom_bits": _dyadic_bits(n - n_zero),
    }
    return Pmf(p, probs, meta=meta)


def make_ising_cycle_pmf(thetas: Sequence[float], chord: float = 0.0) -> Pmf:
    """Four-cycle pairwise model: weights on edges 12, 23, 34, 41.

    chord adds a 13 diagonal term, which breaks X1 _||_ X3 | (X2,X4).
    Probabilities are not dyadic here; downstream checks use tolerances.
    Weights whose energy range 2*(sum|theta_k| + |chord|) is not finite are
    refused: energy - max would overflow, giving nan probabilities or
    silently absorbing the smaller weights.
    """
    th = [float(v) for v in thetas]
    if len(th) != 4 or not all(np.isfinite(th)):
        raise ValueError("need four finite edge weights")
    if not np.isfinite(chord):
        raise ValueError(f"need a finite chord weight, got {chord}")
    if not np.isfinite(2.0 * (sum(map(abs, th)) + abs(float(chord)))):
        raise ValueError("energy range 2*(sum|thetas| + |chord|) is not finite")
    cells = np.arange(16, dtype=np.int64)
    x = [1.0 - 2.0 * ((cells >> (3 - j)) & 1) for j in range(4)]
    energy = (
        th[0] * x[0] * x[1]
        + th[1] * x[1] * x[2]
        + th[2] * x[2] * x[3]
        + th[3] * x[3] * x[0]
        + chord * x[0] * x[2]
    )
    weights = np.exp(energy - energy.max())
    meta = {"generator": "ising", "thetas": th, "chord": chord}
    return Pmf(4, weights / weights.sum(), meta=meta)


# --- file formats ---------------------------------------------------------


def write_pmf_csv(pmf: Pmf, path: str) -> None:
    """CSV with header bits,prob; bits over {+,-}, X_1 leftmost.

    Metadata goes into leading comment lines; zero cells are omitted.
    Probabilities are printed with 17 significant digits, which round-trips
    binary64 exactly.
    """
    cells = pmf.support
    # a pattern is its high bits' signs then its low bits', each looked up in
    # a table of at most 2^12 patterns, "+" for a clear bit and "-" for a set one
    low = pmf.p // 2
    high_signs = np.array(_sign_patterns(pmf.p - low), dtype=object)
    low_signs = np.array(_sign_patterns(low), dtype=object)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}: {pmf.meta[key]}\n" for key in sorted(pmf.meta))
        fh.write("bits,prob\n")
        fh.writelines(format_rows(
            "%s%s,%s\n",
            (high_signs, cells >> low), (low_signs, cells & ((1 << low) - 1)),
            distinct_column("%.17g", pmf.probs[cells]),
        ))


def _sign_patterns(bits: int) -> list[str]:
    """Every bits-wide pattern over {+,-}, X_1 leftmost, in cell order."""
    return ["".join(signs) for signs in itertools.product("+-", repeat=bits)]


def _is_pmf_header(line: str) -> bool:
    """The pmf header rule, which the CLI also tells pmf files from sample
    files by: a data line whose first field, stripped, is "bits"."""
    return line.partition(",")[0].strip() == "bits"


def _first(flags: np.ndarray) -> int:
    """Index of the first True flag, or len(flags) when none is set."""
    return int(np.argmax(flags)) if flags.any() else flags.size


def read_pmf_csv(path: str) -> Pmf:
    """Load the pmf CSV format; missing cells mean probability zero.

    A table whose sum lies within 1e-9 of 1 but not within 1e-12 is rescaled
    to sum to 1, and meta["renormalised_from"] records repr of its sum.
    Errors name the first bad row in file order, then a duplicate cell.
    """
    comments, lines = read_lines(path)
    # "# key: value" comments; each key still follows its line's "#"
    parts = map(methodcaller("partition", ":"), comments)
    meta = {key[1:].strip(): val.strip() for key, sep, val in parts if sep}
    rows = list(itertools.filterfalse(_is_pmf_header, lines))
    if not rows:
        raise ValueError("pmf file has no data rows")
    # rows are good up to the first without two fields, then up to the first
    # whose bits hold a character outside +-01 or differ in width from row 0's
    two = _first(field_counts(rows) != 2)
    fields = ",".join(rows[:two]).split(",")
    bits = list(map(str.strip, fields[0::2]))
    widths = np.fromiter(map(len, bits), np.int64, two)
    bad = np.fromiter(map(bool, map(methodcaller("strip", "+-01"), bits)), bool, two)
    if two:
        bad |= widths != widths[0]
        bad[0] |= not 0 < widths[0] <= WIDTH_CAP
    stop = _first(bad)
    # a probability float() refuses on an earlier row is reported first
    values = np.fromiter(map(float, fields[1:2 * stop:2]), np.float64, stop)
    if stop < len(rows):
        fields = rows[stop].split(",")
        text = fields[0].strip()
        raise ValueError(
            f"malformed pmf row: {fields!r}" if len(fields) != 2
            else f"bad bits string {text!r}" if text.strip("+-01")
            else "empty bits string" if not text
            else f"{len(text)}-bit cells exceed the {WIDTH_CAP}-bit cap" if not stop
            else f"inconsistent bits width in {fields!r}"
        )
    width = int(widths[0])
    binary = "\n".join(bits).replace("+", "0").replace("-", "1").split("\n")
    cells = np.fromiter(map(int, binary, itertools.repeat(2)), np.int64, stop)
    # a stable sort keeps each cell's rows in file order, so every row but
    # the first of its run repeats an earlier one (np.unique would import
    # numpy.ma)
    order = np.argsort(cells, kind="stable")
    again = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if again.size:
        raise ValueError(f"duplicate cell {int(cells[again.min()]):0{width}b}")
    probs = np.zeros(1 << width)
    probs[cells] = values
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf file sums to {float(total)!r}")
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
        meta["renormalised_from"] = repr(float(total))
    return Pmf(width, probs, meta=meta)


def write_samples_csv(data: np.ndarray, path: str) -> None:
    """CSV of +-1 integers, one observation per row."""
    arr = np.asarray(data, dtype=np.int64)
    with open(path, "w", newline="") as fh:
        fh.writelines(format_rows(",".join(["%d"] * arr.shape[1]) + "\n", *arr.T))


class _SampleTokens(dict):
    """int() of a sample token, with "1" and "-1" looked up rather than
    parsed; every other token, " 1" or "+1" or "x" alike, goes to int()."""

    def __missing__(self, token: str) -> int:
        return int(token)


_SAMPLE_TOKENS = _SampleTokens({"1": 1, "-1": -1})


def read_samples_csv(path: str) -> np.ndarray:
    """Load a +-1 sample matrix; errors name the first malformed entry, then
    the first row whose field count differs from the first row's."""
    _, lines = read_lines(path)
    if not lines:
        raise ValueError("sample file has no rows")
    tokens = ",".join(lines).split(",")
    entry = _SAMPLE_TOKENS.__getitem__
    try:
        values = np.fromiter(map(entry, tokens), np.int64, len(tokens))
    except OverflowError:  # past int64, so not +-1; malformed entries first
        values = np.array(list(map(entry, tokens)), dtype=object)
    counts = field_counts(lines)
    i = _first(counts != counts[0])
    if i < len(lines):
        raise ValueError(f"sample row {i + 1} {lines[i]!r} has {counts[i]} fields, "
                         f"expected {counts[0]} as in the first row")
    if not np.isin(values, (-1, 1)).all():
        raise ValueError("sample entries must be +1 or -1")
    return values.reshape(len(lines), -1)
