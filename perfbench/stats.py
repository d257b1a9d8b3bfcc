"""Benchmark arithmetic: percentiles, self time, failure counting, digests.

Pure standard library, so the tests of this module run without numpy or the
program under test.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# a percentile is reported only when at least this many samples lie above it
TAIL_SAMPLES = 10

# begin's own clear-margin rule: a magnitude is clear of the tolerance when it
# is at most tol or at least this (engine.search_subset_counterexamples, and
# the acceptance suite's "failures are loud, never borderline")
CLEAR_MAGNITUDE = 1e-2
BORDERLINE_DISAGREEMENT = "criteria disagree with a magnitude between tol and 1e-2"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_percentiles(values_ms: Sequence[float]) -> Dict[str, float]:
    """p50 always; p90 only when at least ten samples lie beyond it.

    With nearest rank, n - ceil(0.9 n) samples exceed p90, which is at least
    ten exactly when n >= 100.
    """
    out = {"p50": statistics.median(values_ms)}
    if len(values_ms) - math.ceil(0.9 * len(values_ms)) >= TAIL_SAMPLES:
        out["p90"] = nearest_rank(values_ms, 90)
    return out


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(
    spans: Sequence[Tuple[int, int, int]]
) -> List[int]:
    """Self time of each span given as (start, end, parent index or -1).

    Self time is the span's duration minus the part of its interval that its
    direct children cover.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(start, end, children.get(i, ()))
        for i, (start, end, _) in enumerate(spans)
    ]


class OutputLedger:
    """Failure count, notes and output digest over the ops of one run.

    Notes are findings that do not fail an op; they are counted by reason and
    by the inputs they were seen on. Each op names its input by a key. The first output seen for a key is kept
    as that input's reference; a later op on the same input with different
    bytes fails. The digest covers the reference output of every key in key
    order, so it depends on the inputs a run covered, not on how often.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.first_failures: List[str] = []
        self.notes: Dict[str, int] = {}
        self.noted_inputs: Dict[str, set] = {}
        self._reference: Dict[int, str] = {}

    def record(
        self,
        key: int,
        output: Optional[bytes],
        problems: List[str],
        notes: Sequence[str] = (),
    ) -> bool:
        """Count one op; returns True when it failed."""
        for note in notes:
            self.notes[note] = self.notes.get(note, 0) + 1
            self.noted_inputs.setdefault(note, set()).add(key)
        problems = list(problems)
        if output is not None:
            digest = hashlib.sha256(output).hexdigest()
            known = self._reference.setdefault(key, digest)
            if known != digest:
                problems.append("output differs from an earlier op on the same input")
        self.attempted += 1
        if problems:
            self.failed += 1
            for reason in problems:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"input {key}: {'; '.join(problems)}")
        return bool(problems)

    @property
    def inputs_seen(self) -> int:
        return len(self._reference)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self._reference):
            h.update(f"{key}:{self._reference[key]}\n".encode())
        return h.hexdigest()


def borderline(magnitudes: Iterable[float], tol: float) -> bool:
    """True when some magnitude lies strictly between tol and CLEAR_MAGNITUDE."""
    return any(tol < m < CLEAR_MAGNITUDE for m in magnitudes)


def verdict_problems(
    criteria: Dict[str, bool],
    is_ci: Optional[bool],
    expected: Optional[bool],
    rank_b: int,
    support_b: int,
    magnitudes: Sequence[float] = (),
    tol: float = 0.0,
) -> Tuple[List[str], List[str]]:
    """Reasons one verdict fails the per-op gate, and its notes.

    expected is None where no hard verdict is due (advisory sample input).
    magnitudes are the verdict's thresholded quantities (max_offblock_S,
    max_offblock_Omega, belief_residual). begin documents that its criteria
    coincide whenever every magnitude is far from tol; a disagreement while
    some magnitude lies between tol and CLEAR_MAGNITUDE is a note, any other
    disagreement a failure.
    """
    problems, notes = [], []
    if len(set(criteria.values())) != 1:
        if borderline(magnitudes, tol):
            notes.append(BORDERLINE_DISAGREEMENT)
        else:
            problems.append("criteria disagree")
    if expected is not None and is_ci is not expected:
        problems.append(f"verdict {is_ci} where {expected} expected")
    if rank_b != support_b - 1:
        problems.append(f"rank_B {rank_b} != support_B {support_b} - 1")
    return problems, notes
