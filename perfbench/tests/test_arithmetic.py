"""Tests of the benchmark's own arithmetic; run with

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    BORDERLINE_DISAGREEMENT,
    OutputLedger,
    covered,
    latency_percentiles,
    nearest_rank,
    self_times,
    verdict_problems,
)
from tracer import Tracer, layer_summary  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child
        (15, 25, 1),  # grandchild
        (50, 90, 0),  # second child
    ]
    assert self_times(spans) == [30, 20, 10, 40]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [(0, 100, -1), (10, 50, 0), (40, 60, 0), (90, 120, 0)]
    # children cover [10,60) and [90,100) of the root
    assert self_times(spans)[0] == 100 - 50 - 10
    assert covered(0, 10, [(5, 20)]) == 5


def test_traced_calls_nest_and_self_times_sum_to_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("mod.leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("mod.middle", middle)
    tracer.root("op", 7, traced_middle)
    assert tracer.names == ["op", "mod.middle", "mod.leaf", "mod.leaf"]
    assert list(tracer.parents) == [-1, 0, 1, 1]
    assert list(tracer.ops) == [7, 7, 7, 7]
    selfs = self_times(list(zip(tracer.starts, tracer.ends, tracer.parents)))
    assert min(selfs) >= 0
    assert sum(selfs) == tracer.ends[0] - tracer.starts[0]
    assert selfs[2] >= 2_000_000 and selfs[3] >= 2_000_000


def _synthetic(spans):
    """A tracer holding the given (name, start, end, parent, op, value) spans."""
    tracer = Tracer()
    for name, start, end, parent, op, value in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(op)
        tracer.values.append(value)
    return tracer


def test_layer_summary_per_op_self_time_share_and_counts():
    tracer = _synthetic([
        ("setup", 0, 50, -1, -1, None),
        ("distribution.generate", 10, 30, 0, -1, None),
        ("op", 0, 1_100_000, -1, 0, None),
        ("engine.test_ci", 0, 1_000_000, 2, 0, None),
        ("schur.schur_complement", 100, 600_100, 3, 0, 10),
        ("op", 2_000_000, 3_000_000, -1, 1, None),
        ("engine.test_ci", 2_000_000, 3_000_000, 5, 1, None),
        ("schur.schur_complement", 2_000_000, 2_200_000, 6, 1, 20),
        ("graph.build_graph", 2_500_000, 2_600_000, 6, 1, 42),
        ("verify", 3_000_000, 3_500_000, -1, 1, None),
        ("oracle.oracle_ci", 3_000_000, 3_400_000, 9, 1, None),
    ])
    out = layer_summary(tracer, span_cost=1e9, per_op_counts={"cli.stdout_bytes": 5.0})
    m = out["metrics"]
    assert out["ops"] == 2
    assert m["schur.schur_complement.self_ms"] == pytest.approx((0.6 + 0.2) / 2)
    assert m["engine.test_ci.self_ms"] == pytest.approx((0.4 + 0.7) / 2)
    assert m["graph.build_graph.self_ms"] == pytest.approx(0.05)
    assert m["graph.edges"] == 21
    assert out["edges_by_op"] == {1: 42}
    assert m["engine.test_ci.calls"] == 1.0
    assert m["schur.sigma_dim"] == 15
    assert m["schur.dense_cubic_work"] == (10**3 + 20**3) / 2
    assert m["schur.share"] == pytest.approx(0.8 / 2.1)
    assert m["engine.share"] == pytest.approx(1.1 / 2.1)
    assert m["graph.share"] == pytest.approx(0.1 / 2.1)
    assert m["oracle.oracle_ci.self_ms"] == pytest.approx(0.2)
    assert m["oracle.checks"] == 0.5
    assert m["distribution.generate.setup_ms"] == pytest.approx(20e-6)
    assert m["cli.stdout_bytes"] == 5.0
    # op 0 spends 0.1 ms in its root beyond the layers, op 1 nothing
    assert m["trace.unattributed_ms"] == pytest.approx(0.05)
    assert out["self_time_check"]["ok"]
    tight = layer_summary(tracer, span_cost=1.0, per_op_counts={})
    assert not tight["self_time_check"]["ok"]
    assert tight["self_time_check"]["ops_over_own_budget"] == 1


def test_p90_needs_ten_samples_beyond_it():
    assert "p90" not in latency_percentiles([float(v) for v in range(99)])
    values = [float(v) for v in range(1, 101)]
    out = latency_percentiles(values)
    assert out["p90"] == 90.0
    assert sum(1 for v in values if v > out["p90"]) == 10
    assert out["p50"] == 50.5
    assert "p90" not in latency_percentiles([600.0] * 12)


def test_nearest_rank():
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([1.0], 90) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_wrong_verdict_and_changed_byte_both_fail():
    ledger = OutputLedger()
    agree = {"belief": True, "factorization": True, "schur": True, "separation": True}
    assert not ledger.record(0, b"payload", *verdict_problems(agree, True, True, 3, 4))
    # a wrong expected verdict
    assert ledger.record(1, b"other", *verdict_problems(agree, True, False, 3, 4))
    # the same input as op 0 again, one byte changed
    assert ledger.record(0, b"paylaod", *verdict_problems(agree, True, True, 3, 4))
    # the same input again with its original bytes passes
    assert not ledger.record(0, b"payload", [])
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert set(ledger.reasons) == {
        "verdict True where False expected",
        "output differs from an earlier op on the same input",
    }


def test_other_verdict_failures_are_counted():
    split = {"belief": True, "factorization": False, "schur": True, "separation": True}
    assert verdict_problems(split, True, True, 3, 4) == (["criteria disagree"], [])
    agree = dict.fromkeys(split, False)
    assert verdict_problems(agree, False, False, 3, 5) == (
        ["rank_B 3 != support_B 5 - 1"], [])
    assert verdict_problems(agree, None, None, 4, 5) == ([], [])
    ledger = OutputLedger()
    assert ledger.record(2, None, ["raised MemoryError: "])
    assert (ledger.attempted, ledger.failed, ledger.inputs_seen) == (1, 1, 0)


def test_disagreement_is_a_note_only_near_the_tolerance():
    split = {"belief": True, "factorization": True, "schur": True, "separation": False}
    tol = 1e-8
    # max_offblock_Omega just above tol, the others clear: noted, not failed
    near = (1e-15, 2.4e-7, 0.0)
    assert verdict_problems(split, True, True, 4, 5, near, tol) == (
        [], [BORDERLINE_DISAGREEMENT])
    # every magnitude clear of the margin: a failure
    clear = (1e-15, 0.5, 0.0)
    assert verdict_problems(split, True, True, 4, 5, clear, tol) == (
        ["criteria disagree"], [])
    # a borderline disagreement does not excuse a wrong verdict
    assert verdict_problems(split, True, False, 4, 5, near, tol) == (
        ["verdict True where False expected"], [BORDERLINE_DISAGREEMENT])
    ledger = OutputLedger()
    assert not ledger.record(3, b"v", [], [BORDERLINE_DISAGREEMENT])
    assert not ledger.record(3, b"v", [], [BORDERLINE_DISAGREEMENT])
    assert (ledger.attempted, ledger.failed) == (2, 0)
    assert ledger.notes == {BORDERLINE_DISAGREEMENT: 2}
    assert ledger.noted_inputs == {BORDERLINE_DISAGREEMENT: {3}}


def test_digest_depends_on_outputs_not_on_repetitions():
    once, twice = OutputLedger(), OutputLedger()
    for key, out in ((0, b"a"), (1, b"b")):
        once.record(key, out, [])
    for key, out in ((1, b"b"), (0, b"a"), (0, b"a"), (1, b"b")):
        twice.record(key, out, [])
    assert once.digest() == twice.digest()
    changed = OutputLedger()
    changed.record(0, b"a", [])
    changed.record(1, b"c", [])
    assert changed.digest() != once.digest()


class _FakeWorkload:
    """Three ops: one passes, one raises, one changes its bytes after a cycle."""

    def __init__(self):
        self.schedule = [
            type("Op", (), {"key": k, "tag": "t"})() for k in range(3)
        ]
        self.calls = 0

    def entry(self, op):
        return (lambda: 1 / 0) if op.key == 1 else (lambda: op.key), ()

    def capture(self):
        from contextlib import nullcontext

        return nullcontext()

    def check(self, op, result, captured):
        self.calls += 1
        drift = b"x" if op.key == 2 and self.calls > 3 else b""
        return bytes([result]) + drift, [], []


def test_run_phase_counts_raising_and_drifting_ops():
    from run import run_phase

    wl, ledger = _FakeWorkload(), OutputLedger()
    times, next_op = run_phase(wl, ledger, seconds=0.02)
    cycles = len(times) // 3
    assert cycles >= 2 and len(times) == 3 * cycles == next_op == ledger.attempted
    # op 1 raises every cycle; op 2 drifts from its second cycle on
    assert ledger.failed == cycles + (cycles - 1)
    assert ledger.reasons["output differs from an earlier op on the same input"] == cycles - 1
