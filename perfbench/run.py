"""Benchmark of `begin`: verdict throughput and latency on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_wide --seed 1 --seconds 40 --trace 0

Each run imports `begin` from the checkout's `src/`, builds its seeded
inputs, warms up, then runs the workload's ops as a closed loop (one caller,
next op after the previous returns) in whole cycles over its input schedule
for about `--seconds`. Every op is checked (see `stats.verdict_problems` and
the workload's `check`); the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
end-to-end metrics of BENCHMARK.json, `--trace 1` its per-layer metrics: half
the time untraced, half with spans recorded around every layer boundary.
The line before it is a report with the environment, the input facts, the
output digest and every metric measured.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import BORDERLINE_DISAGREEMENT, OutputLedger, latency_percentiles
from tracer import Tracer, layer_summary, span_cost_ns

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("dense_wide", "corpus_small", "cli_files")
SETUP_REPEATS = 5  # this process plus four fresh ones
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(workload: str) -> int:
    """BLAS threads for a workload, at most nproc and at most 2.

    A second thread shortens dense_wide's n >= 479 eigendecompositions, which
    gives a run more ops; on the n <= 55 matrices of the other workloads it
    only adds synchronisation, and run-to-run spread with it.
    """
    return min(2, len(os.sched_getaffinity(0))) if workload == "dense_wide" else 1


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_begin() -> None:
    """Import `begin` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "begin" / "__init__.py").is_file():
        sys.exit(f"error: no begin sources under {src}")
    sys.path.insert(0, str(src))
    import begin

    if Path(begin.__file__).resolve().parent != (src / "begin").resolve():
        sys.exit(f"error: imported begin from {begin.__file__}, not {src}")


def setup(wl, seed: int, ledger) -> dict:
    """Seeded inputs, then the first ops of the schedule as warm-up.

    Warm-up ops are checked and counted like any other op.
    """
    facts = wl.setup(seed)
    for op in wl.schedule[: wl.warmup]:
        run_op(wl, op, ledger)
    return facts


def run_op(wl, op, ledger, tracer=None, op_id: int = -1) -> float:
    """Call into `begin` once, check the result, and return the call's time.

    Op time covers only the call; checking the result is outside it.
    """
    fn, call_args = wl.entry(op)
    with wl.capture() as captured:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = fn(*call_args)
            else:
                result = tracer.root("op", op_id, fn, *call_args)
        except (Exception, SystemExit) as exc:
            result = exc
        elapsed = time.perf_counter() - t0
    if isinstance(result, BaseException):
        ledger.record(op.key, None, [f"raised {type(result).__name__}: {result}"])
        return elapsed
    try:
        if tracer is None:
            output, problems, notes = wl.check(op, result, captured)
        else:
            output, problems, notes = tracer.root(
                "verify", op_id, wl.check, op, result, captured)
    except Exception as exc:
        output, problems, notes = None, [f"check raised {type(exc).__name__}: {exc}"], []
    ledger.record(op.key, output, problems, notes)
    return elapsed


def run_phase(wl, ledger, seconds: float, tracer=None, op_id: int = 0):
    """Whole cycles over the schedule until the next would pass `seconds`.

    Returns per-op seconds, in schedule order, and the next op id. A flat
    array of doubles keeps peak RSS from growing with the number of ops run.
    """
    times = array.array("d")
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in wl.schedule:
            times.append(run_op(wl, op, ledger, tracer, op_id))
            op_id += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return times, op_id


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form of its build info
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(args.workload),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith(("_ms", ".p50", ".p90")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def rate_and_latency(times) -> dict:
    out = {"ops_per_s": len(times) / sum(times)}
    for key, value in latency_percentiles([t * 1e3 for t in times]).items():
        out[f"op_ms.{key}"] = value
    return out


def measure_end_to_end(args, wl, ledger, setup_s: float):
    """Untraced run for `--seconds`; set-up is repeated in fresh processes."""
    setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    times, _ = run_phase(wl, ledger, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = rate_and_latency(times)
    measured["peak_rss_mb"] = peak_rss_mb
    measured["setup_s"] = statistics.median(setups)
    return measured, times, {"setup_s_samples": setups}


def measure_layers(args, wl, ledger, tracer, modules):
    """Half the time untraced, half traced; spans go to a file at the end."""
    half = args.seconds / 2
    times, next_op = run_phase(wl, ledger, half)
    untraced = rate_and_latency(times)
    tracer.install(modules)
    try:
        traced_times, _ = run_phase(wl, ledger, half, tracer, next_op)
    finally:
        tracer.uninstall()
    traced = rate_and_latency(traced_times)
    summary = layer_summary(tracer, span_cost_ns(), wl.counters())
    # op ids run through whole cycles, so an op's id modulo the schedule
    # length is its input
    edges = {}
    for op_id, count in summary.pop("edges_by_op").items():
        edges[op_id % len(wl.schedule)] = count
    summary["graph_edges_by_input"] = [edges.get(k) for k in range(len(wl.schedule))]
    measured = summary.pop("metrics")
    measured["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    path = OUT_DIR / f"trace_{args.workload}.jsonl"
    tracer.write(str(path))
    summary.update(file=str(path.relative_to(ROOT)), untraced=untraced, traced=traced)
    return measured, times, {"trace": summary}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads(args.workload))

    t0 = time.perf_counter()
    import_begin()
    import workloads  # imports numpy, so only after the BLAS threads are set

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(OUT_DIR))
    tracer = Tracer() if args.trace else None
    ledger = OutputLedger()
    try:
        if tracer is not None:
            tracer.install(workloads.MODULES)
            facts = tracer.root("setup", -1, setup, wl, args.seed, ledger)
            tracer.uninstall()
        else:
            facts = setup(wl, args.seed, ledger)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if tracer is None:
            measured, times, extra = measure_end_to_end(args, wl, ledger, setup_s)
        else:
            measured, times, extra = measure_layers(args, wl, ledger, tracer, workloads.MODULES)
    finally:
        wl.close()

    if args.workload == "dense_wide":
        by_shape = {}
        for i, t in enumerate(times):
            by_shape.setdefault(wl.schedule[i % len(wl.schedule)].tag, []).append(t * 1e3)
        for tag, values in by_shape.items():
            measured[f"shape.{tag}.op_ms.p50"] = statistics.median(values)
    attempted, failed = ledger.attempted, ledger.failed
    measured["ops_failed_ratio"] = failed / attempted
    borderline_inputs = sorted(ledger.noted_inputs.get(BORDERLINE_DISAGREEMENT, ()))
    measured["routes.borderline_inputs"] = len(borderline_inputs)
    with_units = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in sorted(measured.items())}
    with_units["ops_failed_ratio"].update(failed=failed, attempted=attempted)
    report = {
        "env": environment(args),
        "inputs": facts,
        "digest": ledger.digest(),
        "inputs_covered": ledger.inputs_seen,
        "failures": ledger.reasons,
        "first_failures": ledger.first_failures,
        "notes": ledger.notes,
        "noted_inputs": {k: sorted(v) for k, v in ledger.noted_inputs.items()},
        "metrics": with_units,
        **extra,
    }
    correct = failed == 0 and ledger.inputs_seen == len(wl.schedule)
    if tracer is not None:
        correct = correct and extra["trace"]["self_time_check"]["ok"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in with_units.items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    print(f"# failed {failed} of {attempted} attempted ops")
    if borderline_inputs:
        print(f"# known defect: {BORDERLINE_DISAGREEMENT} on inputs {borderline_inputs}"
              f" ({ledger.notes[BORDERLINE_DISAGREEMENT]} ops)")
    print(f"# digest {report['digest']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
