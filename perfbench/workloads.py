"""The three benchmark workloads: seeded inputs, ops, and per-op checks.

An op is one `test_ci` call (dense_wide, corpus_small) or one in-process
`begin.cli.main([...])` call (cli_files). Every call into `begin` goes through
a module attribute looked up at call time, so the tracer's wrappers see it.
Checking an op happens after its timer stops and is not part of op time.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import begin
import begin.cli  # the package does not import its command line itself
from stats import BORDERLINE_DISAGREEMENT, borderline, verdict_problems

# the modules whose attributes the tracer wraps
MODULES = {
    name: getattr(begin, name)
    for name in ("bitgroup", "cli", "distribution", "engine", "oracle", "quantize")
}

ZERO_PROB = 0.3
ORACLE_WIDTH = 10  # oracle_ci refuses wider pmfs


def sigma_dim(r: int, s: int, t: int) -> int:
    """n = 2^s (2^r + 2^t - 1) - 1 interaction features of a coordinate split."""
    return (1 << s) * ((1 << r) + (1 << t) - 1) - 1


@dataclass
class Op:
    key: int  # position in the schedule; ops with one key share inputs
    tag: str


@dataclass
class LibraryOp(Op):
    pmf: object = None
    part: object = None
    # the generator's verdict, used where the oracle cannot run
    constructed_ci: Optional[bool] = None


@dataclass
class CliOp(Op):
    argv: List[str] = field(default_factory=list)
    code: int = 0  # expected exit code
    out: Optional[str] = None  # file the op writes, part of its output


class LibraryWorkload:
    """test_ci on in-memory pmfs; checked against the oracle where p <= 10."""

    warmup = 1

    def __init__(self) -> None:
        self.schedule: List[LibraryOp] = []

    def entry(self, op: LibraryOp) -> Tuple[Callable, tuple]:
        return begin.engine.test_ci, (op.pmf, op.part)

    def capture(self):
        return nullcontext()

    def check(self, op: LibraryOp, verdict, captured) -> Tuple[bytes, List[str], List[str]]:
        if op.pmf.p <= ORACLE_WIDTH:
            expected = begin.oracle.oracle_ci(op.pmf, op.part).is_ci
        else:
            expected = op.constructed_ci
        payload = verdict.to_json_dict()
        problems, notes = verdict_problems(
            verdict.criteria, verdict.is_ci, expected, verdict.rank_b, verdict.support_b,
            _magnitudes(payload), verdict.tol,
        )
        return json.dumps(payload, sort_keys=True).encode(), problems, notes

    def counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def _add(self, tag: str, pmf, part, constructed: Optional[bool]) -> None:
        self.schedule.append(
            LibraryOp(len(self.schedule), tag, pmf, part, constructed)
        )


class DenseWide(LibraryWorkload):
    """Wide-center coordinate splits, one ci and one generic pmf per shape."""

    name = "dense_wide"
    shapes = ((3, 5, 3), (2, 7, 2), (2, 8, 2))

    def setup(self, seed: int) -> Dict[str, object]:
        seeds = np.random.default_rng([seed, 1]).integers(1 << 31, size=2 * len(self.shapes))
        facts = []
        for i, (r, s, t) in enumerate(self.shapes):
            part = begin.bitgroup.Partition.coordinate_split(r, s, t)
            tag = f"{r}-{s}-{t}"
            ci = begin.distribution.make_ci_pmf(
                r, s, t, seed=int(seeds[2 * i]), zero_prob=ZERO_PROB
            )
            generic = begin.distribution.make_generic_pmf(
                r + s + t, seed=int(seeds[2 * i + 1]), zero_fraction=ZERO_PROB
            )
            self._add(tag, ci, part, True)
            self._add(tag, generic, part, False)
            facts.append({
                "shape": tag, "n": sigma_dim(r, s, t), "p": r + s + t,
                "support": [ci.support_size, generic.support_size],
            })
        return {"shapes": facts, "ops_per_cycle": len(self.schedule)}


class CorpusSmall(LibraryWorkload):
    """Small coordinate splits plus random parity-feature partitions."""

    name = "corpus_small"
    warmup = 16
    reps = 8  # pmfs per (shape, generator)
    parity_plain = 128
    parity_overlap = 64  # a third of the parity partitions

    def setup(self, seed: int) -> Dict[str, object]:
        rng = np.random.default_rng([seed, 2])
        dist = begin.distribution
        for r in (1, 2):
            for s in range(4):
                for t in (1, 2):
                    part = begin.bitgroup.Partition.coordinate_split(r, s, t)
                    for _ in range(self.reps):
                        sub = rng.integers(1 << 31, size=2)
                        self._add(f"split-{r}-{s}-{t}", dist.make_ci_pmf(
                            r, s, t, seed=int(sub[0]), zero_prob=ZERO_PROB), part, None)
                        self._add(f"split-{r}-{s}-{t}", dist.make_generic_pmf(
                            r + s + t, seed=int(sub[1]), zero_fraction=ZERO_PROB), part, None)
        n_split = len(self.schedule)
        want = {False: self.parity_plain, True: self.parity_overlap}
        while any(want.values()):
            part = _random_parity_partition(rng)
            if part is None:
                continue
            overlap = bool(begin.bitgroup.build_index_sets(part).overlap)
            if not want[overlap]:
                continue
            want[overlap] -= 1
            sub = int(rng.integers(1 << 31))
            if rng.random() < 0.5:
                r = int(rng.integers(1, part.p - 1))
                s = int(rng.integers(0, part.p - r))
                pmf = dist.make_ci_pmf(r, s, part.p - r - s, seed=sub, zero_prob=ZERO_PROB)
            else:
                pmf = dist.make_generic_pmf(part.p, seed=sub, zero_fraction=ZERO_PROB)
            self._add("parity-overlap" if overlap else "parity", pmf, part, None)
        return {
            "coordinate_split_cases": n_split,
            "parity_cases": self.parity_plain + self.parity_overlap,
            "parity_overlap_cases": self.parity_overlap,
            "max_n": max(sigma_dim(r, s, t) for r in (1, 2) for s in range(4) for t in (1, 2)),
            "max_p": max(op.pmf.p for op in self.schedule),
            "mean_support": float(np.mean([op.pmf.support_size for op in self.schedule])),
            "ops_per_cycle": len(self.schedule),
        }


def _random_parity_partition(rng: np.random.Generator):
    """Random nonzero generator masks at p in 3..6; None if degenerate."""
    p = int(rng.integers(3, 7))
    Mask = begin.bitgroup.Mask

    def gens(lo: int, hi: int) -> tuple:
        return tuple(
            Mask(int(rng.integers(1, 1 << p)), p) for _ in range(int(rng.integers(lo, hi + 1)))
        )

    try:
        return begin.bitgroup.Partition(p, gens(1, 2), gens(0, 2), gens(1, 2))
    except ValueError:
        return None


class CliFiles:
    """A fixed mix of `begin` subcommands on files in a temporary directory."""

    name = "cli_files"
    warmup = 5

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = ""
        self.schedule: List[CliOp] = []
        self.pmfs: Dict[str, object] = {}  # generator output behind each CSV
        self.edges: Dict[Tuple[str, str], int] = {}
        self.vector: Optional[np.ndarray] = None
        self.checked = 0
        self.stdout_total = 0

    def setup(self, seed: int) -> Dict[str, object]:
        os.makedirs(self.root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli_files-", dir=self.root)
        rng = np.random.default_rng([seed, 3])
        sub = [int(v) for v in rng.integers(1 << 31, size=6)]
        bg, dist = begin.bitgroup, begin.distribution
        path = lambda name: os.path.join(self.dir, name)  # noqa: E731

        for r, s, t in ((2, 3, 2), (3, 3, 3), (3, 5, 3)):
            with open(path(f"part{r}{s}{t}.json"), "w") as fh:
                fh.write(bg.partition_to_json(bg.Partition.coordinate_split(r, s, t)))
        sampled = dist.make_ci_pmf(2, 3, 2, seed=sub[4], zero_prob=ZERO_PROB)
        dist.write_samples_csv(dist.draw_samples(sampled, 4000, seed=sub[5]), path("samples.csv"))
        self.vector = rng.integers(-8, 9, size=1 << 16) / 8.0
        with open(path("vec16.txt"), "w") as fh:
            fh.write("\n".join(f"{v:.17g}" for v in self.vector) + "\n")
        for kind, text in (("smooth", _smooth_source(rng)), ("grid", _grid_source(rng))):
            with open(path(f"{kind}.json"), "w") as fh:
                fh.write(text)

        # pmfs the random ops must write; generated here to check the files
        made = {
            "ci7.csv": (["--mode", "ci", "--dims", "2,3,2"],
                        dist.make_ci_pmf(2, 3, 2, seed=sub[0], zero_prob=ZERO_PROB), sub[0]),
            "gen7.csv": (["--mode", "generic", "--dims", "7"],
                         dist.make_generic_pmf(7, seed=sub[1], zero_fraction=ZERO_PROB), sub[1]),
            "ci9.csv": (["--mode", "ci", "--dims", "3,3,3"],
                        dist.make_ci_pmf(3, 3, 3, seed=sub[2], zero_prob=ZERO_PROB), sub[2]),
            "gen11.csv": (["--mode", "generic", "--dims", "11"],
                          dist.make_generic_pmf(11, seed=sub[3], zero_fraction=ZERO_PROB), sub[3]),
        }
        for name, (args, pmf, s) in made.items():
            self.pmfs[path(name)] = pmf
            self._add("random", ["random", *args, "--seed", str(s),
                                 "--zero-prob", str(ZERO_PROB), "--out", path(name)],
                      out=path(name))
        # 17 ops a cycle: with an odd count the median op latency falls inside
        # one op's spread of latencies, not across the gap between two ops
        for name, shape in (("ci7.csv", (2, 3, 2)), ("gen7.csv", (2, 3, 2)),
                            ("ci9.csv", (3, 3, 3))):
            split = bg.Partition.coordinate_split(*shape)
            ci = begin.oracle.oracle_ci(made[name][1], split).is_ci
            self._add("test", ["test", path(name), "--partition",
                               path("part{}{}{}.json".format(*shape))],
                      code=0 if ci else 1)
        self._add("test", ["test", path("samples.csv"), "--partition", path("part232.json")])
        for src, part in (("ci9.csv", "part333.json"), ("gen11.csv", "part353.json")):
            base = ["graph", path(src), "--partition", path(part)]
            if src == "ci9.csv":
                self._add("graph", base)
                self._add("graph", base + ["--format", "json", "--out", path("g333.json")],
                          out=path("g333.json"))
            else:
                self._add("graph", base + ["--out", path("g353.dot")], out=path("g353.dot"))
                self._add("graph", base + ["--format", "json"])
        self._add("quantize", ["quantize", path("smooth.json"), "--depths", "1..4"])
        self._add("quantize", ["quantize", path("grid.json"), "--depths", "1..4",
                               "--out", path("qgrid.csv")], out=path("qgrid.csv"))
        self._add("delta", ["delta", path("smooth.json"), "--depths", "1..7",
                            "--out", path("dsmooth.csv")], out=path("dsmooth.csv"))
        self._add("delta", ["delta", path("grid.json"), "--depths", "1..7"])
        self._add("wht", ["wht", path("vec16.txt"), "--out", path("wht16.csv")],
                  out=path("wht16.csv"))
        return {
            "ops_per_cycle": len(self.schedule),
            "subcommands": sorted({op.tag for op in self.schedule}),
            "pmf_widths": {os.path.basename(k): v.p for k, v in self.pmfs.items()},
            "graph_n": [sigma_dim(3, 3, 3), sigma_dim(3, 5, 3)],
            "samples": 4000,
            "wht_length": 1 << 16,
            "quantize_depths": "1..4",
            "delta_depths": "1..7",
        }

    def _add(self, tag: str, argv: List[str], code: int = 0, out: Optional[str] = None) -> None:
        self.schedule.append(CliOp(len(self.schedule), tag, argv, code, out))

    def entry(self, op: CliOp) -> Tuple[Callable, tuple]:
        return begin.cli.main, (op.argv,)

    @contextmanager
    def capture(self):
        """Collect what an op writes to stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            yield out, err

    def check(self, op: CliOp, code, captured) -> Tuple[bytes, List[str], List[str]]:
        text, err = captured[0].getvalue(), captured[1].getvalue()
        self.checked += 1
        self.stdout_total += len(text.encode())
        problems: List[str] = []
        notes: List[str] = []
        if code != op.code:
            problems.append(f"exit {code} where {op.code} expected: {err.strip()[:200]}")
        written = b""
        if op.out is not None:
            with open(op.out, "rb") as fh:
                written = fh.read()
        if not problems:
            body = written.decode() if op.out is not None else text
            problems += getattr(self, f"_check_{op.tag}")(op, body, notes)
        return text.encode() + b"\0" + written, problems, notes

    def _check_random(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        back = begin.distribution.read_pmf_csv(op.out)
        want = self.pmfs[op.out]
        if back.p != want.p or not np.array_equal(back.probs, want.probs):
            return ["written pmf differs from the generator's"]
        return []

    def _check_test(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        payload = json.loads(body)
        if op.argv[1].endswith("samples.csv"):
            expected = None
            problems = [] if payload.get("empirical") is True and payload["is_ci"] is None else [
                "sample input did not give an advisory report"]
        else:
            expected = op.code == 0
            problems = []
        more, found = verdict_problems(
            payload["criteria"], payload["is_ci"], expected,
            payload["rank_B"], payload["support_B"], _magnitudes(payload), payload["tol"],
        )
        notes += found
        return problems + more

    def _check_graph(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        src = op.argv[1]
        ci = src.endswith("ci9.csv")
        n = sigma_dim(3, 3, 3) if ci else sigma_dim(3, 5, 3)
        if "json" in op.argv or (op.out or "").endswith(".json"):
            g = begin.graph.graph_from_json(body)
            problems = [] if len(g.nodes) == n else [f"{len(g.nodes)} nodes, not {n}"]
            if begin.graph.separates(g) is not ci:
                # a CI pmf whose wing-to-wing edges all lie below the clear
                # margin is the borderline case verdict_problems notes
                cross = [abs(w) for i, j, w in g.edges
                         if {g.nodes[i].wing, g.nodes[j].wing} == {"L", "R"}]
                if ci and borderline([max(cross)], g.tol):
                    notes.append(BORDERLINE_DISAGREEMENT)
                else:
                    problems.append("exported graph separation contradicts the construction")
            kind, edges = "json", len(g.edges)
        else:
            lines = body.splitlines()
            nodes = sum(1 for ln in lines if "[label=" in ln and " -- " not in ln)
            problems = [] if nodes == n else [f"{nodes} DOT nodes, not {n}"]
            kind, edges = "dot", sum(1 for ln in lines if " -- " in ln)
        self.edges[(src, kind)] = edges
        other = self.edges.get((src, "dot" if kind == "json" else "json"))
        if other is not None and other != edges:
            problems.append(f"DOT and JSON exports disagree on edges: {edges} vs {other}")
        return problems

    def _check_quantize(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        rows = [ln.split(",") for ln in body.strip().splitlines()[1:]]
        problems = [] if len(rows) == 4 else [f"{len(rows)} depth rows, not 4"]
        grid = op.argv[1].endswith("grid.json")
        for d, is_ci, *_, rank_b, support_b in rows:
            if int(rank_b) != int(support_b) - 1:
                problems.append(f"depth {d}: rank_B {rank_b} != support_B {support_b} - 1")
            # the grid source is CI by construction from its own depth on; the
            # smooth source never is, its dependence is discretization alone
            want = "true" if grid and int(d) >= 2 else "false" if not grid else None
            if want is not None and is_ci != want:
                problems.append(f"depth {d}: is_ci {is_ci} where {want} expected")
        return problems

    def _check_delta(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        rows = [ln.split(",") for ln in body.strip().splitlines()[1:]]
        problems = [] if len(rows) == 7 else [f"{len(rows)} depth rows, not 7"]
        grid = op.argv[1].endswith("grid.json")
        for d, rect, _exact, upper, _bound in rows:
            if grid and int(d) >= 2 and float(rect) != 0.0:
                problems.append(f"depth {d}: grid discrepancy {rect} is not 0")
            if not grid and not float(upper) > 0.0:
                problems.append(f"depth {d}: smooth discrepancy {upper} is not positive")
        return problems

    def _check_wht(self, op: CliOp, body: str, notes: List[str]) -> List[str]:
        out = np.array([float(v) for v in body.split()])
        vec = self.vector
        # entries are multiples of 1/8, so both identities hold exactly
        if out.size != vec.size or out[0] != vec.sum() or (out**2).sum() != vec.size * (vec**2).sum():
            return ["transform fails the sum or Parseval identity"]
        return []

    def counters(self) -> Dict[str, float]:
        return {"cli.stdout_bytes": self.stdout_total / max(self.checked, 1)}

    def close(self) -> None:
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)


def _magnitudes(payload: dict) -> Tuple[float, float, float]:
    """The thresholded quantities of a verdict payload."""
    return payload["max_offblock_S"], payload["max_offblock_Omega"], payload["belief_residual"]


def _dyadic_rows(rng: np.random.Generator, rows: int, size: int) -> List[List[float]]:
    """Probability rows with denominator 16, exact in binary64."""
    return [(rng.multinomial(16, np.full(size, 1.0 / size)) / 16.0).tolist() for _ in range(rows)]


def _smooth_source(rng: np.random.Generator) -> str:
    def means() -> List[List[float]]:
        slope = rng.uniform(0.2, 0.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        return [[float(rng.uniform(-0.4, 0.4)), float(m)] for m in slope]

    return json.dumps({
        "kind": "smooth", "v_depth": 1, "v_probs": [0.5, 0.5],
        "u_mean": means(), "w_mean": means(),
    }, sort_keys=True)


def _grid_source(rng: np.random.Generator) -> str:
    return json.dumps({
        "kind": "grid", "v_depth": 2, "u_depth": 2, "w_depth": 2,
        "v_probs": [0.25, 0.25, 0.25, 0.25],
        "u_given_v": _dyadic_rows(rng, 4, 4), "w_given_v": _dyadic_rows(rng, 4, 4),
    }, sort_keys=True)


def make(name: str, scratch: str):
    if name == "dense_wide":
        return DenseWide()
    if name == "corpus_small":
        return CorpusSmall()
    if name == "cli_files":
        return CliFiles(scratch)
    raise ValueError(f"unknown workload {name!r}")
