"""Command-line surface: one subcommand per analysis, deterministic output.

Exit codes: 0 = CI (or plain success), 1 = not CI, 2 = error.  Empirical
(sample) inputs never produce a hard verdict unless --assert-tol is given;
they get an advisory report with magnitudes and "empirical": true.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bitgroup import Mask, partition_from_json
from .distribution import (
    Pmf,
    interaction_cov,
    make_ci_pmf,
    make_generic_pmf,
    make_ising_cycle_pmf,
    pmf_from_samples,
    read_pmf_csv,
    read_samples_csv,
    write_pmf_csv,
)
from .engine import assemble_sigma, test_ci
from .graph import build_graph, export_graph
from .hadamard import fwht, prism
from .quantize import delta_curve, quantized_ci_scan, source_from_json
from .schur import pinv_sym, sb_inverse, schur_complement

__all__ = ["RunConfig", "main"]

_RANK_WIDTH_CAP = 12


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; identical configs give identical bytes."""

    subcommand: str
    input_path: Optional[str] = None
    partition_path: Optional[str] = None
    tol: float = 1e-8
    rank_tol: Optional[float] = None
    seed: int = 0
    depths: Tuple[int, ...] = ()
    fmt: Optional[str] = None
    out: Optional[str] = None
    assert_tol: Optional[float] = None
    mode: Optional[str] = None
    dims: Tuple[int, ...] = ()
    zero_prob: float = 0.0
    alpha: float = 1.0
    thetas: Tuple[float, ...] = ()
    chord: float = 0.0


def _parse_depths(text: str) -> Tuple[int, ...]:
    """Accept a single depth "3" or an inclusive range "1..5"."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty depth range {text!r}")
        return tuple(range(lo_i, hi_i + 1))
    return (int(text),)


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="begin",
        description=(
            "Exact conditional-independence analysis of +-1 coordinate blocks "
            "via interaction covariances"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, partition: bool = False) -> None:
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--rank-tol", type=float, default=None)
        if partition:
            p.add_argument("--partition", required=True, metavar="FILE")

    p_test = sub.add_parser("test", help="CI verdict for a pmf or sample CSV")
    p_test.add_argument("input", metavar="CSV")
    common(p_test, partition=True)
    p_test.add_argument("--assert-tol", type=float, default=None, metavar="X")

    p_graph = sub.add_parser("graph", help="export the interaction graph")
    p_graph.add_argument("input", metavar="CSV")
    common(p_graph, partition=True)
    p_graph.add_argument("--format", choices=("dot", "json"), default=None)
    p_graph.add_argument("--out", default=None, metavar="FILE")

    p_rank = sub.add_parser("rank", help="rank/support report of a pmf")
    p_rank.add_argument("input", metavar="CSV")
    common(p_rank)

    p_prism = sub.add_parser("prism", help="dense group-circulant of a vector")
    p_prism.add_argument("input", metavar="VEC")
    p_prism.add_argument("--format", choices=("csv", "json"), default="csv")
    p_prism.add_argument("--out", default=None, metavar="FILE")

    p_wht = sub.add_parser("wht", help="Walsh transform of a vector")
    p_wht.add_argument("input", metavar="VEC")
    p_wht.add_argument("--format", choices=("csv", "json"), default="csv")
    p_wht.add_argument("--out", default=None, metavar="FILE")

    p_quant = sub.add_parser("quantize", help="per-depth CI verdicts of a source")
    p_quant.add_argument("input", metavar="SOURCE.json")
    p_quant.add_argument("--depths", required=True, metavar="A..B")
    p_quant.add_argument("--tol", type=float, default=1e-8)
    p_quant.add_argument("--out", default=None, metavar="FILE")

    p_delta = sub.add_parser("delta", help="discrepancy curve of a source")
    p_delta.add_argument("input", metavar="SOURCE.json")
    p_delta.add_argument("--depths", required=True, metavar="A..B")
    p_delta.add_argument("--mode", choices=("auto", "rect", "exact", "upper"),
                         default="auto")
    p_delta.add_argument("--out", default=None, metavar="FILE")

    p_rand = sub.add_parser("random", help="write a generated pmf CSV")
    p_rand.add_argument("--mode", choices=("ci", "generic", "ising"), required=True)
    p_rand.add_argument("--dims", default=None, metavar="R,S,T|P")
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--zero-prob", type=float, default=0.0)
    p_rand.add_argument("--alpha", type=float, default=1.0)
    p_rand.add_argument("--thetas", default=None, metavar="T12,T23,T34,T41")
    p_rand.add_argument("--chord", type=float, default=0.0)
    p_rand.add_argument("--out", required=True, metavar="FILE")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        input_path=getattr(args, "input", None),
        partition_path=getattr(args, "partition", None),
        tol=getattr(args, "tol", 1e-8),
        rank_tol=getattr(args, "rank_tol", None),
        seed=getattr(args, "seed", 0),
        depths=_parse_depths(args.depths) if getattr(args, "depths", None) else (),
        fmt=getattr(args, "format", None),
        out=getattr(args, "out", None),
        assert_tol=getattr(args, "assert_tol", None),
        mode=getattr(args, "mode", None),
        dims=_parse_int_tuple(args.dims) if getattr(args, "dims", None) else (),
        zero_prob=getattr(args, "zero_prob", 0.0),
        alpha=getattr(args, "alpha", 1.0),
        thetas=_parse_float_tuple(args.thetas) if getattr(args, "thetas", None) else (),
        chord=getattr(args, "chord", 0.0),
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _sniff_pmf_file(path: str) -> bool:
    """True when the CSV is a pmf table (bits,prob header), else samples."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            return line.replace(" ", "").startswith("bits,prob")
    raise ValueError(f"{path} has no data lines")


def _read_vector(path: str) -> np.ndarray:
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


def cmd_test(cfg: RunConfig) -> int:
    with open(cfg.partition_path) as fh:
        part = partition_from_json(fh.read())
    empirical = not _sniff_pmf_file(cfg.input_path)
    if empirical:
        pmf = pmf_from_samples(read_samples_csv(cfg.input_path))
    else:
        pmf = read_pmf_csv(cfg.input_path)
    tol = cfg.assert_tol if (empirical and cfg.assert_tol is not None) else cfg.tol
    verdict = test_ci(pmf, part, tol=tol, rank_tol=cfg.rank_tol)
    payload = verdict.to_json_dict()
    if empirical:
        payload["empirical"] = True
        if cfg.assert_tol is None:
            # advisory only: magnitudes without a hard claim
            payload["is_ci"] = None
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    if empirical and cfg.assert_tol is None:
        return 0
    return 0 if verdict.is_ci else 1


def cmd_graph(cfg: RunConfig) -> int:
    with open(cfg.partition_path) as fh:
        part = partition_from_json(fh.read())
    pmf = read_pmf_csv(cfg.input_path)
    sp = assemble_sigma(pmf, part)
    sr = schur_complement(sp, cfg.rank_tol)
    om = sb_inverse(sp, sr)
    g = build_graph(om, sp.labels, cfg.tol)
    fmt = cfg.fmt
    if fmt is None:
        if cfg.out is not None and cfg.out.lower().endswith(".json"):
            fmt = "json"
        else:
            fmt = "dot"
    _emit(export_graph(g, fmt), cfg.out)
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    pmf = read_pmf_csv(cfg.input_path)
    if pmf.p > _RANK_WIDTH_CAP:
        raise ValueError(f"rank report capped at p <= {_RANK_WIDTH_CAP}")
    masks = [Mask(v, pmf.p) for v in range(1, 1 << pmf.p)]
    sigma = interaction_cov(pmf, masks, masks)
    _, rank = pinv_sym((sigma + sigma.T) / 2.0, cfg.rank_tol)
    support = pmf.support_size
    status = "pass" if rank == support - 1 else "fail"
    sys.stdout.write(f"rank: {rank}\nsupport: {support}\nidentity: {status}\n")
    return 0


def _format_matrix(mat: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([[float(v) for v in row] for row in mat]) + "\n"
    lines = [",".join(f"{v:.17g}" for v in row) for row in mat]
    return "\n".join(lines) + "\n"


def _format_vector(vec: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([float(v) for v in vec]) + "\n"
    return "\n".join(f"{v:.17g}" for v in vec) + "\n"


def cmd_prism(cfg: RunConfig) -> int:
    y = _read_vector(cfg.input_path)
    _emit(_format_matrix(prism(y).dense(), cfg.fmt or "csv"), cfg.out)
    return 0


def cmd_wht(cfg: RunConfig) -> int:
    y = _read_vector(cfg.input_path)
    _emit(_format_vector(fwht(y), cfg.fmt or "csv"), cfg.out)
    return 0


def cmd_quantize(cfg: RunConfig) -> int:
    with open(cfg.input_path) as fh:
        source = source_from_json(fh.read())
    verdicts = quantized_ci_scan(source, cfg.depths, tol=cfg.tol)
    lines = [
        "d,is_ci,max_offblock_S,max_offblock_Omega,belief_residual,rank_B,support_B"
    ]
    for d, v in zip(cfg.depths, verdicts):
        lines.append(
            f"{d},{str(v.is_ci).lower()},{v.max_offblock_s:.17g},"
            f"{v.max_offblock_omega:.17g},{v.belief_residual:.17g},"
            f"{v.rank_b},{v.support_b}"
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_delta(cfg: RunConfig) -> int:
    with open(cfg.input_path) as fh:
        source = source_from_json(fh.read())
    report = delta_curve(source, cfg.depths, mode=cfg.mode or "auto")
    _emit(report.to_csv(), cfg.out)
    return 0


def cmd_random(cfg: RunConfig) -> int:
    if cfg.mode == "ci":
        if len(cfg.dims) != 3:
            raise ValueError("ci mode needs --dims R,S,T")
        pmf = make_ci_pmf(
            *cfg.dims, seed=cfg.seed, zero_prob=cfg.zero_prob, alpha=cfg.alpha
        )
    elif cfg.mode == "generic":
        if len(cfg.dims) != 1:
            raise ValueError("generic mode needs --dims P")
        pmf = make_generic_pmf(cfg.dims[0], seed=cfg.seed,
                               zero_fraction=cfg.zero_prob)
    elif cfg.mode == "ising":
        if len(cfg.thetas) != 4:
            raise ValueError("ising mode needs --thetas T12,T23,T34,T41")
        pmf = make_ising_cycle_pmf(cfg.thetas, chord=cfg.chord)
        pmf = Pmf(pmf.p, pmf.probs, meta={**pmf.meta, "seed": cfg.seed})
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    write_pmf_csv(pmf, cfg.out)
    return 0


_DISPATCH = {
    "test": cmd_test,
    "graph": cmd_graph,
    "rank": cmd_rank,
    "prism": cmd_prism,
    "wht": cmd_wht,
    "quantize": cmd_quantize,
    "delta": cmd_delta,
    "random": cmd_random,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # exit 1 means "not CI", so a crash of any other kind is an error too
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
