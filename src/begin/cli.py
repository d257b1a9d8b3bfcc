"""Command-line surface: one subcommand per analysis, deterministic output.

Exit codes: 0 = CI (or plain success), 1 = not CI, 2 = error.  Empirical
(sample) inputs never produce a hard verdict unless --assert-tol is given;
they get an advisory report with magnitudes and "empirical": true.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from ._textrows import distinct_column, format_rows, read_lines
from .bitgroup import _admit, partition_from_json
from .distribution import (
    Pmf,
    _is_pmf_header,
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
from .schur import _require_tolerance, pinv_sym, sb_inverse, schur_complement

__all__ = ["main"]


def _parse_depths(text: str) -> Tuple[int, ...]:
    """Accept a single depth "3" or an inclusive range "1..5"."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty depth range {text!r}")
        return tuple(range(lo_i, hi_i + 1))
    return (int(text),)


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
    p_rank.add_argument("--rank-tol", type=float, default=None)

    for name, text in (("prism", "dense group-circulant of a vector"),
                       ("wht", "Walsh transform of a vector")):
        p_vec = sub.add_parser(name, help=text)
        p_vec.add_argument("input", metavar="VEC")
        p_vec.add_argument("--format", choices=("csv", "json"), default="csv")
        p_vec.add_argument("--out", default=None, metavar="FILE")

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


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _sniff_pmf_file(path: str) -> bool:
    """True when the CSV's first data line is the pmf header, else samples.

    The file is read up to that line only; its lines end, and are stripped
    and skipped, as read_lines ends, strips and skips them.
    """
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and line[0] != "#":
                return _is_pmf_header(line)
    raise ValueError(f"{path} has no data lines")


def _read_vector(path: str) -> np.ndarray:
    _, lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path} has no numeric entries")
    tokens = ",".join(lines).split(",")
    return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


def _read_pmf(path: str) -> Pmf:
    """read_pmf_csv, saying on stderr when the file's sum was rescaled to 1."""
    pmf = read_pmf_csv(path)
    total = pmf.meta.get("renormalised_from")
    if total is not None:
        sys.stderr.write(f"warning: {path} sums to {total}; rescaled to sum to 1\n")
    return pmf


def cmd_test(args: argparse.Namespace) -> int:
    with open(args.partition) as fh:
        part = partition_from_json(fh.read())
    empirical = not _sniff_pmf_file(args.input)
    if empirical:
        pmf = pmf_from_samples(read_samples_csv(args.input))
    else:
        pmf = _read_pmf(args.input)
    tol = args.assert_tol if (empirical and args.assert_tol is not None) else args.tol
    verdict = test_ci(pmf, part, tol=tol, rank_tol=args.rank_tol)
    payload = verdict.to_json_dict()
    if empirical:
        payload["empirical"] = True
        if args.assert_tol is None:
            # advisory only: magnitudes without a hard claim
            payload["is_ci"] = None
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    if empirical and args.assert_tol is None:
        return 0
    return 0 if verdict.is_ci else 1


def cmd_graph(args: argparse.Namespace) -> int:
    with open(args.partition) as fh:
        part = partition_from_json(fh.read())
    pmf = _read_pmf(args.input)
    sp = assemble_sigma(pmf, part)
    # the graph keeps the block inverse uncopied; the export reads its
    # edges, which form Omega once
    g = build_graph(sb_inverse(sp, schur_complement(sp, args.rank_tol)), sp.labels, args.tol)
    fmt = args.format
    if fmt is None:
        if args.out is not None and args.out.lower().endswith(".json"):
            fmt = "json"
        else:
            fmt = "dot"
    _emit(export_graph(g, fmt), args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    pmf = _read_pmf(args.input)
    n = (1 << pmf.p) - 1
    _admit(f"sigma over n = {n} masks", n, n)
    bits = np.arange(1, n + 1)
    sigma = interaction_cov(pmf, bits, bits)
    # exactly symmetric, as interaction_cov of one mask list with itself
    _, rank = pinv_sym(sigma, args.rank_tol)
    support = pmf.support_size
    status = "pass" if rank == support - 1 else "fail"
    sys.stdout.write(f"rank: {rank}\nsupport: {support}\nidentity: {status}\n")
    return 0


def _format_matrix(mat: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(mat.tolist()) + "\n"
    table, index = distinct_column("%.17g", mat.ravel())
    row = ",".join(["%s"] * mat.shape[1]) + "\n"
    return "".join(format_rows(row, *((table, col) for col in index.reshape(mat.shape).T)))


def _format_vector(vec: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(vec.tolist()) + "\n"
    return "".join(format_rows("%s\n", distinct_column("%.17g", vec)))


def cmd_prism(args: argparse.Namespace) -> int:
    y = _read_vector(args.input)
    _emit(_format_matrix(prism(y).dense(), args.format), args.out)
    return 0


def cmd_wht(args: argparse.Namespace) -> int:
    y = _read_vector(args.input)
    _emit(_format_vector(fwht(y), args.format), args.out)
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    depths = _parse_depths(args.depths)
    with open(args.input) as fh:
        source = source_from_json(fh.read())
    verdicts = quantized_ci_scan(source, depths, tol=args.tol)
    lines = [
        "d,is_ci,max_offblock_S,max_offblock_Omega,belief_residual,rank_B,support_B"
    ]
    for d, v in zip(depths, verdicts):
        lines.append(
            f"{d},{str(v.is_ci).lower()},{v.max_offblock_s:.17g},"
            f"{v.max_offblock_omega:.17g},{v.belief_residual:.17g},"
            f"{v.rank_b},{v.support_b}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    depths = _parse_depths(args.depths)
    with open(args.input) as fh:
        source = source_from_json(fh.read())
    report = delta_curve(source, depths, mode=args.mode)
    _emit(report.to_csv(), args.out)
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    # both lists are parsed whatever the mode, so a malformed one is refused
    dims = tuple(map(int, args.dims.split(","))) if args.dims else ()
    thetas = tuple(map(float, args.thetas.split(","))) if args.thetas else ()
    if args.mode == "ci":
        if len(dims) != 3:
            raise ValueError("ci mode needs --dims R,S,T")
        pmf = make_ci_pmf(
            *dims, seed=args.seed, zero_prob=args.zero_prob, alpha=args.alpha
        )
    elif args.mode == "generic":
        if len(dims) != 1:
            raise ValueError("generic mode needs --dims P")
        pmf = make_generic_pmf(dims[0], seed=args.seed,
                               zero_fraction=args.zero_prob)
    elif args.mode == "ising":
        if len(thetas) != 4:
            raise ValueError("ising mode needs --thetas T12,T23,T34,T41")
        pmf = make_ising_cycle_pmf(thetas, chord=args.chord)
        pmf = Pmf(pmf.p, pmf.probs, meta={**pmf.meta, "seed": args.seed})
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    write_pmf_csv(pmf, args.out)
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
        for name in ("tol", "assert_tol", "rank_tol"):
            value = getattr(args, name, None)
            if value is not None:
                _require_tolerance("--" + name.replace("_", "-"), value)
        return _DISPATCH[args.subcommand](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # exit 1 means "not CI", so a crash of any other kind is an error too
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
