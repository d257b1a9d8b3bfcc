import argparse
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import begin
from begin import (
    GridSource,
    Mask,
    Partition,
    Pmf,
    draw_samples,
    fwht,
    make_ci_pmf,
    make_generic_pmf,
    oracle_ci,
    partition_to_json,
    prism,
    read_pmf_csv,
    read_samples_csv,
    write_pmf_csv,
    write_samples_csv,
)
from begin._textrows import CHUNK_ROWS, read_lines
from begin.distribution import _is_pmf_header
from begin.cli import (
    _build_parser,
    _format_matrix,
    _format_vector,
    _read_vector,
    _sniff_pmf_file,
    main,
)
from begin.engine import test_ci as decide_ci

from conftest import cell_index, random_chain_pmf
from reference_readers import (
    reference_read_pmf_csv,
    reference_read_samples_csv,
    reference_sniff_pmf_file,
)
from test_graph import (
    reference_format_matrix,
    reference_format_vector,
    reference_read_vector,
    reference_write_pmf_csv,
)


@pytest.fixture()
def part111_file(tmp_path):
    path = tmp_path / "part.json"
    path.write_text(partition_to_json(Partition.coordinate_split(1, 1, 1)))
    return str(path)


def write_xor(tmp_path):
    probs = np.zeros(8)
    for a in (1, -1):
        for c in (1, -1):
            probs[cell_index((a, a * c, c))] = 0.25
    path = tmp_path / "xor.csv"
    write_pmf_csv(Pmf(3, probs), str(path))
    return str(path)


def test_verdict_exit_codes(tmp_path, part111_file, capsys):
    ci = tmp_path / "ci.csv"
    assert main(["random", "--mode", "ci", "--dims", "1,1,1", "--seed", "5",
                 "--out", str(ci)]) == 0
    assert main(["test", str(ci), "--partition", part111_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_ci"] is True
    assert payload["max_offblock_S"] <= 1e-10

    xor = write_xor(tmp_path)
    assert main(["test", xor, "--partition", part111_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_ci"] is False
    assert payload["max_offblock_S"] == 1.0


def test_rank_tol_keeps_a_zero_schur_complement_separated(tmp_path, part111_file, capsys):
    # this pmf's Schur complement is 0 up to rounding; a rank_tol relative to
    # its own spectrum inverted the noise, and separation said not CI
    ci = tmp_path / "ci.csv"
    assert main(["random", "--mode", "ci", "--dims", "1,1,1", "--seed", "170",
                 "--zero-prob", "0.3", "--out", str(ci)]) == 0
    assert main(["test", str(ci), "--partition", part111_file, "--rank-tol", "1e-10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["criteria"]["separation"] is True
    assert payload["max_offblock_Omega"] <= payload["tol"]


def test_a_center_cutting_rank_tol_exits_two_naming_it(tmp_path, capsys):
    ci = tmp_path / "ci.csv"
    part = tmp_path / "part.json"
    part.write_text(partition_to_json(Partition.coordinate_split(2, 3, 2)))
    assert main(["random", "--mode", "ci", "--dims", "2,3,2", "--seed", "11",
                 "--zero-prob", "0.3", "--out", str(ci)]) == 0
    for command in ("test", "graph"):
        capsys.readouterr()
        assert main([command, str(ci), "--partition", str(part), "--rank-tol", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row-space residual ")
        assert "rank_tol 0.1 gave rank(B) = 4 where the center support gives 5" in err
        assert "not an interaction covariance" not in err
        assert main([command, str(ci), "--partition", str(part)]) in (0, 1)


def test_a_zero_rank_tol_that_keeps_round_off_exits_two_naming_it(tmp_path, capsys):
    # the center block is singular, and a zero cut inverts its round-off
    ci = tmp_path / "ci.csv"
    part = tmp_path / "part.json"
    part.write_text(partition_to_json(Partition.coordinate_split(2, 3, 2)))
    assert main(["random", "--mode", "ci", "--dims", "2,3,2", "--seed", "11",
                 "--zero-prob", "0.3", "--out", str(ci)]) == 0
    capsys.readouterr()
    assert main(["test", str(ci), "--partition", str(part), "--rank-tol", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row-space residual ")
    assert err.endswith("; rank_tol 0.0 gave rank(B) = 7 where the center support gives 5\n")


def thin_center_pmf(pmf, part, scale):
    """pmf with the cells whose center coordinates are all 0 scaled by
    scale, renormalised: one center configuration of small positive mass."""
    center = sum(g.bits for g in part.b_gens)
    probs = pmf.probs.copy()
    probs[(np.arange(probs.size) & center) == 0] *= scale
    return Pmf(pmf.p, probs / probs.sum())


def thin_center_cases():
    for shape in ((1, 2, 1), (2, 3, 2)):
        part = Partition.coordinate_split(*shape)
        for pmf in (make_generic_pmf(sum(shape), seed=5, zero_fraction=0.0),
                    make_ci_pmf(*shape, seed=5, zero_prob=0.0)):
            for exponent in range(9, 16):
                yield thin_center_pmf(pmf, part, 10.0**-exponent), part


def test_a_thin_center_configuration_is_answered_not_refused(tmp_path, capsys):
    # the row-space residual of these inputs is kappa(B) eps round-off, which
    # once refused them as "not an interaction covariance"
    pmf_file, part_file = tmp_path / "pmf.csv", tmp_path / "part.json"
    answered = set()
    for pmf, part in thin_center_cases():
        verdict = decide_ci(pmf, part)
        assert verdict.is_ci == oracle_ci(pmf, part).is_ci
        assert verdict.rank_b == verdict.support_b - 1
        write_pmf_csv(pmf, str(pmf_file))
        part_file.write_text(partition_to_json(part))
        capsys.readouterr()
        code = main(["test", str(pmf_file), "--partition", str(part_file)])
        assert code == (0 if verdict.is_ci else 1)
        payload = json.loads(capsys.readouterr().out)
        assert (payload["rank_B"], payload["support_B"]) == (verdict.rank_b, verdict.support_b)
        answered.add(verdict.is_ci)
    assert answered == {True, False}
    # Omega is formed through B+, whose round-off still breaks the row space
    pmf, part = next(thin_center_cases())
    write_pmf_csv(pmf, str(pmf_file))
    part_file.write_text(partition_to_json(part))
    capsys.readouterr()
    assert main(["graph", str(pmf_file), "--partition", str(part_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row-space residual ")
    assert err.endswith("; the input is not an interaction covariance\n")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect (FOUND in CHANGES.md): on thin-center CI pmfs the separation "
    "route reads the eigh round-off of a tiny-mass block's pseudoinverse, "
    "scaled by 1/p_b, as a left-right edge while the other three routes say CI"))
def test_the_four_routes_agree_on_thin_center_inputs():
    disagree = [(pmf, part) for pmf, part in thin_center_cases()
                if len(set(decide_ci(pmf, part).criteria.values())) > 1]
    assert disagree == []


def test_verdict_payload_matches_library(tmp_path, part111_file, capsys):
    ci = tmp_path / "ci.csv"
    main(["random", "--mode", "ci", "--dims", "1,1,1", "--seed", "5",
          "--out", str(ci)])
    main(["test", str(ci), "--partition", part111_file])
    payload = json.loads(capsys.readouterr().out)
    verdict = decide_ci(read_pmf_csv(str(ci)), Partition.coordinate_split(1, 1, 1))
    assert payload == verdict.to_json_dict()


def test_malformed_input_exits_two(tmp_path, part111_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("bits,prob\n+-,0.5\nxx,0.5\n")
    assert main(["test", str(bad), "--partition", part111_file]) == 2
    assert capsys.readouterr().err.startswith("error:")
    missing = tmp_path / "nope.csv"
    assert main(["test", str(missing), "--partition", part111_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_ragged_sample_file_exits_two_naming_the_row(tmp_path, part111_file, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,1,1\n1,-1\n")
    assert main(["test", str(ragged), "--partition", part111_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sample row 2 '1,-1' has 2 fields, expected 3 as in the first row\n"
    )


def test_empirical_input_is_advisory(tmp_path, part111_file, capsys):
    samples = tmp_path / "samples.csv"
    write_samples_csv(
        draw_samples(make_ci_pmf(1, 1, 1, seed=5), 200, seed=7), str(samples)
    )
    assert main(["test", str(samples), "--partition", part111_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empirical"] is True
    assert payload["is_ci"] is None
    assert payload["max_offblock_S"] > 0.0


def test_empirical_assert_tol_gives_a_verdict(tmp_path, part111_file, capsys):
    samples = tmp_path / "samples.csv"
    write_samples_csv(
        draw_samples(make_ci_pmf(1, 1, 1, seed=5), 200, seed=7), str(samples)
    )
    assert main(["test", str(samples), "--partition", part111_file,
                 "--assert-tol", "0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_ci"] is True
    assert payload["tol"] == 0.2
    assert main(["test", str(samples), "--partition", part111_file,
                 "--assert-tol", "1e-6"]) == 1
    assert json.loads(capsys.readouterr().out)["is_ci"] is False


def test_graph_dot_output(tmp_path, part111_file, capsys):
    xor = write_xor(tmp_path)
    assert main(["graph", xor, "--partition", part111_file]) == 0
    dot = capsys.readouterr().out
    for wing in ("L", "B", "R"):
        assert f"subgraph cluster_{wing} {{" in dot
    assert " -- " in dot


def test_graph_format_follows_extension(tmp_path, part111_file, capsys):
    xor = write_xor(tmp_path)
    out_json = tmp_path / "g.json"
    assert main(["graph", xor, "--partition", part111_file,
                 "--out", str(out_json)]) == 0
    obj = json.loads(out_json.read_text())
    assert sorted(obj) == ["edges", "nodes", "tol", "width"]
    out_dot = tmp_path / "g.dot"
    assert main(["graph", xor, "--partition", part111_file,
                 "--out", str(out_dot)]) == 0
    assert out_dot.read_text().startswith("graph begin {")
    # explicit format beats the extension
    assert main(["graph", xor, "--partition", part111_file,
                 "--out", str(out_json), "--format", "dot"]) == 0
    assert out_json.read_text().startswith("graph begin {")


def test_graph_separates_markov_chain(tmp_path, capsys):
    chain = random_chain_pmf(4, 11)
    csv_path = tmp_path / "chain.csv"
    write_pmf_csv(chain, str(csv_path))
    part = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4)],
        c_gens=[Mask(0b0010, 4), Mask(0b0001, 4)],
    )
    part_path = tmp_path / "p4.json"
    part_path.write_text(partition_to_json(part))
    assert main(["graph", str(csv_path), "--partition", str(part_path),
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["nodes"]) == 9
    wings = [n["wing"] for n in obj["nodes"]]
    assert wings.count("B") == 1 and wings.count("L") == 2 and wings.count("R") == 6
    cross = [
        e for e in obj["edges"] if {wings[e[0]], wings[e[1]]} == {"L", "R"}
    ]
    assert cross == []


def test_rank_report(tmp_path, capsys):
    full = tmp_path / "full.csv"
    write_pmf_csv(make_ci_pmf(1, 1, 1, seed=5), str(full))
    assert main(["rank", str(full)]) == 0
    assert capsys.readouterr().out == "rank: 7\nsupport: 8\nidentity: pass\n"
    two = tmp_path / "two.csv"
    write_pmf_csv(Pmf(2, np.array([0.5, 0.0, 0.0, 0.5])), str(two))
    assert main(["rank", str(two)]) == 0
    assert capsys.readouterr().out == "rank: 1\nsupport: 2\nidentity: pass\n"
    point = tmp_path / "point.csv"
    write_pmf_csv(Pmf(2, np.eye(4)[1]), str(point))
    assert main(["rank", str(point)]) == 0
    assert capsys.readouterr().out == "rank: 0\nsupport: 1\nidentity: pass\n"


def test_rank_past_the_byte_limit_exits_two_before_sigma(tmp_path, capsys, monkeypatch):
    import begin.cli as cli_module

    def allocate(*args):
        raise AssertionError("sigma allocated")

    monkeypatch.setattr(cli_module, "interaction_cov", allocate)
    wide = tmp_path / "p13.csv"
    write_pmf_csv(make_generic_pmf(13, seed=1), str(wide))
    assert main(["rank", str(wide)]) == 2
    assert capsys.readouterr().err == (
        "error: sigma over n = 8191 masks needs 536739848 bytes, "
        "beyond the 134217728-byte limit\n"
    )


def test_rank_takes_no_tol(tmp_path, capsys):
    # rank reads only --rank-tol; a --tol it would ignore is refused
    full = tmp_path / "full.csv"
    write_pmf_csv(make_ci_pmf(1, 1, 1, seed=5), str(full))
    with pytest.raises(SystemExit) as exc:
        main(["rank", str(full), "--tol", "1e-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --tol 1e-3" in captured.err


def test_prism_and_wht_match_library(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("1\n0.5\n")
    assert main(["prism", str(vec)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    np.testing.assert_array_equal(got, prism(np.array([1.0, 0.5])).dense())
    assert main(["wht", str(vec), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    np.testing.assert_array_equal(got, fwht(np.array([1.0, 0.5])))


def test_vector_input_accepts_commas_and_comments(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("# moment vector\n1, 0.25, 0.25, 0.0625\n")
    assert main(["wht", str(vec)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 4
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["wht", str(empty)]) == 2


def test_delta_refuses_a_negative_depth(tmp_path, capsys):
    src = tmp_path / "smooth.json"
    src.write_text(
        '{"kind":"smooth","v_depth":0,"v_probs":[1.0],'
        '"u_mean":[[0.0,1.0]],"w_mean":[[0.0,1.0]]}'
    )
    assert main(["delta", str(src), "--depths", "-1"]) == 2
    assert capsys.readouterr().err == "error: depth must be >= 0, got -1\n"


def test_quantize_scan_csv(tmp_path, capsys):
    src = tmp_path / "smooth.json"
    src.write_text(
        '{"kind":"smooth","v_depth":0,"v_probs":[1.0],'
        '"u_mean":[[0.0,1.0]],"w_mean":[[0.0,1.0]]}'
    )
    assert main(["quantize", str(src), "--depths", "1..3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == (
        "d,is_ci,max_offblock_S,max_offblock_Omega,belief_residual,"
        "rank_B,support_B"
    )
    assert len(lines) == 4
    assert all(ln.split(",")[1] == "false" for ln in lines[1:])


def test_delta_curve_csv(tmp_path, capsys):
    src = tmp_path / "smooth.json"
    src.write_text(
        '{"kind":"smooth","v_depth":0,"v_probs":[1.0],'
        '"u_mean":[[0.0,1.0]],"w_mean":[[0.0,1.0]]}'
    )
    assert main(["delta", str(src), "--depths", "1..4", "--mode", "auto"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "d,delta_rect,delta_exact,delta_upper,bound_rhs"
    assert len(lines) == 5
    assert float(lines[1].split(",")[4]) == 0.015625


FINITE_SOURCES = {
    "grid": {"kind": "grid", "v_depth": 1, "u_depth": 1, "w_depth": 1, "v_probs": [0.5, 0.5],
             "u_given_v": [[0.5, 0.5]] * 2, "w_given_v": [[0.5, 0.5]] * 2},
    "smooth": {"kind": "smooth", "v_depth": 1, "v_probs": [0.5, 0.5],
               "u_mean": [[0.1, 0.3], [-0.2, -0.4]], "w_mean": [[0.25, -0.35], [0.05, 0.45]]},
}


@pytest.mark.parametrize("kind", ["grid", "smooth"])
@pytest.mark.parametrize("field", ["alpha", "l_u", "l_w"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_holder_constants_exit_two_naming_the_field(tmp_path, capsys, kind, field, bad):
    source = {**FINITE_SOURCES[kind], "alpha": 1.0, "l_u": 0.5, "l_w": 0.5}
    src = tmp_path / "constants.json"
    src.write_text(json.dumps({**source, field: bad}))
    assert main(["delta", str(src), "--depths", "1..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be finite and positive, got {bad}\n"
    src.write_text(json.dumps(source))
    assert main(["delta", str(src), "--depths", "1..3"]) == 0


NAN_SOURCES = [
    ({"kind": "grid", "v_depth": 1, "u_depth": 1, "w_depth": 1, "v_probs": [float("nan"), 0.5],
      "u_given_v": [[0.5, 0.5]] * 2, "w_given_v": [[0.5, 0.5]] * 2},
     "v_probs must be a probability vector"),
    ({"kind": "smooth", "v_depth": 1, "v_probs": [0.5, 0.5],
      "u_mean": [[float("nan"), 0.3], [-0.2, -0.4]], "w_mean": [[0.25, -0.35], [0.05, 0.45]]},
     "u_mean holds a non-finite coefficient"),
]


@pytest.mark.parametrize("source, message", NAN_SOURCES)
@pytest.mark.parametrize("subcommand", ["delta", "quantize"])
def test_nan_sources_exit_two_naming_the_field(tmp_path, capsys, source, message, subcommand):
    src = tmp_path / "nan.json"
    # json writes a nan as NaN, which its reader takes back
    src.write_text(json.dumps(source))
    assert main([subcommand, str(src), "--depths", "1..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_file_commands_leave_numpy_ma_unimported(tmp_path):
    """The first np.unique or np.setdiff1d in a process imports numpy.ma,
    10-14 ms that a one-shot begin test or begin graph need not pay."""
    pmf = make_ci_pmf(2, 1, 2, seed=4, zero_prob=0.3)
    write_pmf_csv(pmf, str(tmp_path / "pmf.csv"))
    write_samples_csv(draw_samples(pmf, 300, seed=5), str(tmp_path / "samples.csv"))
    (tmp_path / "part.json").write_text(partition_to_json(Partition.coordinate_split(2, 1, 2)))
    (tmp_path / "dup.csv").write_text("bits,prob\n+-,0.5\n--,0.25\n+-,0.25\n")
    given = ["--partition", str(tmp_path / "part.json")]
    calls = [
        ["test", str(tmp_path / "pmf.csv"), *given],
        ["test", str(tmp_path / "samples.csv"), *given],
        ["test", str(tmp_path / "dup.csv"), *given],
        ["graph", str(tmp_path / "pmf.csv"), *given, "--out", str(tmp_path / "g.dot")],
        ["graph", str(tmp_path / "pmf.csv"), *given, "--format", "json",
         "--out", str(tmp_path / "g.json")],
    ]
    script = (
        "import json, sys\n"
        "from begin.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "sys.stderr.write(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(begin.__file__))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    codes, imported = json.loads(run.stderr.splitlines()[-1])
    assert codes[0] in (0, 1) and codes[1] in (0, 1) and codes[2:] == [2, 0, 0]
    assert not imported


def test_the_cli_digest_is_identical_over_two_runs():
    """tools/cli_digest.py hashes what every CLI call lets a user see; two
    runs of one tree must print the same lines, and so must two runs of its
    calls in one interpreter, which share main's parser."""
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_digest.py")
    src = os.path.dirname(os.path.dirname(begin.__file__))
    twice = f"import runpy\nrun = runpy.run_path({tool!r})['run']\nrun()\nrun()\n"
    runs = [subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=600)
            for argv in ([sys.executable, tool], [sys.executable, tool],
                         [sys.executable, "-c", twice])]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(r"([0-9a-f]{64}  \S.*\n)+", run.stdout)
    assert runs[0].stdout == runs[1].stdout
    assert runs[2].stdout == runs[0].stdout * 2
    # usage errors (exit 2 from argparse) are among the calls both halves hash
    assert " rank gen7 tol\n" in runs[0].stdout


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    vec = tmp_path / "vec.txt"
    vec.write_text("1\n2\n")
    for _ in range(3):
        assert main(["wht", str(vec)]) == 0
    # one tree is the top-level parser and its eight subcommands
    assert len(built) <= 9
    assert _build_parser() is _build_parser()


def fresh_process(argv):
    """(exit code, stdout, stderr) of argv run by a new interpreter."""
    src = os.path.dirname(os.path.dirname(begin.__file__))
    run = subprocess.run([sys.executable, "-m", "begin.cli", *argv],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    return run.returncode, run.stdout, run.stderr


def in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this interpreter."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_in_process_calls_carry_nothing_into_the_next(tmp_path, part111_file, capsys):
    xor = write_xor(tmp_path)
    vec = tmp_path / "vec.txt"
    vec.write_text("1\n2\n3\n4\n")
    graph = ["graph", xor, "--partition", part111_file]
    wht = ["wht", str(vec)]
    rank = ["rank", xor]
    # a call with a non-default format, or a usage error, then a plain call:
    # DOT, CSV and the rank report, as a new process prints them
    for before, code, after, starts in (
        ([*graph, "--format", "json"], 0, graph, "graph begin {"),
        ([*wht, "--format", "json"], 0, wht, "10\n"),
        ([*rank, "--tol", "1"], 2, rank, "rank: "),
    ):
        expected = fresh_process(after)
        assert expected[0] == 0 and expected[1].startswith(starts)
        assert in_process(before, capsys)[0] == code
        assert in_process(after, capsys) == expected


def test_random_modes_are_deterministic(tmp_path):
    for argv_tail, name in (
        (["--mode", "ci", "--dims", "1,2,1", "--seed", "9",
          "--zero-prob", "0.3"], "ci.csv"),
        (["--mode", "generic", "--dims", "4", "--seed", "9"], "gen.csv"),
        (["--mode", "ising", "--thetas", "0.4,0.3,0.2,0.5",
          "--chord", "0.6"], "ising.csv"),
    ):
        first = tmp_path / ("a_" + name)
        second = tmp_path / ("b_" + name)
        assert main(["random", *argv_tail, "--out", str(first)]) == 0
        assert main(["random", *argv_tail, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_random_generic_past_2_to_the_14_cells(tmp_path):
    out = tmp_path / "wide.csv"
    assert main(["random", "--mode", "generic", "--dims", "16", "--seed", "1",
                 "--out", str(out)]) == 0
    pmf = read_pmf_csv(str(out))
    assert pmf.p == 16 and pmf.probs.sum() == 1.0


def test_random_argument_validation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["random", "--mode", "ci", "--dims", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["random", "--mode", "ising", "--thetas", "1,2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    for flag, value, message in (
        ("--zero-prob", "nan", "zero_prob must be in [0,1), got nan"),
        ("--zero-prob", "1.5", "zero_prob must be in [0,1), got 1.5"),
        ("--alpha", "0", "alpha must be finite and positive, got 0.0"),
        ("--alpha", "inf", "alpha must be finite and positive, got inf"),
    ):
        assert main(["random", "--mode", "ci", "--dims", "1,1,1", flag, value,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    overflow = "energy range 2*(sum|thetas| + |chord|) is not finite"
    for thetas, chord, message in (
        ("1,1,1,1", "inf", "need a finite chord weight, got inf"),
        ("1,1,1,1", "-inf", "need a finite chord weight, got -inf"),
        ("1,1,1,1", "nan", "need a finite chord weight, got nan"),
        ("1e308,1e308,1,1", "0", overflow),
        ("1e308,1,1,1", "0", overflow),
        ("1,1,1,1", "1e308", overflow),
    ):
        # refused before any arithmetic, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["random", "--mode", "ising", "--thetas", thetas,
                         f"--chord={chord}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_round_trip_through_files_is_bit_exact(tmp_path, part111_file, capsys):
    ci = tmp_path / "ci.csv"
    main(["random", "--mode", "ci", "--dims", "1,1,1", "--seed", "12",
          "--zero-prob", "0.3", "--out", str(ci)])
    pmf = read_pmf_csv(str(ci))
    direct = make_ci_pmf(1, 1, 1, seed=12, zero_prob=0.3)
    np.testing.assert_array_equal(pmf.probs, direct.probs)
    main(["test", str(ci), "--partition", part111_file])
    payload = json.loads(capsys.readouterr().out)
    verdict = decide_ci(direct, Partition.coordinate_split(1, 1, 1))
    assert payload == verdict.to_json_dict()


def test_bad_arguments_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["quantize", "missing.json"])  # --depths is required


def test_non_finite_pmf_exits_two(tmp_path, part111_file, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("bits,prob\n" + "".join(f"{c:03b},nan\n" for c in range(8)))
    assert main(["test", str(bad), "--partition", part111_file]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite probabilities")


def test_unexpected_exception_exits_two(tmp_path, part111_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate sigma")

    monkeypatch.setattr("begin.cli.test_ci", exhausted)
    xor = write_xor(tmp_path)
    assert main(["test", xor, "--partition", part111_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError: cannot allocate sigma\n"


def test_interrupts_and_exits_are_not_swallowed(tmp_path, part111_file, monkeypatch):
    xor = write_xor(tmp_path)
    for exc in (KeyboardInterrupt(), SystemExit(3)):
        def raiser(*args, _exc=exc, **kwargs):
            raise _exc

        monkeypatch.setattr("begin.cli.test_ci", raiser)
        with pytest.raises(type(exc)):
            main(["test", xor, "--partition", part111_file])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quantize", "{missing}", "--depths", "3..1"],
         "error: empty depth range '3..1'\n"),
        (["random", "--mode", "ci", "--dims", "a,1,1", "--out", "{missing}"],
         "error: invalid literal for int() with base 10: 'a'\n"),
        (["random", "--mode", "ising", "--thetas", "x,1,1,1", "--out", "{missing}"],
         "error: could not convert string to float: 'x'\n"),
    ],
)
def test_list_arguments_are_refused_before_any_file_is_opened(
    tmp_path, capsys, argv, message
):
    # the path lies in a directory that does not exist, so opening it for
    # reading or writing would fail with a different message
    missing = str(tmp_path / "absent" / "file")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_inputs_wider_than_the_cap_exit_two_before_allocating(
    tmp_path, part111_file, capsys
):
    # a 2^40-cell table would need 8 TiB; the width is refused first
    wide_pmf = tmp_path / "wide.csv"
    wide_pmf.write_text("bits,prob\n" + "+" * 40 + ",1\n")
    assert main(["test", str(wide_pmf), "--partition", part111_file]) == 2
    assert capsys.readouterr().err == "error: 40-bit cells exceed the 24-bit cap\n"
    wide_samples = tmp_path / "wide_samples.csv"
    wide_samples.write_text(",".join(["1"] * 40) + "\n" + ",".join(["-1"] * 40) + "\n")
    assert main(["test", str(wide_samples), "--partition", part111_file]) == 2
    assert capsys.readouterr().err == "error: 40 sample columns exceed the 24-bit cap\n"


def test_grid_atom_tables_past_the_byte_limit_exit_two(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("atom table built")

    monkeypatch.setattr(GridSource, "_atom_table", refuse)
    src = tmp_path / "deep.json"
    src.write_text(json.dumps({
        "kind": "grid", "v_depth": 10, "u_depth": 10, "w_depth": 10,
        "v_probs": [1.0], "u_given_v": [[1.0]], "w_given_v": [[1.0]],
    }))
    for cmd in ("delta", "quantize"):
        assert main([cmd, str(src), "--depths", "1..2"]) == 2
        assert capsys.readouterr().err == (
            "error: the atom table of grid depths u=10, v=10, w=10 needs 8589934592 bytes, "
            "beyond the 134217728-byte limit\n"
        )


@pytest.mark.parametrize("subcommand", [["test"], ["graph", "--format", "json"]])
def test_sigma_past_the_byte_limit_exits_two(tmp_path, capsys, monkeypatch, subcommand):
    import begin.engine as engine_module

    def allocate(*args):
        raise AssertionError("sigma allocated")

    monkeypatch.setattr(engine_module, "interaction_cov", allocate)
    part = tmp_path / "part.json"
    part.write_text(partition_to_json(Partition.coordinate_split(2, 10, 2)))
    pmf = tmp_path / "p14.csv"
    assert main(["random", "--mode", "generic", "--dims", "14", "--seed", "3",
                 "--out", str(pmf)]) == 0
    code = main([subcommand[0], str(pmf), "--partition", str(part), *subcommand[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 7167 masks" in err and "134217728-byte limit" in err


def outcome(read, path):
    """The values a reader returns, or the type and message it raises."""
    try:
        return read(path).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


VECTOR_TEXTS = [
    "# comment\n1, 0.25\n\n  \n0.5 ,  -2e-3\n# tail\n",
    "1\r\n2\r\n\r\n3\r4",
    "1_0\n2_5.5\n",
    "1,\x0c2\n",
    "1\x0c,2\x0c\n\x0c\n",
    "1\x85,2\n3 \n",
    "\t# indented comment\n 7 \n",
    "1\n2,x\n3\n",
    "1\n2,,3\n",
    "1_\n",
    "nan,inf,-inf,-0.0\n",
    "",
    "\n\n# only comments\n",
    "4",
]


@pytest.mark.parametrize("text", VECTOR_TEXTS)
def test_read_vector_matches_the_reference_reader(tmp_path, text):
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8", newline="")
    got, want = outcome(_read_vector, str(path)), outcome(reference_read_vector, str(path))
    assert repr(got) == repr(want)


@seed(11)
@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(["1", "2.5", "-", "e", "_", ",", " ", "#", "\n", "\r",
                                      "\x0c", "\x85", "\t", "x", "nan"]), max_size=30).map("".join))
def test_read_vector_matches_the_reference_reader_on_any_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("vec") / "v.txt"
    path.write_text(text, encoding="utf-8", newline="")
    got, want = outcome(_read_vector, str(path)), outcome(reference_read_vector, str(path))
    assert repr(got) == repr(want)


# --- the text readers against the readers they replaced --------------------
#
# Every difference between a current reader and its reference is one of the
# changes below, listed in CHANGES.md; each maps the text the reference reads,
# or the outcome it gives, to the current reader's outcome.


def _lines(text):
    """The text's lines, ended where open()'s universal newlines end them."""
    return re.split(r"\r\n|\r|\n", text)


def header_rule(text):
    """HEADER RULE: a data line whose first field, stripped, is "bits" is the
    pmf header, to the pmf reader and to the CLI's sniff alike (the old
    reader wanted a first field of exactly "bits"; the old sniff wanted
    "bits,prob" once spaces were removed)."""
    return "\n".join(
        "bits,prob" if line.partition(",")[0].strip() == "bits" else line
        for line in _lines(text)
    )


def line_ends(text):
    """LINE-END WHITESPACE: a pmf message that quotes a row's fields or its
    probability quotes those of the stripped line."""
    return "\n".join(line.strip() for line in _lines(text))


def plain_sum(result):
    """SUM REPR: "pmf file sums to" gives repr of a Python float, not of a
    numpy float64."""
    return re.sub(r"sums to np\.float64\((.*?)\)", r"sums to \1", result)


def ragged_rows(text, result):
    """RAGGED ROWS: numpy's inhomogeneous-shape message becomes one that
    names the first short or long sample row and the first row's count.
    ENTRY PAST INT64: an entry int() reads but int64 cannot hold is refused
    as not +-1, not by an OverflowError."""
    if result.startswith("ValueError('setting an array element with a sequence"):
        rows = [
            line.strip() for line in _lines(text)
            if line.strip() and not line.strip().startswith("#")
        ]
        counts = [row.count(",") + 1 for row in rows]
        i = next(k for k, count in enumerate(counts) if count != counts[0])
        return repr(ValueError(
            f"sample row {i + 1} {rows[i]!r} has {counts[i]} fields, "
            f"expected {counts[0]} as in the first row"
        ))
    if result.startswith("OverflowError("):
        return repr(ValueError("sample entries must be +1 or -1"))
    return result


def result(read, path):
    """What a reader gives, exactly: the bytes of an array, a pmf's width,
    bytes and meta, or the repr of what it raises (path made generic)."""
    try:
        got = read(str(path))
    except Exception as exc:  # OverflowError too, not only ValueError
        return repr(exc).replace(str(path), "<path>")
    if isinstance(got, np.ndarray):
        return f"array {got.dtype} {got.shape} {got.tobytes().hex()}"
    if isinstance(got, Pmf):
        return f"pmf {got.p} {got.probs.tobytes().hex()} {got.meta!r}"
    return repr(got)


def assert_readers_match(root, text):
    raw, old = root / "raw.csv", root / "old.csv"
    raw.write_text(text, encoding="utf-8", newline="")
    old.write_text(header_rule(line_ends(text)), encoding="utf-8", newline="")
    pmf = result(read_pmf_csv, raw)
    if not re.match(r"\w+Error\(", result(reference_read_pmf_csv, raw)):
        # a file the old reader accepted reads exactly as before
        assert pmf == result(reference_read_pmf_csv, raw)
    assert pmf == plain_sum(result(reference_read_pmf_csv, old))
    assert result(_sniff_pmf_file, raw) == result(reference_sniff_pmf_file, old)
    assert result(read_samples_csv, raw) == ragged_rows(
        text, result(reference_read_samples_csv, raw)
    )
    assert result(_read_vector, raw) == result(reference_read_vector, raw)


@pytest.mark.parametrize(
    "text",
    [
        # the CRLF, commented and header-after-comments files of cli_digest
        "# generator: hand\r\n\r\n  # seed: 3\r\nbits,prob\r\n+++,0.5\r\n"
        "\t\r\n-+-, 0.25 \r\n\r\n--+,0.25\r\n",
        "# drawn by hand\n\n1,-1,1\n  \n# again\n-1,1,-1\r\n1,1,1\n",
        "# a\n\n  # b\n bits , prob\n+,1\n",
        # no line ends at a form feed or NEL, which strip() still removes
        "\x0c# a\x0cbits,prob\n\x85\n1\x0c,1\n",
        "\x0c\n\x85bits\x0c,prob\r+,1\n",
    ],
)
def test_sniff_reads_the_first_data_line_as_read_lines_does(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _sniff_pmf_file(str(path)) == _is_pmf_header(read_lines(str(path))[1][0])


READER_TOKENS = ["+", "-", "0", "1", ",", "#", ":", "b", "_", "x", ".", "e",
                 " ", "\t", "\n", "\r", "bits", "prob"]


@seed(13)
@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(READER_TOKENS), max_size=40).map("".join))
def test_text_readers_match_the_readers_they_replaced(tmp_path_factory, text):
    assert_readers_match(tmp_path_factory.mktemp("readers"), text)


_pad = st.sampled_from(["", " ", "\t", " \t "])
_bits = st.text("+-01", min_size=0, max_size=3)
_prob = st.sampled_from(["1", "0", ".1e1", "1e0", "0.1", "1.0000000001", "1.00000001",
                         "1_0", "-0", "x", "", " 1 ", "1e-1"])
_row = st.one_of(
    st.tuples(_pad, _bits, _pad, st.just(","), _pad, _prob, _pad).map("".join),
    st.lists(st.sampled_from(["1", "-1", "+1", " 1", "-1 ", "0", "1_1"]), min_size=1,
             max_size=3).map(",".join),
    st.sampled_from(["bits,prob", " bits ,prob", "bits", "bits,prob,x", "bits\t,prob",
                     "# b: 1", "#:x", "# bits: 10", "+,1,1", "", "1" * 22 + ",1",
                     "1" * 24 + ",1", "1" * 25 + ",1"]),
    st.lists(st.sampled_from(READER_TOKENS[:14] + ["bits", "prob"]), max_size=8).map("".join),
)


@seed(14)
@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(st.tuples(_row, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
)
def test_text_readers_match_the_readers_they_replaced_on_rows(tmp_path_factory, rows):
    text = "".join(row + end for row, end in rows)
    assert_readers_match(tmp_path_factory.mktemp("rows"), text)


@seed(12)
@settings(max_examples=20, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
    data_seed=st.integers(0, 2**32 - 1),
    picked=st.lists(st.floats(), max_size=4),
)
def test_vector_writers_match_the_reference_byte_for_byte(size, data_seed, picked):
    rng = np.random.default_rng(data_seed)
    vec = rng.standard_normal(size) * 10.0 ** rng.uniform(-320, 300, size)
    vec[: len(picked)] = picked[:size]
    for fmt in ("csv", "json"):
        assert _format_vector(vec, fmt) == reference_format_vector(vec, fmt)


@seed(13)
@settings(max_examples=12, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (2, 3), (4, 4), (CHUNK_ROWS, 1), (CHUNK_ROWS + 1, 2)]),
    data_seed=st.integers(0, 2**32 - 1),
    picked=st.lists(st.floats(), max_size=4),
)
def test_matrix_writers_match_the_reference_byte_for_byte(shape, data_seed, picked):
    rng = np.random.default_rng(data_seed)
    mat = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
    mat.flat[: len(picked)] = picked
    for fmt in ("csv", "json"):
        assert _format_matrix(mat, fmt) == reference_format_matrix(mat, fmt)


# repeated values: one-ulp neighbours, both zeros, NaNs of both signs and
# another payload, both infinities, subnormals and the largest float
REPEATED = np.concatenate([
    [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, -0.1, 0.0, -0.0, np.inf,
     -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.7976931348623157e308],
    np.array([0x7FF0000000000001, -0x0008000000000001], dtype=np.int64).view(np.float64),
])


@seed(18)
@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (3, 2), (CHUNK_ROWS, 1), (CHUNK_ROWS + 1, 2)]),
    data_seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, REPEATED.size),
)
def test_writers_of_repeated_values_match_the_reference(shape, data_seed, size):
    rng = np.random.default_rng(data_seed)
    pool = rng.choice(REPEATED, size, replace=False)
    mat = rng.choice(pool, shape)
    for fmt in ("csv", "json"):
        assert _format_matrix(mat, fmt) == reference_format_matrix(mat, fmt)
        assert _format_vector(mat[:, 0], fmt) == reference_format_vector(mat[:, 0], fmt)
    assert _format_vector(np.array([0.0, -0.0, 0.0]), "csv") == "0\n-0\n0\n"


@seed(14)
@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 10),
    data_seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    meta=st.dictionaries(st.sampled_from(["seed", "note", "generator"]),
                         st.text(alphabet="ab1 ", max_size=5), max_size=2),
)
def test_pmf_writer_matches_the_reference_byte_for_byte(
    tmp_path_factory, p, data_seed, zero_fraction, meta
):
    pmf = make_generic_pmf(p, seed=data_seed, zero_fraction=zero_fraction)
    pmf = Pmf(pmf.p, pmf.probs, meta=meta)
    folder = tmp_path_factory.mktemp("pmf")
    write_pmf_csv(pmf, str(folder / "bulk.csv"))
    reference_write_pmf_csv(pmf, str(folder / "ref.csv"))
    assert (folder / "bulk.csv").read_bytes() == (folder / "ref.csv").read_bytes()


@pytest.mark.parametrize("extra", [0, 1])
def test_pmf_writer_matches_the_reference_past_one_chunk(tmp_path, extra):
    # every cell positive: exactly one chunk of rows, then two
    p = CHUNK_ROWS.bit_length() - 1 + extra
    pmf = make_generic_pmf(p, seed=p)
    assert pmf.support_size == 1 << p
    write_pmf_csv(pmf, str(tmp_path / "bulk.csv"))
    reference_write_pmf_csv(pmf, str(tmp_path / "ref.csv"))
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["test", "{pmf}", "--partition", "{part}", "--tol", "-1"], "--tol", -1.0),
        (["test", "{pmf}", "--partition", "{part}", "--tol", "nan"], "--tol", "nan"),
        (["test", "{pmf}", "--partition", "{part}", "--assert-tol", "-0.5"],
         "--assert-tol", -0.5),
        (["test", "{pmf}", "--partition", "{part}", "--rank-tol", "inf"], "--rank-tol", "inf"),
        (["graph", "{pmf}", "--partition", "{part}", "--tol=-1e-9"], "--tol", -1e-9),
        (["graph", "{pmf}", "--partition", "{part}", "--rank-tol", "-1"], "--rank-tol", -1.0),
        (["rank", "{pmf}", "--rank-tol", "nan"], "--rank-tol", "nan"),
        (["quantize", "{missing}", "--depths", "1..2", "--tol=-inf"], "--tol", "-inf"),
    ],
)
def test_bad_tolerance_flags_exit_two(tmp_path, part111_file, capsys, argv, flag, value):
    pmf = write_xor(tmp_path)
    missing = str(tmp_path / "absent.json")
    assert main([a.format(pmf=pmf, part=part111_file, missing=missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {flag} must be finite and non-negative, got {float(value)!r}\n"
    )


def test_renormalised_input_is_recorded_and_warned_once(tmp_path, part111_file, capsys):
    exact = tmp_path / "exact.csv"
    write_pmf_csv(make_ci_pmf(1, 1, 1, seed=3), str(exact))
    assert "renormalised_from" not in read_pmf_csv(str(exact)).meta
    rows = exact.read_text().splitlines()
    first = rows.index("bits,prob") + 1
    bits, prob = rows[first].split(",")
    rows[first] = f"{bits},{float(prob) + 4e-10!r}"
    off = tmp_path / "off.csv"
    off.write_text("\n".join(rows) + "\n")
    probs = np.zeros(8)
    for row in rows[first:]:
        bits, prob = row.split(",")
        probs[int(bits.replace("+", "0").replace("-", "1"), 2)] = float(prob)
    pmf = read_pmf_csv(str(off))
    assert pmf.meta["renormalised_from"] == repr(float(probs.sum()))
    np.testing.assert_array_equal(pmf.probs, probs / probs.sum())
    warning = f"warning: {off} sums to {pmf.meta['renormalised_from']}; rescaled to sum to 1\n"

    assert main(["test", str(off), "--partition", part111_file]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert json.loads(captured.out) == decide_ci(
        pmf, Partition.coordinate_split(1, 1, 1)).to_json_dict()

    # the same table, already summing to 1, gives the same stdout and no warning
    rescaled = tmp_path / "rescaled.csv"
    write_pmf_csv(Pmf(pmf.p, pmf.probs), str(rescaled))
    for argv in (["test", "{}", "--partition", part111_file],
                 ["graph", "{}", "--partition", part111_file], ["rank", "{}"]):
        main([a.format(off) for a in argv])
        warned = capsys.readouterr()
        main([a.format(rescaled) for a in argv])
        plain = capsys.readouterr()
        assert warned.err == warning and plain.err == ""
        assert warned.out == plain.out
