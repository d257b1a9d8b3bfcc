"""One sha256 per `begin` CLI call over everything the call lets a user see.

Runs every subcommand in process (begin.cli.main) on seeded inputs in a
temporary directory: generated pmfs, partitions (coordinate splits and parity
partitions, one with overlapping wings), samples, vectors and quantization
sources, with default and explicit tolerances, every output format, --out
files, and refused inputs.  For each call it prints

    <sha256>  <label>

where the hash covers the exit code, stdout, stderr and the bytes of each
file the call wrote.  The temporary directory's path is replaced by a fixed
placeholder first, so reruns of one tree print identical lines, and two trees
whose CLI behaves the same print identical lines too.  A last line hashes all
the others.  BLAS runs on one thread, so float results do not depend on the
host's core count.

    PYTHONPATH=src python tools/cli_digest.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from begin import (  # noqa: E402
    Mask,
    Partition,
    draw_samples,
    make_ci_pmf,
    partition_to_json,
    write_samples_csv,
)
from begin.cli import main  # noqa: E402

SMOOTH = {
    "kind": "smooth", "v_depth": 1, "v_probs": [0.5, 0.5],
    "u_mean": [[0.1, 0.3], [-0.2, -0.4]], "w_mean": [[0.25, -0.35], [0.05, 0.45]],
}
GRID = {
    "kind": "grid", "v_depth": 2, "u_depth": 2, "w_depth": 2,
    "v_probs": [0.25, 0.25, 0.25, 0.25],
    "u_given_v": [[0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125],
                  [0.0, 0.5, 0.5, 0.0], [0.125, 0.375, 0.25, 0.25]],
    "w_given_v": [[0.75, 0.125, 0.0625, 0.0625], [0.25, 0.25, 0.25, 0.25],
                  [0.0, 0.0, 0.5, 0.5], [0.375, 0.125, 0.375, 0.125]],
}
# width-7 parity partitions: the 2-3-2 coordinate split on other bases, and
# one whose A and C generators share 0011000, so its wings overlap
PARITY = {
    "parity7": (["1010000", "1100000"], ["0011000", "0001000", "0000100"],
                ["0000011", "0000101"]),
    "overlap7": (["1100000", "0011000"], ["0110000", "0000100"], ["0011000", "0000011"]),
}


def write_inputs(root):
    """Every input file the calls read, other than the pmfs they generate."""
    def put(name, text):
        with open(os.path.join(root, name), "w", newline="") as fh:
            fh.write(text)

    for r, s, t in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (3, 5, 3), (1, 2, 1)):
        put(f"part{r}{s}{t}.json", partition_to_json(Partition.coordinate_split(r, s, t)))
    for name, gens in PARITY.items():
        groups = [[Mask(int(bits, 2), 7) for bits in group] for group in gens]
        put(f"{name}.json", partition_to_json(Partition(7, *groups)))
    sampled = make_ci_pmf(2, 3, 2, seed=21, zero_prob=0.3)
    write_samples_csv(draw_samples(sampled, 2000, seed=22), os.path.join(root, "samples.csv"))
    put("vec4.txt", "# moments\n1, 0.25\n\n 0.25 ,0.0625\n")
    put("vec8.txt", "\n".join(str((k * 37 % 17 - 8) / 8.0) for k in range(8)) + "\n")
    put("vec12.txt", "\n".join(f"{(k * 7919 % 1031 - 515) / 97.0!r}" for k in range(1 << 12)))
    put("vec_odd.txt", "1\r\n2_5\r\n\t# note\r\n-3e-2,4\x0c\n")
    put("vec_empty.txt", "# nothing here\n\n")
    put("vec_bad.txt", "1\n2,x\n3\n")
    put("smooth.json", json.dumps(SMOOTH))
    put("grid.json", json.dumps(GRID))
    # json writes a nan as NaN, which its reader takes back
    put("nan_smooth.json", json.dumps({**SMOOTH, "u_mean": [[float("nan"), 0.3], [-0.2, -0.4]]}))
    put("nan_grid.json", json.dumps({**GRID, "v_probs": [float("nan"), 0.25, 0.25, 0.25]}))
    put("nan_alpha.json", json.dumps({**SMOOTH, "alpha": float("nan"), "l_u": 0.1, "l_w": 0.1}))
    put("bad.csv", "bits,prob\n01,0.5\n")
    # the pmf and sample readers' line, comment, header and field rules
    put("crlf.csv", "# generator: hand\r\n\r\n  # seed: 3\r\nbits,prob\r\n+++,0.5\r\n"
                    "\t\r\n-+-, 0.25 \r\n\r\n--+,0.25\r\n")
    put("binary.csv", "bits,prob\n000,0.125\n011,0.375\n101,0.25\n110,0.25\n")
    put("dup.csv", "bits,prob\n+++,0.25\n-+-,0.25\n+++,0.5\n")
    put("bits0b.csv", "bits,prob\n0b1,1\n")
    put("bitsx.csv", "bits,prob\n+x,1\n")
    put("three.csv", "bits,prob\n+++,0.5,1\n")
    put("ragged.csv", "1,1,1\n-1,1,1\n1,-1\n")
    put("zero.csv", "1,1,1\n1,0,-1\n")
    put("commented.csv", "# drawn by hand\n\n1,-1,1\n  \n# again\n-1,1,-1\r\n1,1,1\n")
    # sums to 1 + 4e-10: read with a rescale and, since it is recorded, a warning
    cells = [f"{c:03b}".replace("0", "+").replace("1", "-") for c in range(8)]
    put("off.csv", "bits,prob\n" + "".join(
        f"{bits},{0.1250000004 if c == 5 else 0.125}\n" for c, bits in enumerate(cells)))


def calls():
    """(label, argv with {d} for the directory, files the call writes)."""
    rand = [
        ("ci111", ["--mode", "ci", "--dims", "1,1,1", "--seed", "5"]),
        ("ci232", ["--mode", "ci", "--dims", "2,3,2", "--seed", "11", "--zero-prob", "0.3"]),
        ("ci333", ["--mode", "ci", "--dims", "3,3,3", "--seed", "12", "--zero-prob", "0.3"]),
        ("gen4", ["--mode", "generic", "--dims", "4", "--seed", "15"]),
        ("gen7", ["--mode", "generic", "--dims", "7", "--seed", "13"]),
        ("gen11", ["--mode", "generic", "--dims", "11", "--seed", "14", "--zero-prob", "0.3"]),
        ("ising", ["--mode", "ising", "--thetas", "0.3,-0.2,0.5,0.1", "--chord", "0.2",
                   "--seed", "2"]),
    ]
    out = [(f"random {name}", ["random", *args, "--out", f"{{d}}/{name}.csv"],
            [f"{name}.csv"]) for name, args in rand]
    out.append(("random bad dims", ["random", "--mode", "ci", "--dims", "2",
                                    "--out", "{d}/never.csv"], []))
    out.append(("random bad zero-prob", ["random", "--mode", "ci", "--dims", "1,1,1",
                                         "--zero-prob", "1.5", "--out", "{d}/never.csv"],
                ["never.csv"]))
    out.append(("random bad alpha", ["random", "--mode", "ci", "--dims", "1,1,1",
                                     "--alpha", "0", "--out", "{d}/never.csv"], ["never.csv"]))
    # alpha 0.01 draws exact zeros, which at seed 2 are all a table keeps
    for seed in (1, 2):
        out.append((f"random ci small alpha seed {seed}",
                    ["random", "--mode", "ci", "--dims", "2,2,2", "--alpha", "0.01",
                     "--zero-prob", "0.5", "--seed", str(seed), "--out", f"{{d}}/alpha{seed}.csv"],
                    [f"alpha{seed}.csv"]))
    part = {"ci111": "part111", "ci232": "part232", "gen7": "part232",
            "ci333": "part333", "gen11": "part353", "gen4": "part121", "ising": "part121"}
    for name, p in part.items():
        base = [f"{{d}}/{name}.csv", "--partition", f"{{d}}/{p}.json"]
        out.append((f"test {name}", ["test", *base], []))
        out.append((f"graph {name} dot", ["graph", *base], []))
        out.append((f"graph {name} json", ["graph", *base, "--format", "json"], []))
    for name, p in (("ci232", "parity7"), ("gen7", "overlap7")):
        base = [f"{{d}}/{name}.csv", "--partition", f"{{d}}/{p}.json"]
        out.append((f"test {name} {p}", ["test", *base], []))
        out.append((f"graph {name} {p} json", ["graph", *base, "--format", "json"], []))
    gen11 = ["{d}/gen11.csv", "--partition", "{d}/part353.json"]
    ci232 = ["{d}/ci232.csv", "--partition", "{d}/part232.json"]
    out += [
        ("test ci232 tol", ["test", *ci232, "--tol", "1e-3"], []),
        ("test ci232 rank-tol", ["test", *ci232, "--rank-tol", "1e-10"], []),
        ("test samples", ["test", "{d}/samples.csv", "--partition", "{d}/part232.json"], []),
        ("test samples assert-tol", ["test", "{d}/samples.csv", "--partition",
                                     "{d}/part232.json", "--assert-tol", "0.2"], []),
        ("test missing", ["test", "{d}/absent.csv", "--partition", "{d}/part111.json"], []),
        ("test malformed", ["test", "{d}/bad.csv", "--partition", "{d}/part111.json"], []),
        ("test renormalised", ["test", "{d}/off.csv", "--partition", "{d}/part111.json"], []),
        ("test negative tol", ["test", *ci232, "--tol=-1"], []),
    ]
    for name in ("crlf", "binary", "dup", "bits0b", "bitsx", "three", "ragged", "zero",
                 "commented"):
        out.append((f"test {name}", ["test", f"{{d}}/{name}.csv", "--partition",
                                     "{d}/part111.json"], []))
    out += [
        ("graph gen11 dot out", ["graph", *gen11, "--out", "{d}/g353.dot"], ["g353.dot"]),
        ("graph gen11 json out", ["graph", *gen11, "--out", "{d}/g353.json"], ["g353.json"]),
        ("graph ci232 tol", ["graph", *ci232, "--tol", "1e-3"], []),
        ("graph ci232 rank-tol", ["graph", *ci232, "--rank-tol", "1e-10", "--format",
                                  "json"], []),
        ("graph renormalised", ["graph", "{d}/off.csv", "--partition", "{d}/part111.json"], []),
        ("graph nan tol", ["graph", *ci232, "--tol", "nan"], []),
        ("test ci232 rank-tol cut", ["test", *ci232, "--rank-tol", "0.1"], []),
        ("graph ci232 rank-tol cut", ["graph", *ci232, "--rank-tol", "0.1"], []),
        ("test ci232 rank-tol zero", ["test", *ci232, "--rank-tol", "0"], []),
        ("rank gen7", ["rank", "{d}/gen7.csv"], []),
        ("rank ci333", ["rank", "{d}/ci333.csv"], []),
        ("rank gen7 rank-tol", ["rank", "{d}/gen7.csv", "--rank-tol", "1e-10"], []),
        ("rank gen7 tol", ["rank", "{d}/gen7.csv", "--tol", "1e-3"], []),
        ("rank renormalised", ["rank", "{d}/off.csv"], []),
        ("quantize smooth", ["quantize", "{d}/smooth.json", "--depths", "1..4"], []),
        ("quantize grid out", ["quantize", "{d}/grid.json", "--depths", "1..4",
                               "--out", "{d}/qgrid.csv"], ["qgrid.csv"]),
        ("quantize grid tol", ["quantize", "{d}/grid.json", "--depths", "2", "--tol",
                               "1e-6"], []),
        ("quantize negative tol", ["quantize", "{d}/grid.json", "--depths", "2",
                                   "--tol=-1e-6"], []),
    ]
    for mode in ("auto", "rect", "exact", "upper"):
        out.append((f"delta smooth {mode}", ["delta", "{d}/smooth.json", "--depths", "1..5",
                                             "--mode", mode], []))
    out.append(("delta grid out", ["delta", "{d}/grid.json", "--depths", "1..7",
                                   "--out", "{d}/dgrid.csv"], ["dgrid.csv"]))
    out += [
        ("delta nan grid", ["delta", "{d}/nan_grid.json", "--depths", "1..3"], []),
        ("quantize nan grid", ["quantize", "{d}/nan_grid.json", "--depths", "1..3"], []),
        ("delta nan smooth", ["delta", "{d}/nan_smooth.json", "--depths", "1..3"], []),
        ("delta nan alpha", ["delta", "{d}/nan_alpha.json", "--depths", "1..3"], []),
        ("delta negative depth", ["delta", "{d}/smooth.json", "--depths", "-1"], []),
    ]
    for vec in ("vec4", "vec8", "vec_odd", "vec_empty", "vec_bad"):
        for fmt in ("csv", "json"):
            out.append((f"prism {vec} {fmt}", ["prism", f"{{d}}/{vec}.txt", "--format", fmt], []))
            out.append((f"wht {vec} {fmt}", ["wht", f"{{d}}/{vec}.txt", "--format", fmt], []))
    out.append(("wht vec12 out", ["wht", "{d}/vec12.txt", "--out", "{d}/wht12.csv"],
                ["wht12.csv"]))
    out.append(("prism vec8 out", ["prism", "{d}/vec8.txt", "--format", "json",
                                   "--out", "{d}/prism8.json"], ["prism8.json"]))
    return out


def digest(root, argv, written):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([arg.format(d=root) for arg in argv])
        except SystemExit as exc:  # an argparse usage error, exit 2
            code = exc.code
    h = hashlib.sha256(f"exit {code}\0".encode())
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(text.replace(root, "<dir>").encode() + b"\0")
    for name in written:
        path = os.path.join(root, name)
        h.update(name.encode() + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def run():
    lines = []
    with tempfile.TemporaryDirectory(prefix="cli_digest-") as root:
        write_inputs(root)
        for label, argv, written in calls():
            lines.append(f"{digest(root, argv, written)}  {label}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"{total}  all {len(lines)} calls")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    run()
