"""In-process A/B of the small-size branches of begin.schur's tiled kernels.

_symmetrize and _asymmetry use the plain numpy expression up to one tile
(_TILE rows) and the tile loop past it.  For every input of the benchmark's
corpus_small workload (n <= 55), this times begin.test_ci with the kernels
as they are against the same call with one kernel swapped for its tile loop
alone, the two calls interleaved and their order alternated, and prints the
median per-call time ratio (loop alone / as is) for each kernel.  Both
sides must give the same verdict.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/ab_kernel_branches.py [seed] [reps]
"""
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402
from begin import engine, schur  # noqa: E402


def symmetrize_loop(a):
    for rows, cols in schur._tile_pairs(a.shape[0]):
        half = a[rows, cols] + a[cols, rows].T
        half /= 2.0
        a[rows, cols] = half
        if rows != cols:
            a[cols, rows] = half.T
    return a


def asymmetry_loop(a):
    if not a.size:
        return 0.0
    gaps = [
        np.abs(a[rows, cols] - a[cols, rows].T).max()
        for rows, cols in schur._tile_pairs(a.shape[0])
    ]
    return float(np.max(gaps))


LOOP_ONLY = {"_symmetrize": symmetrize_loop, "_asymmetry": asymmetry_loop}


def verdict(pmf, part):
    v = engine.test_ci(pmf, part)
    return (v.is_ci, v.max_offblock_s, v.max_offblock_omega, v.belief_residual, v.criteria, v.rank_b)


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.make("corpus_small", tmp)
        wl.setup(seed)
        inputs = [(op.pmf, op.part) for op in wl.schedule]
    clock = time.perf_counter
    for name, loop in LOOP_ONLY.items():
        as_is = getattr(schur, name)
        sides = (as_is, loop)
        for pmf, part in inputs:
            setattr(schur, name, loop)
            alone = verdict(pmf, part)
            setattr(schur, name, as_is)
            assert alone == verdict(pmf, part)
        ratios = np.empty((reps, len(inputs)))
        for r in range(reps):
            for i, (pmf, part) in enumerate(inputs):
                took = [0.0, 0.0]
                for k in ((0, 1) if (r + i) % 2 else (1, 0)):
                    setattr(schur, name, sides[k])
                    t0 = clock()
                    engine.test_ci(pmf, part)
                    took[k] = clock() - t0
                ratios[r, i] = took[1] / took[0]
        setattr(schur, name, as_is)
        print(f"{name}: seed {seed}, {len(inputs)} inputs x {reps} reps, "
              f"median per-call ratio loop alone / as is {np.median(ratios):.4f}")


if __name__ == "__main__":
    main()
