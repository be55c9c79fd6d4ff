"""Benchmark the sampled-mode SGD step: the run kernel against the scalar loop.

The step is sequential (later samples see earlier updates), but samples
that touch disjoint rows commute. The run kernel (`_kernels._epoch_runs`)
splits the samples into runs of consecutive samples with pairwise disjoint
rows and applies each run as vector operations. It is timed against the
scalar loop `_kernels._epoch_loop` run as plain Python (the reference the
tests compare it with) and, when numba is installed, against the same loop
JIT-compiled. Both orders are timed: first order with the tables tied,
second order with separate vertex and context tables. The plain-Python
loop is slow, so it runs on the first --loop-samples samples only; paths
are compared per sample. The mean run length is the number of samples per
run the kernel found.

Run:
    python benchmarks/bench_kernels.py [--vertices 2000] [--samples 200000] [--loop-samples 5000]
"""

import argparse
import time

import numpy as np

from talentrank import _kernels


def make_inputs(n_vertices, n_samples, dim, negatives, seed=0):
    rng = np.random.RandomState(seed)
    emb = rng.uniform(-0.01, 0.01, (n_vertices, dim))
    src = rng.randint(0, n_vertices, size=n_samples).astype(np.int64)
    dst = rng.randint(0, n_vertices, size=n_samples).astype(np.int64)
    neg = rng.randint(0, n_vertices, size=(n_samples, negatives)).astype(np.int64)
    return emb, src, dst, neg


def time_fn(fn, emb, src, dst, neg, lr, tied, repeats):
    best = float("inf")
    for _ in range(repeats):
        vert = emb.copy()
        ctx = vert if tied else emb[::-1].copy()
        start = time.perf_counter()
        fn(vert, ctx, src, dst, neg, lr, tied)
        best = min(best, time.perf_counter() - start)
    return best


def mean_run_length(src, dst, neg, n_vertices, tied):
    runs = 0
    for a in range(0, len(src), _kernels.RUN_CHUNK):
        b = a + _kernels.RUN_CHUNK
        rows = _kernels._touched_rows(src[a:b], dst[a:b], neg[a:b], n_vertices, tied)
        runs += len(_kernels._run_bounds(rows)) - 1
    return len(src) / runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--loop-samples", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--negatives", type=int, default=5)
    args = parser.parse_args()

    emb, src, dst, neg = make_inputs(args.vertices, args.samples, args.dim, args.negatives)
    cut = min(args.loop_samples, args.samples)
    lr = 0.025

    try:
        from numba import njit

        jit_epoch = njit(cache=True)(_kernels._epoch_loop)
        # warm up: trigger compilation outside the timed region
        jit_epoch(emb.copy(), emb.copy(), src[:10], dst[:10], neg[:10], lr, True)
    except ImportError:
        jit_epoch = None
        print("numba not installed; the compiled loop is not timed")

    print(f"vertices={args.vertices} samples={args.samples} loop_samples={cut} "
          f"dim={args.dim} negatives={args.negatives}")
    print(f"{'kernel':<14}{'path':<10}{'seconds':>9}{'us/sample':>11}")
    for kernel, tied in (("first_order", True), ("second_order", False)):
        rows = [("runs", time_fn(_kernels._epoch_runs, emb, src, dst, neg, lr, tied, 3),
                 args.samples),
                ("loop", time_fn(_kernels._epoch_loop, emb, src[:cut], dst[:cut], neg[:cut],
                                 lr, tied, 1), cut)]
        if jit_epoch is not None:
            rows.append(("numba", time_fn(jit_epoch, emb, src, dst, neg, lr, tied, 3),
                         args.samples))
        per_sample = {}
        for path, seconds, samples in rows:
            per_sample[path] = seconds / samples * 1e6
            print(f"{kernel:<14}{path:<10}{seconds:>9.3f}{per_sample[path]:>11.2f}")
        print(f"{kernel:<14}runs are {per_sample['loop'] / per_sample['runs']:.1f}x faster "
              f"per sample than the plain-Python loop; mean run length "
              f"{mean_run_length(src, dst, neg, args.vertices, tied):.1f} samples")


if __name__ == "__main__":
    main()
