"""Benchmark the sampled-mode SGD step: numba @njit vs numpy fallback.

The step updates embedding rows sequentially (later samples see earlier
updates), so it cannot be vectorized; this is where the JIT pays off.
Both orders are timed: first order with the tables tied, second order
with separate vertex and context tables. Without numba only the numpy
fallback is timed.

Run:
    python benchmarks/bench_kernels.py [--vertices 2000] [--samples 200000]
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


def time_fn(fn, emb, src, dst, neg, lr, tied, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        vert = emb.copy()
        ctx = vert if tied else emb[::-1].copy()
        start = time.perf_counter()
        fn(vert, ctx, src, dst, neg, lr, tied)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--negatives", type=int, default=5)
    args = parser.parse_args()

    emb, src, dst, neg = make_inputs(args.vertices, args.samples, args.dim, args.negatives)
    lr = 0.025

    try:
        from numba import njit

        jit_epoch = njit(cache=True)(_kernels._epoch_loop)
        # warm up: trigger compilation outside the timed region
        jit_epoch(emb.copy(), emb.copy(), src[:10], dst[:10], neg[:10], lr, True)
    except ImportError:
        jit_epoch = None
        print("numba not installed; timing the numpy fallback only")

    print(f"vertices={args.vertices} samples={args.samples} dim={args.dim} "
          f"negatives={args.negatives}")
    rows = []
    for kernel, tied in (("first_order", True), ("second_order", False)):
        t_np = time_fn(_kernels._epoch_numpy, emb, src, dst, neg, lr, tied)
        rows.append((kernel, "numpy", t_np))
        if jit_epoch is not None:
            t_nb = time_fn(jit_epoch, emb, src, dst, neg, lr, tied)
            rows.append((kernel, "numba", t_nb))
            rows.append((kernel, "speedup", t_np / t_nb))

    print(f"{'kernel':<14}{'path':<10}{'result'}")
    for kernel, path, value in rows:
        shown = f"{value:.3f} s" if path != "speedup" else f"{value:.1f}x"
        print(f"{kernel:<14}{path:<10}{shown}")


if __name__ == "__main__":
    main()
