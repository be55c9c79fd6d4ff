"""Sequential SGD step for sampled-mode embedding training.

One LINE epoch with negative sampling, written once for both orders:
second order updates separate vertex and context tables; first order is
the same step with the tables tied (`vert is ctx`), where a negative equal
to i is skipped as well as one equal to j. Both rows of a pair are read
before either is written, so the tied step is exact.

The scalar loop is JIT-compiled with numba when numba imports; otherwise
the numpy row loop runs (same update sequence; per-sample results may
differ in the last ulp because vector dots use a different summation
order). All sampling decisions are made by the caller and passed in as
index arrays, so both paths are deterministic given the same inputs.
"""

from __future__ import annotations

import math


def _log_sigmoid(x: float) -> float:
    # -log(1 + exp(-x)) without overflow
    if x >= 0.0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _epoch_loop(vert, ctx, src, dst, neg, lr, tied):
    # vert/ctx: (n, d) updated in place (the same array when tied);
    # src -> dst: (m,) sampled pairs; neg: (m, k) noise vertices.
    # Returns the summed surrogate loss.
    d = vert.shape[1]
    k = neg.shape[1]
    loss = 0.0
    for t in range(src.shape[0]):
        i = src[t]
        j = dst[t]
        dot = 0.0
        for c in range(d):
            dot += vert[i, c] * ctx[j, c]
        loss -= _log_sigmoid(dot)
        g = _sigmoid(dot) - 1.0
        for c in range(d):
            gi = g * ctx[j, c]
            gj = g * vert[i, c]
            vert[i, c] -= lr * gi
            ctx[j, c] -= lr * gj
        for q in range(k):
            v = neg[t, q]
            if v == j or (tied and v == i):
                continue
            dot = 0.0
            for c in range(d):
                dot += vert[i, c] * ctx[v, c]
            loss -= _log_sigmoid(-dot)
            g = _sigmoid(dot)
            for c in range(d):
                gi = g * ctx[v, c]
                gv = g * vert[i, c]
                vert[i, c] -= lr * gi
                ctx[v, c] -= lr * gv
    return loss


def _epoch_numpy(vert, ctx, src, dst, neg, lr, tied):
    # _epoch_loop with each row update as one numpy vector operation
    k = neg.shape[1]
    loss = 0.0
    for t in range(src.shape[0]):
        i = int(src[t])
        j = int(dst[t])
        dot = float(vert[i] @ ctx[j])
        loss -= _log_sigmoid(dot)
        g = _sigmoid(dot) - 1.0
        gi = g * ctx[j]
        gj = g * vert[i]
        vert[i] -= lr * gi
        ctx[j] -= lr * gj
        for q in range(k):
            v = int(neg[t, q])
            if v == j or (tied and v == i):
                continue
            dot = float(vert[i] @ ctx[v])
            loss -= _log_sigmoid(-dot)
            g = _sigmoid(dot)
            gi = g * ctx[v]
            gv = g * vert[i]
            vert[i] -= lr * gi
            ctx[v] -= lr * gv
    return loss


try:
    from numba import njit
except ImportError:
    NUMBA_ENABLED = False
    _epoch = _epoch_numpy
else:
    NUMBA_ENABLED = True
    _log_sigmoid = njit(cache=True)(_log_sigmoid)
    _sigmoid = njit(cache=True)(_sigmoid)
    _epoch = njit(cache=True)(_epoch_loop)


def first_order_epoch(emb, src, dst, neg, lr):
    return _epoch(emb, emb, src, dst, neg, lr, True)


def second_order_epoch(vert, ctx, src, dst, neg, lr):
    return _epoch(vert, ctx, src, dst, neg, lr, False)
