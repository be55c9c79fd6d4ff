"""Sequential SGD step for sampled-mode embedding training.

One LINE epoch with negative sampling, written once for both orders:
second order updates separate vertex and context tables; first order is
the same step with the tables tied (`vert is ctx`), where a negative equal
to i is skipped as well as one equal to j. Both rows of a pair are read
before either is written, so the tied step is exact.

One step function, `_apply_groups`, applies the stream as groups of
samples, each as vector operations: the positive step of every sample,
then negative 0 of every sample, and so on. The group contract: the
samples of one group touch pairwise disjoint rows, and each row's groups
come in sample order. Updates on disjoint rows commute and every row sees
its updates in sample order, so any such split (runs of consecutive
samples, or levels) gives bit-identical tables and per-sample losses, as
each sample's arithmetic is the same in any group. Up to rounding (dots
are summed, and sigmoids computed, another way) the tables equal those of
the one-sample-at-a-time scalar loop kept in the tests as the reference.

The kernel `_epoch_runs` gives sample t the level 1 + the highest level
of an earlier sample that shares a row with it (0 if none): the samples of
one level touch disjoint rows and levels rise along every row, so the
levels are its groups. It sums the loss in sample order, by RUN_CHUNK blocks.

All sampling decisions are made by the caller and passed in as index
arrays, so the step is deterministic given the same inputs.
"""

from __future__ import annotations

import numpy as np

# Samples per block: the level finder boxes one block of row keys at a
# time (boxing a whole epoch's keys costs ~10 MB of peak memory on a
# 36k-sample stream), and the loss is summed block by block.
RUN_CHUNK = 2048


def _touched_rows(src, dst, neg, n, tied):
    """(m, k + 2) keys of the rows each sample touches: i, j, then the
    negatives. Untied, context rows are keyed n + row, apart from vertex
    rows; tied, both tables are one keyspace."""
    ctx_rows = np.column_stack([dst, neg])
    return np.column_stack([src, ctx_rows if tied else ctx_rows + n])


def _levels(src, dst, neg, n, tied) -> np.ndarray:
    """(m,) level of each sample: 1 + the highest level of an earlier
    sample that touches one of its rows, 0 if none. Walks the stream in
    RUN_CHUNK blocks, carrying each row's last level across blocks."""
    last = [-1] * (n if tied else 2 * n)
    levels = np.empty(len(src), dtype=np.int64)
    for a in range(0, len(src), RUN_CHUNK):
        block = []
        for rows in _touched_rows(src[a:a + RUN_CHUNK], dst[a:a + RUN_CHUNK],
                                  neg[a:a + RUN_CHUNK], n, tied).tolist():
            level = max(map(last.__getitem__, rows)) + 1
            for r in rows:
                last[r] = level
            block.append(level)
        levels[a:a + len(block)] = block
    return levels


def _kept(src, dst, neg, tied):
    """(m, k): whether negative q of sample t steps; one equal to j, or
    when tied to i, is skipped."""
    keep = neg != dst[:, None]
    if tied:
        keep &= neg != src[:, None]
    return keep


def _apply_groups(vert, ctx, src, dst, neg, lr, keep, groups):
    """The samples group by group, each group as vector operations: `groups`
    are index arrays into the stream that keep the group contract above, and
    `keep` is `_kept`'s mask. Returns losses (k + 1, m) in sample order:
    -log sigmoid(+-dot) of step s (positive, then each negative) of sample t."""
    losses = np.empty((neg.shape[1] + 1, len(src)))
    for g in groups:
        # gathered once per group, (k, b); a skipped negative steps at rate
        # 0, which leaves its rows as they are
        i, j = src[g], dst[g]
        negs, rate = neg.take(g, axis=0).T, lr * keep.take(g, axis=0).T
        loss = np.empty((len(negs) + 1, len(g)))
        u, c = vert.take(i, axis=0), ctx.take(j, axis=0)
        loss[0] = np.logaddexp(0.0, -np.einsum("ij,ij->i", u, c))
        # -lr * (sigmoid(dot) - 1)
        w = (-lr * np.expm1(-loss[0]))[:, None]
        vert[i] = u + w * c
        ctx[j] += w * u  # in place: when tied, j may equal i
        # from here on the group's vertex rows change only through u (a
        # tied negative equal to i is skipped, and vert[i] = u below
        # overwrites the row it writes back)
        u = vert.take(i, axis=0)
        for q, v in enumerate(negs, start=1):
            c = ctx.take(v, axis=0)
            loss[q] = np.logaddexp(0.0, np.einsum("ij,ij->i", u, c))
            # -lr * sigmoid(dot), or 0 when skipped
            w = (np.expm1(-loss[q]) * rate[q - 1])[:, None]
            step_u = w * c
            ctx[v] = c + w * u
            u += step_u
        vert[i] = u
        losses[:, g] = loss
    return losses


def _epoch_runs(vert, ctx, src, dst, neg, lr, tied):
    # the levels as groups, each in sample order
    levels = _levels(src, dst, neg, vert.shape[0], tied)
    groups = np.split(np.argsort(levels, kind="stable"), np.cumsum(np.bincount(levels))[:-1])
    keep = _kept(src, dst, neg, tied)
    losses = _apply_groups(vert, ctx, src, dst, neg, lr, keep, groups)
    # summed in sample order, block by block: positive steps, then the
    # kept negatives step by step
    loss = 0.0
    for a in range(0, len(src), RUN_CHUNK):
        block = slice(a, a + RUN_CHUNK)
        loss += float(losses[0, block].sum() + losses[1:, block][keep[block].T].sum())
    return loss


# The level kernel is the only kernel; perfbench's machine record reads this.
NUMBA_ENABLED = False


def first_order_epoch(emb, src, dst, neg, lr):
    return _epoch_runs(emb, emb, src, dst, neg, lr, True)


def second_order_epoch(vert, ctx, src, dst, neg, lr):
    return _epoch_runs(vert, ctx, src, dst, neg, lr, False)
