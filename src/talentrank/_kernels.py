"""Sequential SGD step for sampled-mode embedding training.

One LINE epoch with negative sampling, written once for both orders:
second order updates separate vertex and context tables; first order is
the same step with the tables tied (`vert is ctx`), where a negative equal
to i is skipped as well as one equal to j. Both rows of a pair are read
before either is written, so the tied step is exact.

The run kernel `_epoch_runs` splits the sample stream into runs of
consecutive samples that touch pairwise disjoint rows, and applies each
run as vector operations: the positive step of every sample, then
negative 0 of every sample, and so on. Updates on disjoint rows commute
and every sample keeps its own update order, so the tables equal those of
the one-sample-at-a-time scalar loop (kept in the tests as the reference)
up to rounding (dots are summed, and sigmoids computed, another way), and
any split into conflict-free runs gives bit-identical tables. All
sampling decisions are made by the caller and passed in as index arrays,
so the step is deterministic given the same inputs.
"""

from __future__ import annotations

import numpy as np

# Samples per block of the run finder; bounds its temporaries (a few
# arrays of RUN_CHUNK * (k + 2) entries), and a run never crosses a block.
RUN_CHUNK = 2048


def _touched_rows(src, dst, neg, n, tied):
    """(m, k + 2) keys of the rows each sample touches: i, j, then the
    negatives. Untied, context rows are keyed n + row, apart from vertex
    rows; tied, both tables are one keyspace."""
    ctx_rows = np.column_stack([dst, neg])
    return np.column_stack([src, ctx_rows if tied else ctx_rows + n])


def _run_bounds(rows) -> list:
    """Edges [0, ..., m] of the maximal runs of consecutive samples whose
    rows (one line of `rows` per sample) are pairwise disjoint across
    samples; a row repeated inside one sample is no conflict."""
    m, r = rows.shape
    cells = m * r
    # sort the (row, sample, column) triples by row, then sample
    keys = np.sort((rows * cells + np.arange(cells).reshape(m, r)).ravel())
    row, cell = np.divmod(keys, cells)
    sample = cell // r
    # a cell whose row the previous triple holds for an earlier sample:
    # that sample is the latest earlier one to touch the row
    hit = (row[1:] == row[:-1]) & (sample[1:] != sample[:-1])
    prev = np.full(cells, -1)
    prev[cell[1:][hit]] = sample[:-1][hit]
    bounds = [0]
    for t, latest in enumerate(prev.reshape(m, r).max(axis=1).tolist()):
        if latest >= bounds[-1]:
            bounds.append(t)
    bounds.append(m)
    return bounds


def _apply_runs(vert, ctx, src, dst, neg, lr, tied, bounds):
    """The samples, run by run between consecutive `bounds`, as vector
    operations; each run must touch pairwise disjoint rows. Returns the
    summed loss, added up in the same order whatever the runs."""
    keep = (neg != dst[:, None]).T
    if tied:
        keep &= (neg != src[:, None]).T
    neg = neg.T
    # a skipped negative steps at rate 0, which leaves its rows as they are
    rate = lr * keep
    # losses[s, t]: -log sigmoid(+-dot) of step s (positive, then each
    # negative) of sample t
    losses = np.empty((len(neg) + 1, len(src)))
    for a, b in zip(bounds[:-1], bounds[1:]):
        i, j = src[a:b], dst[a:b]
        u, c = vert.take(i, axis=0), ctx.take(j, axis=0)
        losses[0, a:b] = loss = np.logaddexp(0.0, -np.einsum("ij,ij->i", u, c))
        # -lr * (sigmoid(dot) - 1)
        w = (-lr * np.expm1(-loss))[:, None]
        vert[i] = u + w * c
        ctx[j] += w * u  # in place: when tied, j may equal i
        # from here on the run's vertex rows change only through u (a tied
        # negative equal to i is skipped, and vert[i] = u below overwrites
        # the row it writes back)
        u = vert.take(i, axis=0)
        for q, v in enumerate(neg[:, a:b], start=1):
            c = ctx.take(v, axis=0)
            losses[q, a:b] = loss = np.logaddexp(0.0, np.einsum("ij,ij->i", u, c))
            # -lr * sigmoid(dot), or 0 when skipped
            w = (np.expm1(-loss) * rate[q - 1, a:b])[:, None]
            step_u = w * c
            ctx[v] = c + w * u
            u += step_u
        vert[i] = u
    return float(losses[0].sum() + losses[1:][keep].sum())


def _epoch_runs(vert, ctx, src, dst, neg, lr, tied):
    # the samples in order, over conflict-free runs found block by block
    n = vert.shape[0]
    loss = 0.0
    for a in range(0, len(src), RUN_CHUNK):
        s, d, g = src[a:a + RUN_CHUNK], dst[a:a + RUN_CHUNK], neg[a:a + RUN_CHUNK]
        bounds = _run_bounds(_touched_rows(s, d, g, n, tied))
        loss += _apply_runs(vert, ctx, s, d, g, lr, tied, bounds)
    return loss


# The run kernel is the only kernel; perfbench's machine record reads this.
NUMBA_ENABLED = False


def first_order_epoch(emb, src, dst, neg, lr):
    return _epoch_runs(emb, emb, src, dst, neg, lr, True)


def second_order_epoch(vert, ctx, src, dst, neg, lr):
    return _epoch_runs(vert, ctx, src, dst, neg, lr, False)
