"""Shared test utilities: tiny corpus builders, batched replay scorers,
the independent brute-force replay oracle (selection-sort ranking,
pair-counting AUC), the per-session loops rank_sessions, the ranker's
pair mining and the DSSM's group mining are checked against, the scalar
sampled-mode SGD loop and the run schedule the level kernel is checked
against, the scalar pooling loop graph_embed's pooling is checked
against, the file mutator the loader fuzz tests share, and the
batch-invariance probe of the inference forward."""

import hashlib
import math
import threading

import numpy as np

from talentrank import _kernels
from talentrank.corpus import (
    Impression,
    MemberProfile,
    ProfileStore,
    Query,
    Session,
    SessionStore,
)
from talentrank.neural import init_mlp, mlp_forward


def profiles_for(n):
    return ProfileStore(
        MemberProfile(i, frozenset(), frozenset(), frozenset(), headline_text=f"m{i}")
        for i in range(n)
    )


def session_of(labels, sid=0, members=None):
    members = members or list(range(len(labels)))
    return Session(
        session_id=sid, timestamp=100 + sid, query=Query(keywords="q"),
        impressions=tuple(Impression(m, l, i) for i, (m, l) in enumerate(zip(members, labels))),
    )


def random_corpus(rng, max_sessions=20, max_impressions=10, n_members=30):
    profiles = profiles_for(n_members)
    sessions = []
    for sid in range(rng.randint(1, max_sessions + 1)):
        n = rng.randint(1, max_impressions + 1)
        members = rng.choice(n_members, size=n, replace=False).tolist()
        labels = rng.randint(0, 2, size=n).tolist()
        sessions.append(session_of(labels, sid=sid, members=members))
    return profiles, SessionStore(sessions)


def rowwise(fn):
    """A batched replay scorer, (queries, profiles) -> (n,) scores, from a
    one-row `fn(query, profile) -> float`."""
    def scorer(queries, profiles):
        return np.array([fn(q, p) for q, p in zip(queries, profiles)], dtype=np.float64)

    return scorer


def quantized_scorer(seed):
    # pure function of the member on a coarse grid, so ties are common and
    # the tie rules get exercised
    def scorer(queries, profiles):
        return np.array([float((p.member_id * 7919 + seed * 104729) % 5) / 2.0
                         for p in profiles])

    return scorer


def brute_force_replay(scorer, sessions, profiles, ks, denominator="min"):
    """Independent replay oracle; mirrors the stated tie rules only."""
    per_k = {k: [] for k in ks}
    pooled = []
    for session in sessions.sessions():
        entries = []
        for imp in session.impressions:
            score = scorer([session.query], [profiles[imp.member_id]])[0]  # one row at a time
            entries.append([float(score), imp.member_id, imp.label])
        ranked = []
        remaining = list(entries)
        while remaining:
            best = remaining[0]
            for cand in remaining[1:]:
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
            ranked.append(best)
            remaining.remove(best)
        labels = [r[2] for r in ranked]
        for k in ks:
            cut = min(k, len(labels))
            denom = cut if denominator == "min" else k
            per_k[k].append(sum(labels[:cut]) / denom)
        if 0 < sum(labels) < len(labels):
            pooled.extend((r[0], r[2]) for r in ranked)
    prec = {k: sum(v) / len(v) for k, v in per_k.items()}
    pooled_auc = None
    pos = [s for s, l in pooled if l == 1]
    neg = [s for s, l in pooled if l == 0]
    if pos and neg:
        wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
        pooled_auc = wins / (len(pos) * len(neg))
    return prec, pooled_auc


def reference_rank_sessions(scores, sessions, ks, denominator="min"):
    """rank_sessions one session at a time: sort each session's rows by
    (score descending, member_id ascending), add up each k's precision one
    session after another, and pool the ranked rows of two-class sessions.
    Returns (prec_at, pooled scores, pooled labels, sessions)."""
    scores = iter(np.asarray(scores, dtype=np.float64).tolist())
    prec_sums = {k: 0.0 for k in ks}
    pooled_scores, pooled_labels = [], []
    for session in sessions:
        rows = sorted(((next(scores), imp.member_id, imp.label) for imp in session.impressions),
                      key=lambda r: (-r[0], r[1]))
        ranked = [label for _, _, label in rows]
        for k in ks:
            cut = min(k, len(ranked))
            prec_sums[k] += sum(ranked[:cut]) / (cut if denominator == "min" else k)
        if 0 < sum(ranked) < len(ranked):
            pooled_scores.extend(score for score, _, _ in rows)
            pooled_labels.extend(ranked)
    count = len(sessions)
    prec_at = {k: prec_sums[k] / count if count else 0.0 for k in ks}
    return prec_at, pooled_scores, pooled_labels, count


def mine_pairs(session):
    """All (positive, negative) impression pairs within a session, ordered
    by (positive position, negative position); equal positions keep
    impression order."""
    pos = sorted((i for i in session.impressions if i.label == 1), key=lambda i: i.position)
    neg = sorted((i for i in session.impressions if i.label == 0), key=lambda i: i.position)
    return [(p, n) for p in pos for n in neg]


def reference_pairs(sessions):
    """(m, 2) int64 pairs of mine_pairs over a store, as the row indices of
    its impressions in session order."""
    pairs, start = [], 0
    for session in sessions:
        row_of = {imp.member_id: start + i for i, imp in enumerate(session.impressions)}
        pairs.extend((row_of[p.member_id], row_of[n.member_id]) for p, n in mine_pairs(session))
        start += len(session.impressions)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def reference_groups(sessions, profiles, config, rng):
    """The DSSM's groups one session at a time: per positive, in (session,
    position) order, the session's row and [positive, N negatives] member
    ids. N of the session's negatives are drawn with rng.choice when it has
    N; else all of them, in position order, filled with corpus-random
    members distinct from the group."""
    member_ids = profiles.member_ids()
    groups = []
    for row, session in enumerate(sessions):
        positives = [i for i in session.impressions if i.label == 1]
        negatives = [i.member_id for i in sorted(
            (i for i in session.impressions if i.label == 0), key=lambda i: i.position)]
        for pos in sorted(positives, key=lambda i: i.position):
            if len(negatives) >= config.negatives:
                chosen_idx = rng.choice(len(negatives), size=config.negatives, replace=False)
                chosen = [negatives[i] for i in chosen_idx]
            else:
                chosen = list(negatives)
                taken = set(chosen) | {pos.member_id}
                while len(chosen) < config.negatives:
                    mid = member_ids[rng.randint(len(member_ids))]
                    if mid not in taken:
                        chosen.append(mid)
                        taken.add(mid)
            groups.append((row, [pos.member_id] + chosen))
    return groups


def random_store(rng, n_members=30):
    """Profiles and up to 12 sessions of 1 to 8 impressions whose positions
    repeat and whose labels are often single-class, with scores for their
    rows drawn from a grid that holds -0.0 and 0.0, so ties are common."""
    profiles = profiles_for(n_members)
    sessions = []
    for sid in range(rng.randint(1, 13)):
        n = rng.randint(1, 9)
        members = rng.choice(n_members, size=n, replace=False).tolist()
        labels = (rng.rand(n) < rng.choice([0.0, 0.3, 0.7, 1.0])).astype(int).tolist()
        positions = rng.randint(0, 3, size=n).tolist()
        sessions.append(Session(sid, 100 + sid, Query(keywords="q"), tuple(
            Impression(m, l, p) for m, l, p in zip(members, labels, positions))))
    grid = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    scores = grid[rng.randint(0, len(grid), size=sum(len(s.impressions) for s in sessions))]
    return profiles, SessionStore(sessions), scores


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


def run_bounds(rows) -> list:
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


def run_kernel(vert, ctx, src, dst, neg, lr, tied):
    """The run schedule the level kernel replaced: within each RUN_CHUNK
    block, the maximal conflict-free runs of consecutive samples in order,
    and the block's loss summed as its positive steps, then its kept
    negatives step by step."""
    n = vert.shape[0]
    loss = 0.0
    for a in range(0, len(src), _kernels.RUN_CHUNK):
        s, d, g = (x[a:a + _kernels.RUN_CHUNK] for x in (src, dst, neg))
        bounds = run_bounds(_kernels._touched_rows(s, d, g, n, tied))
        losses = _kernels._apply_levels(vert, ctx, s, d, g, lr, tied, bounds)
        loss += float(losses[0].sum() + losses[1:][_kernels._kept(s, d, g, tied)].sum())
    return loss


def reference_pool(bag, table):
    """Mean pooling one scalar at a time: the vectors of the bag entities
    found in the table, in EntityId order, summed column by column from
    -0.0 and divided by the number found; the zero vector and coverage 0.0
    when none is found. Returns (vector, coverage)."""
    found = [table.vectors[e] for e in sorted(bag) if e in table]
    vector = np.zeros(table.dim)
    if not found:
        return vector, 0.0
    for c in range(table.dim):
        total = -0.0
        for v in found:
            total += float(v[c])
        vector[c] = total / len(found)
    return vector, len(found) / len(bag)


# byte strings a mutation may splice into a text file: numbers a parser
# may mishandle, separators, and bytes that are not UTF-8
FUZZ_TOKENS = (b"nan", b"inf", b"-inf", b"1e999", b"-1", b"-0", b"0", b"1_0", b"0x1f",
               b"99999999999999999999", b"9" * 5000, b"dim=0", b"dim=-3", b"kind=bogus",
               b" ", b"\t", b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b"\xe2\x80\xa8", b"=")


def mutate(data: bytes, rng) -> bytes:
    """`data` after one to three random edits: a byte replaced, a span
    deleted, a token inserted, a line repeated, or the tail cut off."""
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(data) + 1)
        kind = rng.randint(5)
        if kind == 0 and data:
            pos = min(pos, len(data) - 1)
            data = data[:pos] + bytes([rng.randint(256)]) + data[pos + 1:]
        elif kind == 1:
            data = data[:pos] + data[pos + rng.randint(1, 40):]
        elif kind == 2:
            data = data[:pos] + FUZZ_TOKENS[rng.randint(len(FUZZ_TOKENS))] + data[pos:]
        elif kind == 3:
            lines = data.splitlines(keepends=True)
            if lines:
                k = rng.randint(len(lines))
                data = b"".join(lines[:k + 1] + [lines[k]] + lines[k + 1:])
        else:
            data = data[:pos]
    return data


def call_within(fn, seconds):
    """fn()'s exception, or None when it returns; fails if fn is still
    running after `seconds`."""
    outcome = []

    def target():
        try:
            fn()
        except Exception as e:  # handed to the caller to judge
            outcome.append(e)
        else:
            outcome.append(None)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return outcome[0]


def forward_invariance(input_width, hidden, seed, n=1000):
    """Probe mlp_forward's batch invariance on one relu net: every row of
    an n-row batch, of permutations of it, and of prefixes of a
    permutation whose sizes sit either side of the blockings 64 and 256,
    against the row's one-row call, by bytes. Returns (failures, sha256
    of the n-row batch's scores)."""
    rng = np.random.RandomState(seed)
    model = init_mlp(input_width, hidden, "relu", seed)
    X = rng.randn(n, input_width)
    alone = np.concatenate([mlp_forward(model, x[None, :]) for x in X])
    batch = mlp_forward(model, X)
    differ = batch.view(np.uint64) != alone.view(np.uint64)  # bits, so -0.0 != 0.0
    failures = [f"row {i}" for i in np.flatnonzero(differ).tolist()]
    for trial in range(3):
        perm = rng.permutation(n)
        for size in (n, 63, 64, 65, 255, 256, 257):
            got = mlp_forward(model, X[perm[:size]])
            if got.tobytes() != alone[perm[:size]].tobytes():
                failures.append(f"permutation {trial}, first {size} rows")
    return failures, hashlib.sha256(batch.tobytes()).hexdigest()
