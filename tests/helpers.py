"""Shared test utilities: tiny corpus builders, batched replay scorers,
the independent brute-force replay oracle (selection-sort ranking,
pair-counting AUC), and the file mutator the loader fuzz tests share."""

import threading

import numpy as np

from talentrank.corpus import (
    Impression,
    MemberProfile,
    ProfileStore,
    Query,
    Session,
    SessionStore,
)


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
