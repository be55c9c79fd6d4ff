"""Offline replay evaluation: re-rank recorded sessions with a candidate
scorer and report precision at k and AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ProfileStore, SessionStore
from .fileio import format_row, write_lines

DENOMINATORS = ("min", "k")


class EvaluationError(ValueError):
    """Invalid metric input or unresolvable replay data."""


@dataclass
class Metrics:
    prec_at: dict  # k -> mean precision over sessions
    auc: float | None  # None when pooled pairs are single-class
    sessions_evaluated: int


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties
    counted one half (Mann-Whitney rank form)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvaluationError("scores and labels must be equal-length 1-d sequences")
    if not np.isfinite(scores).all():
        raise EvaluationError("auc requires finite scores")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("auc requires at least one positive and one negative")
    # each distinct score's average 1-based rank: half-integers, so exact
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class SessionBlock:
    """A session store's impressions as rows, in session order: session s
    holds rows offsets[s]:offsets[s + 1], which share its query.

    `queries` and `members` are the row-aligned lists a replay scorer
    takes. Per row, int64 arrays hold the `labels`, the `session` index,
    and the ranks among the block's of the member id (`member_rank`) and
    of the position (`position_rank`), which order as the Python ints do.
    A member missing from `profiles` is an EvaluationError naming its
    session."""

    def __init__(self, sessions: SessionStore, profiles: ProfileStore):
        self.queries, self.members, impressions, offsets = [], [], [], [0]
        for session in sessions:
            for imp in session.impressions:
                if imp.member_id not in profiles:
                    raise EvaluationError(f"session {session.session_id}: member "
                                          f"{imp.member_id} not in profile store")
                self.members.append(profiles[imp.member_id])
            impressions.extend(session.impressions)
            self.queries.extend([session.query] * len(session.impressions))
            offsets.append(len(impressions))
        self.labels = np.array([i.label for i in impressions], dtype=np.int64)
        self.member_rank = _ranks([i.member_id for i in impressions])
        self.position_rank = _ranks([i.position for i in impressions])
        self.offsets = np.array(offsets, dtype=np.int64)
        self.session = np.repeat(np.arange(len(offsets) - 1), np.diff(self.offsets))

    def positive_runs(self):
        """The rows in (session, position) order, ties in block order, split
        into positives `pos` and negatives `neg`; positive i's session holds
        the negatives neg[start[i]:start[i] + count[i]]. All int64 arrays."""
        order = np.lexsort((self.position_rank, self.session))
        positive = self.labels[order] == 1
        pos, neg = order[positive], order[~positive]
        count = np.bincount(self.session[neg], minlength=len(self.offsets) - 1)
        at = self.session[pos]
        return pos, neg, (np.cumsum(count) - count)[at], count[at]


def _ranks(values: list) -> np.ndarray:
    """(n,) int64 dense ranks of Python ints of any size."""
    rank_of = {value: rank for rank, value in enumerate(sorted(set(values)))}
    return np.array([rank_of[value] for value in values], dtype=np.int64)


def rank_sessions(scores, block: SessionBlock, ks, denominator: str = "min") -> Metrics:
    """Rank each session of `block` by (score descending, member_id
    ascending), one finite score per row (else an EvaluationError).
    prec_at[k] averages over sessions the positives among the top min(k, n)
    over min(k, n) (denominator 'min') or k ('k'). AUC pools the ranked
    rows of the sessions that hold both classes."""
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise EvaluationError("ks must contain integers >= 1")
    if denominator not in DENOMINATORS:
        raise EvaluationError(f"denominator must be one of {DENOMINATORS}, got {denominator!r}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != block.labels.shape:
        raise EvaluationError(
            f"got scores of shape {scores.shape} for {len(block.labels)} impressions")
    if not np.isfinite(scores).all():
        raise EvaluationError("scores must be finite to rank sessions")
    order = np.lexsort((block.member_rank, -scores, block.session))
    ranked = block.labels[order]
    hits_before = np.concatenate(([0], np.cumsum(ranked)))
    starts, sizes = block.offsets[:-1], np.diff(block.offsets)
    count = len(sizes)
    prec_at = {}
    for k in ks:
        cut = np.minimum(sizes, min(k, len(scores)))  # k may exceed int64
        # Python ints, which divide correctly rounded whatever the size of k
        hits = (hits_before[starts + cut] - hits_before[starts]).astype(object)
        prec = hits / (cut if denominator == "min" else k)
        # added one session after another, as reports and the monitor always were
        prec_at[k] = float(np.cumsum(prec)[-1]) / count if count else 0.0
    positives = hits_before[block.offsets[1:]] - hits_before[starts]
    pooled = ((positives > 0) & (positives < sizes))[block.session]
    return Metrics(
        prec_at=prec_at,
        auc=auc(scores[order][pooled], ranked[pooled]) if pooled.any() else None,
        sessions_evaluated=count,
    )


def replay(scorer, sessions: SessionStore, profiles: ProfileStore, ks,
           denominator: str = "min") -> Metrics:
    """Re-rank every session's impressions by the scorer's scores.

    `scorer(queries, profiles)` takes row-aligned lists and returns one
    score per row; replay calls it once, on the SessionBlock's rows, and
    ranks the sessions by its result with rank_sessions.
    """
    block = SessionBlock(sessions, profiles)
    scores = scorer(block.queries, block.members) if block.queries else []
    return rank_sessions(scores, block, ks, denominator)


def query_groups(queries, profiles):
    """A scorer call's row grouping: the distinct `profiles` by member_id,
    each row's (n,) intp index into them, and the intp rows of each distinct
    query, by equality; both distinct lists in first-seen order."""
    first: dict = {}  # member_id -> (index, profile)
    member_of = [first.setdefault(p.member_id, (len(first), p))[0] for p in profiles]
    rows: dict = {}
    for row, query in enumerate(queries):
        rows.setdefault(query, []).append(row)
    return ([p for _, p in first.values()], np.array(member_of, dtype=np.intp),
            {query: np.array(r, dtype=np.intp) for query, r in rows.items()})


def metrics_lines(metrics: Metrics) -> list:
    """Machine-readable `metric,k,value` lines."""
    lines = [f"prec,{k},{format_row([v])}" for k, v in sorted(metrics.prec_at.items())]
    lines.append(f"auc,,{format_row([metrics.auc]) if metrics.auc is not None else 'nan'}")
    lines.append(f"sessions,,{metrics.sessions_evaluated}")
    return lines


def format_metrics_table(metrics: Metrics) -> str:
    rows = [("metric", "k", "value")]
    for k, v in sorted(metrics.prec_at.items()):
        rows.append(("prec", str(k), f"{v:.6f}"))
    rows.append(("auc", "", f"{metrics.auc:.6f}" if metrics.auc is not None else "n/a"))
    rows.append(("sessions", "", str(metrics.sessions_evaluated)))
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def write_report(metrics: Metrics, path: str) -> None:
    write_lines(path, metrics_lines(metrics))
