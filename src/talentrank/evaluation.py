"""Offline replay evaluation: re-rank recorded sessions with a candidate
scorer and report precision at k and AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ProfileStore, SessionStore
from .fileio import atomic_write, fmt_float

DENOMINATORS = ("min", "k")


class EvaluationError(ValueError):
    """Invalid metric input or unresolvable replay data."""


@dataclass
class Metrics:
    prec_at: dict  # k -> mean precision over sessions
    auc: float | None  # None when pooled pairs are single-class
    sessions_evaluated: int


def precision_at_k(ranked_labels, k: int, denominator: str = "min") -> float:
    """Fraction of positives among the top min(k, n) ranked labels.

    denominator='min' divides by min(k, n) (default); 'k' divides by k.
    """
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    if denominator not in DENOMINATORS:
        raise EvaluationError(f"denominator must be one of {DENOMINATORS}, got {denominator!r}")
    labels = list(ranked_labels)
    if not labels:
        raise EvaluationError("ranked labels must be nonempty")
    cut = min(k, len(labels))
    hits = sum(labels[:cut])
    return hits / (cut if denominator == "min" else k)


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


def session_rows(sessions: SessionStore, profiles: ProfileStore) -> tuple:
    """(queries, members): one row per impression, in session order, so each
    session's rows are consecutive and share its query. These are the
    row-aligned lists a replay scorer takes; a member missing from
    `profiles` is an EvaluationError naming its session."""
    queries, members = [], []
    for session in sessions:
        for imp in session.impressions:
            if imp.member_id not in profiles:
                raise EvaluationError(
                    f"session {session.session_id}: member {imp.member_id} not in profile store"
                )
            queries.append(session.query)
            members.append(profiles[imp.member_id])
    return queries, members


def rank_sessions(scores, sessions: SessionStore, ks, denominator: str = "min") -> Metrics:
    """Rank every session's impressions by `scores`, one finite score per
    row of session_rows(sessions, ...); anything else is an EvaluationError.

    Per session, impressions sort by (score descending, member_id
    ascending); prec_at[k] averages precision_at_k over sessions. AUC pools
    (score, label) pairs across sessions, excluding sessions lacking either
    class from the pool (they still count toward precision).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise EvaluationError("ks must contain integers >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    n_rows = sum(len(session.impressions) for session in sessions)
    if scores.shape != (n_rows,):
        raise EvaluationError(f"got scores of shape {scores.shape} for {n_rows} impressions")
    if not np.isfinite(scores).all():
        raise EvaluationError("scores must be finite to rank sessions")
    scores = iter(scores.tolist())
    prec_sums = {k: 0.0 for k in ks}
    pooled_scores: list[float] = []
    pooled_labels: list[int] = []
    for session in sessions:
        # impressions lead the zip, so it stops before taking a score too many
        rows = [(score, imp.member_id, imp.label)
                for imp, score in zip(session.impressions, scores)]
        rows.sort(key=lambda r: (-r[0], r[1]))
        ranked = [label for _, _, label in rows]
        for k in ks:
            prec_sums[k] += precision_at_k(ranked, k, denominator)
        n_pos = sum(ranked)
        if 0 < n_pos < len(ranked):
            pooled_scores.extend(score for score, _, _ in rows)
            pooled_labels.extend(ranked)
    count = len(sessions)
    return Metrics(
        prec_at={k: prec_sums[k] / count if count else 0.0 for k in ks},
        auc=auc(pooled_scores, pooled_labels) if pooled_labels else None,
        sessions_evaluated=count,
    )


def replay(scorer, sessions: SessionStore, profiles: ProfileStore, ks,
           denominator: str = "min") -> Metrics:
    """Re-rank every session's impressions by the scorer's scores.

    `scorer(queries, profiles)` takes row-aligned lists and returns one
    score per row; replay calls it once, on session_rows, and ranks the
    sessions by its result with rank_sessions.
    """
    queries, members = session_rows(sessions, profiles)
    scores = scorer(queries, members) if queries else []
    return rank_sessions(scores, sessions, ks, denominator)


def query_runs(queries) -> list:
    """(start, end) of each maximal run of consecutive equal queries: the
    sessions of a replay scorer call."""
    bounds = [i for i in range(1, len(queries))
              if queries[i] is not queries[i - 1] and queries[i] != queries[i - 1]]
    return list(zip([0, *bounds], [*bounds, len(queries)])) if queries else []


def metrics_lines(metrics: Metrics) -> list:
    """Machine-readable `metric,k,value` lines."""
    lines = [f"prec,{k},{fmt_float(v)}" for k, v in sorted(metrics.prec_at.items())]
    lines.append(f"auc,,{fmt_float(metrics.auc) if metrics.auc is not None else 'nan'}")
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
    with atomic_write(path) as f:
        f.write("\n".join(metrics_lines(metrics)) + "\n")
