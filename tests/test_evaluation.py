import numpy as np
import pytest

from helpers import (
    brute_force_replay,
    profiles_for,
    quantized_scorer,
    random_corpus,
    rowwise,
    session_of,
)
from talentrank.corpus import Query, Session, SessionStore
from talentrank.evaluation import (
    EvaluationError,
    auc,
    format_metrics_table,
    metrics_lines,
    precision_at_k,
    random_bucket_shuffle,
    rank_sessions,
    replay,
    session_rows,
    write_report,
)


class TestPrecisionAtK:
    def test_basic(self):
        assert precision_at_k([1, 0, 1], 2) == 0.5

    def test_all_positive(self):
        for k in (1, 2, 5, 100):
            assert precision_at_k([1, 1, 1], k) == 1.0

    def test_denominator_conventions(self):
        labels = [0, 1, 0, 0]
        assert precision_at_k(labels, 10, "min") == 0.25
        assert precision_at_k(labels, 10, "k") == 0.1

    def test_k_validation(self):
        with pytest.raises(EvaluationError):
            precision_at_k([1], 0)

    def test_empty_errors(self):
        with pytest.raises(EvaluationError):
            precision_at_k([], 3)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([5.0, 4.0, 1.0, 0.0], [1, 1, 0, 0]) == 1.0

    def test_identical_scores(self):
        assert auc([2.0, 2.0, 2.0], [1, 0, 1]) == 0.5

    def test_exhaustive_pair_enumeration_fixture(self):
        # oracle: enumerate positive x negative pairs with ties worth 1/2
        scores, labels = [3.0, 2.0, 1.0], [1, 0, 1]
        expected = 0.0
        pairs = 0
        for sp, lp in zip(scores, labels):
            if lp != 1:
                continue
            for sn, ln in zip(scores, labels):
                if ln != 0:
                    continue
                pairs += 1
                expected += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
        expected /= pairs
        assert expected == 0.5  # one win, one loss over the 2 pairs
        assert auc(scores, labels) == expected

    def test_negation_complements(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            scores = rng.randn(12)
            labels = rng.randint(0, 2, size=12)
            if labels.min() == labels.max():
                continue
            assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(EvaluationError):
            auc([1.0, 2.0], [1, 1])

    def test_equals_pair_count_exactly_with_ties(self):
        # average ranks are half-integers, so the rank sum is exact
        rng = np.random.RandomState(1)
        for _ in range(300):
            n = rng.randint(2, 60)
            scores = rng.randint(0, rng.randint(1, 8), size=n) / 4.0
            labels = rng.randint(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            assert auc(scores, labels) == wins / (len(pos) * len(neg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_error(self, bad):
        with pytest.raises(EvaluationError, match="finite"):
            auc([1.0, bad, 2.0], [1, 0, 0])


class TestReplay:
    def test_oracle_scorer_ranks_positives_first(self):
        profiles = profiles_for(5)
        session = session_of([0, 0, 1, 0, 0], sid=1)
        store = SessionStore([session])
        label_of = {imp.member_id: imp.label for imp in session.impressions}
        scorer = rowwise(lambda q, p: float(label_of[p.member_id]))
        metrics = replay(scorer, store, profiles, ks=[1, 5])
        assert metrics.prec_at[1] == 1.0
        assert metrics.prec_at[5] == 0.2

    def test_negated_label_scorer_gives_auc_zero(self):
        profiles = profiles_for(4)
        session = session_of([0, 1, 0, 1], sid=1)
        store = SessionStore([session])
        label_of = {imp.member_id: imp.label for imp in session.impressions}
        scorer = rowwise(lambda q, p: -float(label_of[p.member_id]))
        metrics = replay(scorer, store, profiles, ks=[1])
        assert metrics.auc == 0.0

    def test_matches_bruteforce_on_random_corpora(self):
        for seed in range(25):
            rng = np.random.RandomState(seed)
            profiles, sessions = random_corpus(rng)
            scorer = quantized_scorer(seed)
            metrics = replay(scorer, sessions, profiles, ks=[1, 5])
            expected_prec, expected_auc = brute_force_replay(
                quantized_scorer(seed), sessions, profiles, ks=[1, 5])
            assert metrics.prec_at == expected_prec
            if expected_auc is None:
                assert metrics.auc is None
            else:
                assert metrics.auc == pytest.approx(expected_auc, abs=1e-12)

    def test_affine_scorer_invariance(self):
        rng = np.random.RandomState(3)
        profiles, sessions = random_corpus(rng)
        base = quantized_scorer(3)
        metrics_a = replay(base, sessions, profiles, ks=[1, 5])
        affine = quantized_scorer(3)
        metrics_b = replay(lambda q, p: 2.5 * affine(q, p) + 7.0, sessions, profiles, ks=[1, 5])
        assert metrics_a.prec_at == metrics_b.prec_at
        assert metrics_a.auc == pytest.approx(metrics_b.auc, abs=1e-12)

    def test_prec_independent_of_impression_order(self):
        profiles = profiles_for(6)
        labels = [1, 0, 1, 0, 0, 1]
        session = session_of(labels, sid=1)
        shuffled = random_bucket_shuffle(session, seed=4)
        store_a = SessionStore([session])
        store_b = SessionStore([shuffled])
        scorer = quantized_scorer(11)
        a = replay(scorer, store_a, profiles, ks=[1, 3])
        scorer_b = quantized_scorer(11)
        b = replay(scorer_b, store_b, profiles, ks=[1, 3])
        assert a.prec_at == b.prec_at

    def test_unresolvable_member_names_session(self):
        profiles = profiles_for(2)
        store = SessionStore([session_of([1, 0], sid=9, members=[0, 50])])
        with pytest.raises(EvaluationError, match="session 9.*member 50"):
            replay(rowwise(lambda q, p: 0.0), store, profiles, ks=[1])

    def test_scorer_called_once_in_session_order(self):
        rng = np.random.RandomState(4)
        profiles, sessions = random_corpus(rng)
        calls = []

        def scorer(queries, members):
            calls.append((list(queries), [p.member_id for p in members]))
            return quantized_scorer(4)(queries, members)

        replay(scorer, sessions, profiles, ks=[1])
        assert len(calls) == 1
        assert calls[0][0] == [s.query for s in sessions for _ in s.impressions]
        assert calls[0][1] == [i.member_id for s in sessions for i in s.impressions]

    def test_batched_scores_match_oracle_with_distinct_queries(self):
        # a score that depends on the query as well as the member, on a
        # coarse grid so ties are common
        def score(query, profile):
            return float((profile.member_id * 31 + len(query.keywords)) % 4)

        for seed in range(25):
            rng = np.random.RandomState(100 + seed)
            profiles, sessions = random_corpus(rng)
            sessions = SessionStore(
                Session(s.session_id, s.timestamp, Query(keywords="q" * rng.randint(1, 4)),
                        s.impressions) for s in sessions)
            metrics = replay(rowwise(score), sessions, profiles, ks=[1, 3])
            expected_prec, expected_auc = brute_force_replay(
                rowwise(score), sessions, profiles, ks=[1, 3])
            assert metrics.prec_at == expected_prec
            if expected_auc is None:
                assert metrics.auc is None
            else:
                assert metrics.auc == pytest.approx(expected_auc, abs=1e-12)

    def test_wrong_length_scores_are_an_error(self):
        profiles = profiles_for(3)
        store = SessionStore([session_of([1, 0, 1], sid=1)])
        for bad in ([0.5, 0.5], [[0.0, 1.0, 2.0]], 1.0):
            with pytest.raises(EvaluationError, match="for 3 impressions"):
                replay(lambda q, p, bad=bad: bad, store, profiles, ks=[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_an_error(self, bad):
        profiles = profiles_for(3)
        store = SessionStore([session_of([1, 0, 1], sid=1)])
        with pytest.raises(EvaluationError, match="finite"):
            replay(lambda q, p: np.array([0.5, bad, 0.1]), store, profiles, ks=[1])

    def test_is_session_rows_then_rank_sessions(self):
        rng = np.random.RandomState(6)
        profiles, sessions = random_corpus(rng)
        queries, members = session_rows(sessions, profiles)
        assert len(queries) == len(members) == sum(len(s.impressions) for s in sessions)
        scores = quantized_scorer(6)(queries, members)
        assert (rank_sessions(scores, sessions, [1, 5])
                == replay(quantized_scorer(6), sessions, profiles, ks=[1, 5]))

    def test_single_class_sessions_excluded_from_auc(self):
        profiles = profiles_for(6)
        store = SessionStore([
            session_of([1, 1], sid=1, members=[0, 1]),
            session_of([0, 0], sid=2, members=[2, 3]),
        ])
        metrics = replay(rowwise(lambda q, p: float(p.member_id)), store, profiles, ks=[1])
        assert metrics.auc is None
        assert metrics.sessions_evaluated == 2


class TestRandomBucketShuffle:
    def test_deterministic(self):
        session = session_of([1, 0, 0, 1, 0], sid=2)
        a = random_bucket_shuffle(session, seed=5)
        b = random_bucket_shuffle(session, seed=5)
        assert a == b

    def test_multiset_preserved(self):
        session = session_of([1, 0, 0, 1], sid=2)
        shuffled = random_bucket_shuffle(session, seed=1)
        original = {(i.member_id, i.label) for i in session.impressions}
        assert {(i.member_id, i.label) for i in shuffled.impressions} == original

    def test_positions_rewritten(self):
        session = session_of([1, 0, 0, 1], sid=2)
        shuffled = random_bucket_shuffle(session, seed=1)
        assert [i.position for i in shuffled.impressions] == [0, 1, 2, 3]

    def test_singleton_unchanged(self):
        session = session_of([1], sid=3)
        assert random_bucket_shuffle(session, seed=9) == session


class TestReport:
    def test_lines_and_table(self, tmp_path):
        profiles = profiles_for(4)
        store = SessionStore([session_of([1, 0, 0, 1], sid=1)])
        metrics = replay(rowwise(lambda q, p: float(p.member_id)), store, profiles, ks=[1, 5])
        lines = metrics_lines(metrics)
        assert lines[0].startswith("prec,1,")
        assert lines[1].startswith("prec,5,")
        assert any(l.startswith("auc,,") for l in lines)
        path = tmp_path / "report.csv"
        write_report(metrics, str(path))
        assert path.read_text().splitlines() == lines
        table = format_metrics_table(metrics)
        assert "prec" in table and "auc" in table
