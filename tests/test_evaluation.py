import numpy as np
import pytest

from helpers import (
    brute_force_replay,
    profiles_for,
    quantized_scorer,
    random_corpus,
    random_store,
    reference_rank_sessions,
    rowwise,
    session_of,
)
from talentrank.corpus import MemberProfile, ProfileStore, Query, Session, SessionStore
from talentrank.evaluation import (
    EvaluationError,
    SessionBlock,
    auc,
    format_metrics_table,
    metrics_lines,
    query_groups,
    rank_sessions,
    replay,
    write_report,
)


def one_session(labels):
    """Scores that rank one session's impressions in the order of `labels`,
    and the session's SessionBlock."""
    block = SessionBlock(SessionStore([session_of(labels, sid=1)]), profiles_for(len(labels)))
    return -np.arange(len(labels), dtype=np.float64), block


class TestPrecisionAtK:
    """Precision at k, through rank_sessions over one-session blocks."""

    def test_basic(self):
        assert rank_sessions(*one_session([1, 0, 1]), [2]).prec_at == {2: 0.5}

    def test_all_positive(self):
        ks = (1, 2, 5, 100)
        assert rank_sessions(*one_session([1, 1, 1]), ks).prec_at == {k: 1.0 for k in ks}

    def test_denominator_conventions(self):
        scores, block = one_session([0, 1, 0, 0])
        assert rank_sessions(scores, block, [10], "min").prec_at == {10: 0.25}
        assert rank_sessions(scores, block, [10], "k").prec_at == {10: 0.1}
        with pytest.raises(EvaluationError, match="denominator"):
            rank_sessions(scores, block, [10], "max")

    def test_k_validation(self):
        for ks in ([0], [], [3, -1]):
            with pytest.raises(EvaluationError, match="ks"):
                rank_sessions(*one_session([1]), ks)

    def test_empty_errors(self):
        # a session holds at least one impression, so no ranked list is
        # empty; no scores for a session's rows is the error instead
        _, block = one_session([1, 0, 1])
        with pytest.raises(EvaluationError, match="for 3 impressions"):
            rank_sessions([], block, [3])


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
        perm = np.random.RandomState(4).permutation(len(session.impressions))
        shuffled = Session(session.session_id, session.timestamp, session.query,
                           tuple(session.impressions[i] for i in perm))
        assert shuffled.impressions != session.impressions
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

    def test_is_session_block_then_rank_sessions(self):
        rng = np.random.RandomState(6)
        profiles, sessions = random_corpus(rng)
        block = SessionBlock(sessions, profiles)
        scores = quantized_scorer(6)(block.queries, block.members)
        assert (rank_sessions(scores, block, [1, 5])
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


class TestSessionBlock:
    def test_rows_are_the_impressions_in_session_order(self):
        rng = np.random.RandomState(7)
        profiles, sessions, _ = random_store(rng)
        block = SessionBlock(sessions, profiles)
        imps = [(s, i) for s in sessions for i in s.impressions]
        assert block.queries == [s.query for s, _ in imps]
        assert block.members == [profiles[i.member_id] for _, i in imps]
        assert block.labels.tolist() == [i.label for _, i in imps]
        for ranks, values in ((block.member_rank, [i.member_id for _, i in imps]),
                              (block.position_rank, [i.position for _, i in imps])):
            assert ranks.dtype == np.int64
            assert ranks.tolist() == [sorted(set(values)).index(v) for v in values]
        assert block.session.tolist() == [n for n, s in enumerate(sessions)
                                          for _ in s.impressions]
        sizes = [len(s.impressions) for s in sessions]
        assert block.offsets.tolist() == np.concatenate(([0], np.cumsum(sizes))).tolist()

    def test_empty_store(self):
        block = SessionBlock(SessionStore(), profiles_for(2))
        assert block.queries == [] and block.offsets.tolist() == [0]
        assert rank_sessions([], block, [1]) == rank_sessions(np.empty(0), block, [1])
        metrics = rank_sessions([], block, [1, 5])
        assert metrics.prec_at == {1: 0.0, 5: 0.0} and metrics.auc is None
        assert metrics.sessions_evaluated == 0


class TestQueryGroups:
    def test_members_in_member_id_order_and_queries_first_seen(self):
        profiles = {mid: MemberProfile(mid, frozenset(), frozenset(), frozenset(), f"m{mid}")
                    for mid in (7, 2, 10**30, 5)}
        java, sql = Query(keywords="java"), Query(keywords="sql")
        rows = [(sql, 7), (java, 2), (sql, 10**30), (java, 7), (Query(keywords="sql"), 5)]
        distinct, member_of, groups = query_groups([q for q, _ in rows],
                                                   [profiles[mid] for _, mid in rows])
        assert [p.member_id for p in distinct] == [2, 5, 7, 10**30]
        assert member_of.dtype == np.intp and member_of.tolist() == [2, 0, 3, 2, 1]
        assert list(groups) == [sql, java]
        assert [r.tolist() for r in groups.values()] == [[0, 2, 4], [1, 3]]
        distinct, member_of, groups = query_groups([], [])
        assert distinct == [] and member_of.shape == (0,) and groups == {}


class TestRankSessions:
    def test_matches_per_session_loop_bit_for_bit(self):
        """Over random stores with -0.0, 0.0 and equal scores, single-class
        and one-row sessions, both denominators: the same prec_at bits,
        pooled rows and AUC bits as ranking one session at a time."""
        for seed in range(300):
            rng = np.random.RandomState(seed)
            profiles, sessions, scores = random_store(rng)
            block = SessionBlock(sessions, profiles)
            ks = sorted({1, *rng.randint(1, 10, size=2).tolist(), 2**53 + 1, 10**30})
            for denominator in ("min", "k"):
                metrics = rank_sessions(scores, block, ks, denominator)
                prec_at, pooled_scores, pooled_labels, count = reference_rank_sessions(
                    scores, sessions, ks, denominator)
                assert sorted(metrics.prec_at) == ks
                assert (np.array([metrics.prec_at[k] for k in ks]).tobytes()
                        == np.array([prec_at[k] for k in ks]).tobytes()), (seed, denominator)
                assert metrics.sessions_evaluated == count
                if pooled_labels:
                    expected = auc(pooled_scores, pooled_labels)
                    assert np.float64(metrics.auc).tobytes() == np.float64(expected).tobytes()
                else:
                    assert metrics.auc is None

    def test_member_ids_beyond_int64_break_ties_in_id_order(self):
        huge = 2**64
        ids = [huge + 5, 7, huge, 2**63 - 1, huge + 1]
        profiles = ProfileStore(MemberProfile(m, frozenset(), frozenset(), frozenset(), "m")
                                for m in ids)
        sessions = SessionStore([session_of([0, 1, 1, 0, 1], sid=1, members=ids),
                                 session_of([1, 0], sid=2, members=[huge + 1, huge])])
        scores = np.zeros(7)
        metrics = rank_sessions(scores, SessionBlock(sessions, profiles), [1, 2, 3])
        prec_at, _, _, _ = reference_rank_sessions(scores, sessions, [1, 2, 3])
        # ranked labels [1, 0, 1, 1, 0] and [0, 1]
        assert metrics.prec_at == prec_at == {1: 0.5, 2: 0.5, 3: (2 / 3 + 1 / 2) / 2}

    def test_precision_sums_one_session_after_another(self):
        # precisions 0.1, 0.2, 0.3 six times over: added in session order
        # they come to 3.6000000000000005, pairwise or compensated to 3.6
        sizes = [1, 2, 3] * 6
        sessions = SessionStore(session_of([1] * n + [0] * (10 - n), sid=sid,
                                           members=list(range(10 * sid, 10 * sid + 10)))
                                for sid, n in enumerate(sizes))
        block = SessionBlock(sessions, profiles_for(10 * len(sizes)))
        scores = np.tile(-np.arange(10.0), len(sizes))
        total = 0.0
        for n in sizes:
            total += n / 10
        assert total != np.sum(np.array(sizes) / 10)
        assert rank_sessions(scores, block, [10]).prec_at[10] == total / len(sizes)


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
