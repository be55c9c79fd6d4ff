import json
import re

import numpy as np
import pytest

from talentrank.corpus import (
    CorpusError,
    NAMESPACES,
    EntityId,
    Impression,
    MemberProfile,
    ProfileStore,
    Query,
    Session,
    SessionStore,
    SynthConfig,
    synth_corpus,
    time_split,
)
from talentrank.evaluation import EvaluationError, rank_sessions, replay
from talentrank.graph_embed import EmbeddingTable
from talentrank.neural import TrainConfig, init_mlp, mlp_forward
from talentrank.semantic_match import word_hash
from talentrank.ranker import (
    FeatureSchema,
    MemberBlock,
    RankerError,
    RankingModel,
    build_features,
    make_scorer,
    query_pools,
    train_ranker,
    _build_dataset,
)
from helpers import (
    call_within,
    mine_pairs,
    mutate,
    profiles_for,
    random_store,
    reference_pairs,
    reference_pool,
)


def sk(i):
    return EntityId("skill", i)


def member(mid, skills=(), titles=(), companies=(), headline=""):
    return MemberProfile(
        member_id=mid,
        skills=frozenset(sk(i) for i in skills),
        titles=frozenset(EntityId("title", i) for i in titles),
        companies=frozenset(EntityId("company", i) for i in companies),
        headline_text=headline,
    )


def skill_table(vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, "concat", [sk(i) for i in vectors], list(vectors.values()))


def feature_row(query, profile, tables, schema):
    """One feature row through the shared builder."""
    pools_q = query_pools(query, tables, schema)
    block = MemberBlock([profile], {ns: tables[ns] for ns in schema.embedding_namespaces})
    return build_features(query, block, [0], pools_q, schema)[0]


def column_names(schema):
    """One name per feature column, in the layout FeatureSchema documents."""
    names = [*(f"{ns}_jaccard" for ns in NAMESPACES), "keyword_trigram_overlap"]
    for ns in schema.embedding_namespaces:
        names += [f"emb_{m}_{ns}" for m in schema.embedding_measures]
        if schema.include_hadamard:
            names += [f"emb_hadamard_{ns}_{i}" for i in range(schema.embedding_dim)]
        names += [f"coverage_member_{ns}", f"coverage_query_{ns}"]
    return names


def session_of(labels, sid=0, ts=100, query=None, first_member=0):
    query = query or Query(keywords="x")
    imps = tuple(
        Impression(member_id=first_member + i, label=l, position=i) for i, l in enumerate(labels)
    )
    return Session(session_id=sid, timestamp=ts, query=query, impressions=imps)


def set_reference(query, profile):
    """The syntactic feature columns by set arithmetic on one profile."""
    def jaccard(a, b):
        return 0.0 if not a and not b else len(a & b) / len(a | b)

    row = [jaccard(query.facet(ns), profile.entities(ns)) for ns in ("skill", "title", "company")]
    row.append(jaccard(frozenset(word_hash(query.keywords)),
                       frozenset(word_hash(profile.headline_text))))
    return row


class TestMemberBlock:
    HUGE = 2**64 + 3  # beyond int64

    def random_ids(self, rng):
        ids = rng.choice(9, size=rng.randint(0, 5), replace=False).tolist()
        return ids + [self.HUGE] if rng.randint(4) == 0 else ids

    def test_syntactic_features_match_set_reference(self):
        rng = np.random.RandomState(5)
        words = ["java", "sales", "data", "lead", "a"]
        profiles = [member(mid, self.random_ids(rng), self.random_ids(rng), self.random_ids(rng),
                           " ".join(rng.choice(words, size=rng.randint(0, 4)).tolist()))
                    for mid in range(60)]
        profiles.append(member(60))  # every bag empty
        block = MemberBlock(profiles, {})
        queries = [
            Query(keywords="java"),  # every facet empty
            Query(keywords="qqq zzz", facet_skills=frozenset({sk(1)})),  # no trigram in the block
            Query(facet_skills=frozenset({sk(40), sk(2**70)})),  # ids absent from the block
            Query(facet_skills=frozenset({sk(self.HUGE)}),
                  facet_titles=frozenset({EntityId("title", self.HUGE)})),
        ]
        for _ in range(100):
            facets = [frozenset(EntityId(ns, i) for i in self.random_ids(rng))
                      for ns in ("skill", "title", "company")]
            keywords = " ".join(rng.choice(words + ["zz"], size=rng.randint(0, 3)).tolist())
            if keywords or any(facets):
                queries.append(Query(keywords, *facets))
        schema = FeatureSchema()
        for query in queries:
            rows = rng.permutation(len(profiles))[:rng.randint(1, len(profiles) + 1)]
            got = build_features(query, block, rows, {}, schema)
            expected = np.array([set_reference(query, profiles[r]) for r in rows])
            assert got.tobytes() == expected.tobytes(), query
            assert got.shape == (len(rows), schema.width)

    def test_table_outside_the_namespaces_is_refused(self):
        with pytest.raises(CorpusError, match="^unknown namespace 'trigram'$"):
            MemberBlock([member(1, skills=[1])], {"trigram": skill_table({1: [1.0]})})

    def test_counts_and_sizes(self):
        profiles = [member(5, skills=[1, 2]), member(9, skills=[2, self.HUGE]), member(12)]
        block = MemberBlock(profiles, {})
        assert block.member_ids == [5, 9, 12] and block.row_of == {5: 0, 9: 1, 12: 2}
        assert block.counts("skill", {sk(2), sk(self.HUGE), sk(7)}).tolist() == [1, 2, 0]
        assert block.counts("skill", set()).tolist() == [0, 0, 0]
        assert block.sizes[0].tolist() == [2, 2, 0]
        assert build_features(Query(keywords="x"), block, [], {}, FeatureSchema()).shape == (0, 4)

    @pytest.mark.parametrize("dim", [1, 2, 9])
    def test_pools_bit_identical_to_pool_per_profile(self, dim):
        rng = np.random.RandomState(dim)
        vectors = {i: rng.randn(dim) for i in range(30)}
        vectors[30] = np.full(dim, -0.0)  # sums of -0.0 stay -0.0
        vectors[self.HUGE] = rng.randn(dim)
        table = skill_table(vectors)
        ids = list(range(31)) + [self.HUGE] + [40, 41, 42]  # 40..42 are not in the table
        profiles = [member(mid, rng.choice(ids, size=rng.randint(0, 15), replace=False).tolist())
                    for mid in range(200)]
        profiles += [member(200), member(201, skills=[40, 41]),  # empty bag, zero coverage
                     member(202, skills=[30]), member(203, skills=[30, 40])]
        vectors, coverage = MemberBlock(profiles, {"skill": table}).pools["skill"]
        for row, profile in enumerate(profiles):
            vec, cov = reference_pool(profile.skills, table)
            assert vectors[row].tobytes() == vec.tobytes(), profile
            assert coverage[row] == cov and np.signbit(coverage[row]) == np.signbit(cov)
        assert np.signbit(vectors[202]).all() and not np.signbit(vectors[200:202]).any()


class TestSchema:
    def test_width_matches_names(self):
        schema = FeatureSchema(embedding_namespaces=("skill",), embedding_measures=("dot", "cosine"),
                               include_hadamard=True, embedding_dim=4)
        table = skill_table({1: [0.5, 0.5, 0.0, 1.0]})
        x = feature_row(Query(facet_skills=frozenset({sk(1)})), member(0, skills=[1]),
                        {"skill": table}, schema)
        assert schema.width == len(column_names(schema)) == len(x) == 3 + 1 + 2 + 4 + 2

    def test_syntactic_only(self):
        schema = FeatureSchema()
        assert column_names(schema) == [
            "skill_jaccard", "title_jaccard", "company_jaccard", "keyword_trigram_overlap"
        ]
        assert schema.width == len(feature_row(Query(keywords="x"), member(0), {}, schema)) == 4

    def test_json_round_trip(self):
        schema = FeatureSchema(embedding_namespaces=("skill", "title"))
        assert FeatureSchema.from_json(schema.to_json()) == schema

    def test_hadamard_requires_dim(self):
        with pytest.raises(RankerError):
            FeatureSchema(include_hadamard=True)


class TestAssembleFeatures:
    def test_skill_jaccard(self):
        query = Query(facet_skills=frozenset({sk(1), sk(2)}))
        profile = member(0, skills=[2, 3])
        x = feature_row(query, profile, {}, FeatureSchema())
        names = column_names(FeatureSchema())
        assert x[names.index("skill_jaccard")] == pytest.approx(1 / 3)

    def test_identical_pooled_vectors_cosine_one(self):
        table = skill_table({1: [0.5, 0.5], 2: [0.1, 0.9]})
        schema = FeatureSchema(embedding_namespaces=("skill",),
                               embedding_measures=("dot", "cosine"))
        query = Query(facet_skills=frozenset({sk(1), sk(2)}))
        profile = member(0, skills=[1, 2])
        x = feature_row(query, profile, {"skill": table}, schema)
        names = column_names(schema)
        assert x[names.index("emb_cosine_skill")] == pytest.approx(1.0)

    def test_empty_member_bag_zero_conventions(self):
        table = skill_table({1: [1.0, 0.0]})
        schema = FeatureSchema(embedding_namespaces=("skill",))
        query = Query(facet_skills=frozenset({sk(1)}))
        profile = member(0, skills=[])
        x = feature_row(query, profile, {"skill": table}, schema)
        names = column_names(schema)
        assert x[names.index("emb_dot_skill")] == 0.0
        assert x[names.index("coverage_member_skill")] == 0.0
        assert x[names.index("coverage_query_skill")] == 1.0

    def test_pure_function_of_sets(self):
        table = skill_table({1: [1.0], 2: [2.0], 3: [3.0]})
        schema = FeatureSchema(embedding_namespaces=("skill",))
        query = Query(facet_skills=frozenset({sk(2), sk(1)}))
        a = member(0, skills=[1, 2, 3])
        b = member(0, skills=[3, 2, 1])
        xa = feature_row(query, a, {"skill": table}, schema)
        xb = feature_row(query, b, {"skill": table}, schema)
        assert np.array_equal(xa, xb)

    def test_keyword_trigram_overlap(self):
        query = Query(keywords="java")
        profile = member(0, headline="java")
        x = feature_row(query, profile, {}, FeatureSchema())
        names = column_names(FeatureSchema())
        assert x[names.index("keyword_trigram_overlap")] == 1.0

    def test_missing_table_errors(self):
        schema = FeatureSchema(embedding_namespaces=("skill",))
        with pytest.raises(RankerError, match="skill"):
            feature_row(Query(keywords="x"), member(0), {}, schema)


def mined(*sessions):
    """The pairs _build_dataset mines from `sessions`, syntactic features only."""
    store = SessionStore(sessions)
    members = max(i.member_id for s in store for i in s.impressions) + 1
    return _build_dataset(store, profiles_for(members), {}, FeatureSchema(), pairwise=True).pairs


class TestMinePairs:
    """_build_dataset's pairs, and the per-session reference they match."""

    def test_counts(self):
        for labels, count in (([1, 0, 0], 2), ([1, 1, 0, 0], 4), ([1, 1, 1], 0)):
            assert mined(session_of(labels)).shape == (count, 2)
            assert len(mine_pairs(session_of(labels))) == count

    def test_ordering_by_positions(self):
        session = session_of([0, 1, 0, 1])
        pairs = mine_pairs(session)
        keys = [(p.position, n.position) for p, n in pairs]
        assert keys == sorted(keys)
        assert all(p.label == 1 and n.label == 0 for p, n in pairs)
        assert mined(session).tolist() == [[1, 0], [1, 2], [3, 0], [3, 2]]
        # positions, not impression order, lead; equal positions keep it
        shuffled = Session(0, 100, session.query, (
            Impression(0, 0, 2), Impression(1, 1, 1), Impression(2, 0, 0), Impression(3, 1, 1)))
        assert mined(shuffled).tolist() == [[1, 2], [1, 0], [3, 2], [3, 0]]

    def test_count_equals_product(self):
        rng = np.random.RandomState(0)
        sessions = []
        for sid in range(20):
            labels = rng.randint(0, 2, size=rng.randint(1, 9)).tolist()
            sessions.append(session_of(labels, sid=sid, first_member=10 * sid))
            assert len(mine_pairs(sessions[-1])) == sum(labels) * (len(labels) - sum(labels))
        assert mined(*sessions).shape[0] == sum(len(mine_pairs(s)) for s in sessions)

    def test_positions_beyond_int64(self):
        huge = 2**64
        session = Session(0, 100, Query(keywords="x"), (
            Impression(0, 1, huge + 1), Impression(1, 0, huge), Impression(2, 1, 3),
            Impression(3, 0, 2**63), Impression(4, 1, huge)))
        assert mined(session).tolist() == [[2, 3], [2, 1], [4, 3], [4, 1], [0, 3], [0, 1]]
        assert mined(session).tobytes() == reference_pairs(SessionStore([session])).tobytes()

    def test_matches_reference_on_random_stores(self):
        """Repeated positions, single-class and one-row sessions: the same
        pairs, in the same order, as mine_pairs session by session."""
        for seed in range(300):
            profiles, sessions, _ = random_store(np.random.RandomState(seed))
            pairs = _build_dataset(sessions, profiles, {}, FeatureSchema(), pairwise=True).pairs
            assert pairs.dtype == np.int64
            assert pairs.tobytes() == reference_pairs(sessions).tobytes(), seed


def small_corpus():
    profiles = ProfileStore([
        member(0, skills=[1, 2], headline="java engineer"),
        member(1, skills=[2, 3], headline="sales lead"),
        member(2, skills=[4], headline="java developer"),
        member(3, skills=[1], headline="designer"),
    ])
    q1 = Query(keywords="java", facet_skills=frozenset({sk(1), sk(2)}))
    q2 = Query(keywords="sales", facet_skills=frozenset({sk(3)}))
    sessions = SessionStore([
        Session(1, 100, q1, (
            Impression(0, 1, 0), Impression(1, 0, 1), Impression(2, 0, 2))),
        Session(2, 200, q2, (
            Impression(1, 1, 0), Impression(3, 0, 1))),
        Session(3, 300, q1, (
            Impression(0, 1, 0), Impression(3, 0, 1), Impression(1, 0, 2))),
    ])
    tables = {"skill": skill_table({1: [1.0, 0.0], 2: [0.5, 0.5], 3: [0.0, 1.0], 4: [-1.0, 0.0]})}
    schema = FeatureSchema(embedding_namespaces=("skill",))
    return profiles, sessions, tables, schema


class TestTrainRanker:
    def test_epochs_zero_returns_initialized_model(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=0, seed=3, hidden_layers=(5,))
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        assert model.epochs_run == 0
        fresh = init_mlp(schema.width, (5,), "relu", 3)
        assert np.array_equal(model.net.final_w, fresh.final_w)

    def test_deterministic(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pairwise_hinge", epochs=4, seed=5,
                             hidden_layers=(6,), batch_size=2)
        a = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        b = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        assert np.array_equal(a.net.final_w, b.net.final_w)
        for la, lb in zip(a.net.layers, b.net.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_pairwise_requires_pairs(self):
        profiles, _, tables, schema = small_corpus()
        sessions = SessionStore([session_of([1, 1], sid=1)])
        config = TrainConfig(objective="pairwise_hinge", epochs=1)
        with pytest.raises(RankerError, match="pair"):
            train_ranker(sessions, SessionStore(), profiles, tables, schema, config)

    def test_missing_member_errors(self):
        profiles, _, tables, schema = small_corpus()
        sessions = SessionStore([session_of([1, 0], sid=1, first_member=90)])
        config = TrainConfig(objective="pointwise", epochs=1)
        with pytest.raises(EvaluationError, match="session 1: member 90 not in profile store"):
            train_ranker(sessions, SessionStore(), profiles, tables, schema, config)

    def test_empty_train_errors(self):
        profiles, _, tables, schema = small_corpus()
        with pytest.raises(RankerError):
            train_ranker(SessionStore(), SessionStore(), profiles, tables, schema, TrainConfig())

    def test_dropout_training_is_deterministic(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=3, seed=8, dropout_rate=0.3,
                             hidden_layers=(6,), batch_size=2)
        a = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        b = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        assert np.array_equal(a.net.final_w, b.net.final_w)


class TestDataset:
    def test_pairs_are_mined_for_a_pairwise_objective_only(self):
        profiles, sessions, tables, schema = small_corpus()
        pairwise = _build_dataset(sessions, profiles, tables, schema, pairwise=True)
        pointwise = _build_dataset(sessions, profiles, tables, schema, pairwise=False)
        assert pairwise.pairs.tobytes() == reference_pairs(sessions).tobytes()
        assert pairwise.pairs.shape[0] > 0
        assert pointwise.pairs.shape == (0, 2)
        assert pointwise.X.tobytes() == pairwise.X.tobytes()
        assert pointwise.block.labels.tobytes() == pairwise.block.labels.tobytes()


class TestScore:
    def test_zero_parameter_net_scores_zero(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=0, seed=0, hidden_layers=())
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        model.net.final_w[:] = 0.0
        q = sessions[1].query
        assert make_scorer(model, tables)(q, profiles[0]) == 0.0

    def test_matches_forward_of_assembled_features(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=2, seed=2, hidden_layers=(4,))
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        q = sessions[1].query
        x = feature_row(q, profiles[1], tables, schema)
        expected = mlp_forward(model.net, x[None, :])[0]
        assert make_scorer(model, tables)(q, profiles[1]) == expected

    def test_score_differences_shift_invariant(self):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=1, seed=2, hidden_layers=(4,))
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        q = sessions[1].query
        scorer = make_scorer(model, tables)
        s0 = scorer(q, profiles[0])
        s1 = scorer(q, profiles[1])
        # ranking depends only on differences; adding a constant head-room
        # to both leaves the gap unchanged
        assert (s0 + 5.0) - (s1 + 5.0) == pytest.approx(s0 - s1, abs=1e-12)

    def test_unknown_member_errors(self):
        profiles, sessions, tables, schema = small_corpus()
        unknown = SessionStore([session_of([1], sid=9, first_member=77)])
        with pytest.raises(EvaluationError, match="session 9: member 77 not in profile store"):
            _build_dataset(unknown, profiles, tables, schema, pairwise=True)


def random_world(rng, n_members=1000, n_skills=40, dim=9):
    """Members with random skill bags (some empty, some holding skills the
    table lacks) and headlines, and a skill table with random vectors."""
    words = ["java", "sales", "design", "python", "lead", "data"]
    table = skill_table({i: rng.randn(dim) for i in range(n_skills - 5)})
    profiles = []
    for mid in range(n_members):
        skills = rng.choice(n_skills, size=rng.randint(0, 5), replace=False).tolist()
        headline = " ".join(rng.choice(words, size=rng.randint(0, 4)).tolist())
        profiles.append(member(mid, skills=skills, headline=headline))
    return profiles, {"skill": table}


class TestBatchInvariance:
    """A row scores bit-identically alone, in any batch size and any order."""

    @pytest.mark.parametrize("schema", [
        FeatureSchema(embedding_namespaces=("skill",)),
        FeatureSchema(embedding_namespaces=("skill",), embedding_measures=("dot", "cosine"),
                      include_hadamard=True, embedding_dim=9),
    ], ids=["dot", "dot_cosine_hadamard"])
    def test_forward_rows_independent_of_batch(self, schema):
        """build_features then mlp_forward, the path of make_scorer and
        the service's second pass."""
        assert schema.width % 2 == 1
        rng = np.random.RandomState(schema.width)
        profiles, tables = random_world(rng)
        model = RankingModel(schema, init_mlp(schema.width, (100, 100, 100), "relu", seed=1),
                             "pairwise_hinge", 1, 0)
        block = MemberBlock(profiles, tables)
        query = Query(keywords="java lead", facet_skills=frozenset({sk(1), sk(2), sk(38)}))
        pools_q = query_pools(query, tables, schema)

        def scores(rows):
            return mlp_forward(model.net, build_features(query, block, rows, pools_q, schema))

        alone = np.array([scores([r])[0] for r in range(len(profiles))])
        for n in (1, 2, 3, 7, 64, 129, 500, 999, 1000):
            rows = rng.permutation(len(profiles))[:n]
            assert scores(rows).tobytes() == alone[rows].tobytes(), n
        scorer = make_scorer(model, tables)
        assert [scorer(query, p) for p in profiles] == alone.tolist()

    def test_make_scorer_rows_match_one_row_calls(self):
        schema = FeatureSchema(embedding_namespaces=("skill",), embedding_measures=("dot", "cosine"))
        rng = np.random.RandomState(12)
        profiles, tables = random_world(rng, n_members=300)
        model = RankingModel(schema, init_mlp(schema.width, (30, 30), "relu", seed=2),
                             "pairwise_hinge", 2, 0)
        scorer = make_scorer(model, tables)
        queries = [Query(keywords="java", facet_skills=frozenset({sk(1), sk(2)})),
                   Query(keywords="data lead"),
                   Query(facet_skills=frozenset({sk(3), sk(37)}))]
        for trial in range(20):
            n = rng.randint(1, 120)
            # runs of a query, as replay passes sessions; members may repeat
            qs = [queries[i] for i in np.sort(rng.randint(len(queries), size=n))]
            if trial % 2:
                qs = [queries[i] for i in rng.randint(len(queries), size=n)]
            ps = [profiles[i] for i in rng.randint(len(profiles), size=n)]
            got = scorer(qs, ps)
            assert got.shape == (n,)
            assert got.tobytes() == np.array([scorer(q, p) for q, p in zip(qs, ps)]).tobytes()


def schema_edit(**changes):
    """A model-file edit that sets `changes` on the default schema line."""
    fields = {"embedding_dim": 0, "embedding_measures": ["dot"], "embedding_namespaces": [],
              "include_hadamard": False, **changes}
    return lambda lines: [*lines[:4], "schema " + json.dumps(fields), *lines[5:]]


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pairwise_hinge", epochs=2, seed=4, hidden_layers=(5, 3))
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        path = tmp_path / "model.txt"
        model.save(str(path))
        loaded = RankingModel.load(str(path))
        assert loaded.objective == "pairwise_hinge"
        assert loaded.schema == schema
        assert loaded.epochs_run == model.epochs_run
        path2 = tmp_path / "model2.txt"
        loaded.save(str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_scores(self, tmp_path):
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pointwise", epochs=2, seed=4, hidden_layers=(5,))
        model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
        path = tmp_path / "model.txt"
        model.save(str(path))
        loaded = RankingModel.load(str(path))
        scorer = make_scorer(loaded, tables)
        value = scorer(sessions[1].query, profiles[0])
        assert np.isfinite(value)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], "expected a 'objective' line"),
        (lambda lines: [lines[0], "objective bogus", *lines[2:]], "unknown objective 'bogus'"),
        (lambda lines: [lines[0], lines[1], "sed 4", *lines[3:]], "expected a 'seed' line"),
        (lambda lines: [*lines[:4], "schemas" + lines[4][6:], *lines[5:]],
         "expected a 'schema' line"),
        # the schema line of a file written while the syntactic layout was configurable
        (lambda lines: [*lines[:4], 'schema {"embedding_dim": 0, "embedding_measures": ["dot"], '
                        '"embedding_namespaces": [], "include_coverage": true, '
                        '"include_hadamard": false, "jaccard_namespaces": ["skill", "title", '
                        '"company"], "use_keyword_trigrams": true}', *lines[5:]],
         "malformed model file .*schema must set exactly the fields"),
        # a schema line that leaves fields out does not take their defaults
        (lambda lines: [*lines[:4], 'schema {"embedding_measures": ["dot"], '
                        '"embedding_namespaces": ["skill"]}', *lines[5:]],
         "malformed model file .*schema must set exactly the fields"),
        (lambda lines: [*lines[:4], "schema []", *lines[5:]],
         "malformed model file .*schema must set exactly the fields"),
        (lambda lines: [*lines[:3], "epochs_run -3", *lines[4:]], "epochs_run must be >= 0"),
        (lambda lines: [*lines[:6], lines[6].replace("layer 0 ", "layer 9 "), *lines[7:]],
         "expected 'layer 0 <activation> <out> 4', got 'layer 9 relu 3 4'"),
        # each schema field, by wrong value and by wrong type
        (schema_edit(embedding_namespaces=["skill", "skill"]),
         r"expected distinct values of .*got \('skill', 'skill'\)"),
        (schema_edit(embedding_namespaces=["skills"]), r"got \('skills',\)"),
        (schema_edit(embedding_namespaces="skill"),
         "embedding_namespaces must be a list, got 'skill'"),
        (schema_edit(embedding_namespaces=3), "embedding_namespaces must be a list, got 3"),
        (schema_edit(embedding_measures={"dot": 1}),
         r"embedding_measures must be a list, got \{'dot': 1\}"),
        (schema_edit(embedding_measures=["dot", "dot"]), r"got \('dot', 'dot'\)"),
        (schema_edit(embedding_measures=[["dot"]]), r"got \(\['dot'\],\)"),
        (schema_edit(include_hadamard="false"), "include_hadamard must be a bool, got 'false'"),
        (schema_edit(include_hadamard=1), "include_hadamard must be a bool, got 1"),
        (schema_edit(embedding_dim=True), "embedding_dim must be an int >= 0.*got True"),
        (schema_edit(embedding_dim=-4), "embedding_dim must be an int >= 0.*got -4"),
        (schema_edit(embedding_dim=3.5, include_hadamard=True),
         "embedding_dim must be an int >= 0.*got 3.5"),
        (schema_edit(embedding_dim="4"), "embedding_dim must be an int >= 0.*got '4'"),
        # the width is arithmetic: a huge dim is refused without building anything
        (schema_edit(embedding_namespaces=["skill"], include_hadamard=True, embedding_dim=10**12),
         f"expected 'layer 0 <activation> <out> {4 + 3 + 10**12}'"),
        (lambda lines: [*lines, "final_w 1 2 3", "junk"],
         "line 13: unexpected line after the end: 'final_w 1 2 3'"),
    ], ids=["swapped", "bad_objective", "bad_seed_key", "bad_schema_key", "removed_schema_keys",
            "missing_schema_keys", "schema_not_an_object", "negative_epochs_run",
            "layer_index", "repeated_namespace", "unknown_namespace", "namespaces_as_string",
            "namespaces_as_int", "measures_as_object", "repeated_measure", "measure_as_list",
            "hadamard_as_string", "hadamard_as_int", "dim_as_bool", "negative_dim", "dim_as_float",
            "dim_as_string", "huge_dim", "trailing_lines"])
    def test_header_lines_are_checked_by_key_and_value(self, tmp_path, edit, message):
        schema = FeatureSchema()
        path = tmp_path / "model.txt"
        RankingModel(schema, init_mlp(schema.width, (3,), "relu", 0), "pointwise", 0, 0).save(
            str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        error = call_within(lambda: RankingModel.load(str(path)), 5.0)
        assert isinstance(error, RankerError), repr(error)
        assert re.search(message, str(error)), str(error)

    def test_reload_is_a_fixed_point(self, tmp_path):
        """load(save(load(x))) scores every row as load(x) does, bit for bit."""
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pairwise_hinge", epochs=2, seed=4, hidden_layers=(5, 3))
        path, again = tmp_path / "model.txt", tmp_path / "again.txt"
        train_ranker(sessions, SessionStore(), profiles, tables, schema, config).save(str(path))
        loaded = RankingModel.load(str(path))
        loaded.save(str(again))
        reloaded = RankingModel.load(str(again))
        queries = [s.query for s in sessions for _ in profiles]
        members = [p for _ in sessions for p in profiles]
        assert (make_scorer(reloaded, tables)(queries, members).tobytes()
                == make_scorer(loaded, tables)(queries, members).tobytes())


    def test_fuzzed_files_load_or_raise_typed_error(self, tmp_path):
        # 100 seeded mutations of a saved model: each loads or raises
        # RankerError (CLI exit 2), within 5 s
        profiles, sessions, tables, schema = small_corpus()
        config = TrainConfig(objective="pairwise_hinge", epochs=1, seed=4, hidden_layers=(3,))
        path = tmp_path / "model.txt"
        train_ranker(sessions, SessionStore(), profiles, tables, schema, config).save(str(path))
        original = path.read_bytes()
        for seed in range(100):
            path.write_bytes(mutate(original, np.random.RandomState(seed)))
            error = call_within(lambda: RankingModel.load(str(path)), 5.0)
            assert error is None or isinstance(error, RankerError), (seed, repr(error))


class TestEarlyStopping:
    def test_best_on_validation_returned(self):
        profiles, all_sessions, tables, schema = small_corpus()
        _, sessions, oracle = synth_corpus(
            SynthConfig(members=60, sessions=30, impressions_per_session=6), seed=6)
        profiles2, _, _ = synth_corpus(
            SynthConfig(members=60, sessions=30, impressions_per_session=6), seed=6)
        train, valid = time_split(sessions, 0.6)
        config = TrainConfig(objective="pointwise", epochs=6, seed=0,
                             hidden_layers=(8,), early_stop_patience=2)
        model = train_ranker(train, valid, profiles2, {}, FeatureSchema(), config)
        assert 0 < model.epochs_run <= 6

    def test_monitored_prec_is_replay_prec(self, monkeypatch):
        """The Prec@25 early stopping reads at the returned epoch is the one
        replay reports for the returned model, bit for bit."""
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=80, sessions=40, impressions_per_session=30), seed=6)
        train, valid = time_split(sessions, 0.6)
        monitored = []

        def recording(*args, **kwargs):
            monitored.append(rank_sessions(*args, **kwargs))
            return monitored[-1]

        monkeypatch.setattr("talentrank.ranker.rank_sessions", recording)
        config = TrainConfig(objective="pointwise", epochs=6, seed=0, hidden_layers=(8,))
        model = train_ranker(train, valid, profiles, {}, FeatureSchema(), config)
        assert len(monitored) == 6 and len({m.prec_at[25] for m in monitored}) > 1
        assert monitored[model.epochs_run - 1] == replay(make_scorer(model, {}), valid,
                                                         profiles, [25])

    def test_one_session_validation_split_monitors_prec(self, monkeypatch):
        """Any non-empty validation split is monitored by Prec@25."""
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=80, sessions=12, impressions_per_session=30), seed=6)
        train, valid = SessionStore(sessions.sessions()[:-1]), SessionStore(sessions.sessions()[-1:])
        monitored = []

        def recording(*args, **kwargs):
            monitored.append(rank_sessions(*args, **kwargs))
            return monitored[-1]

        monkeypatch.setattr("talentrank.ranker.rank_sessions", recording)
        config = TrainConfig(objective="pairwise_hinge", epochs=4, seed=0, hidden_layers=(8,),
                             early_stop_patience=4)
        model = train_ranker(train, valid, profiles, {}, FeatureSchema(), config)
        assert len(monitored) == 4
        assert monitored[model.epochs_run - 1] == replay(make_scorer(model, {}), valid,
                                                         profiles, [25])
