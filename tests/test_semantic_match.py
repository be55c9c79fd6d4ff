import json
from collections import Counter

import numpy as np
import pytest

from talentrank.corpus import (
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
from talentrank.evaluation import SessionBlock, replay
from talentrank.neural import NeuralError, layers_forward
from talentrank.semantic_match import (
    DssmConfig,
    DssmModel,
    SemanticError,
    TrigramVocabulary,
    build_entity_vocabs,
    dssm_scorer,
    export_embeddings,
    init_dssm,
    input_rows,
    train_dssm,
    word_hash,
    _build_groups,
    _group_loss_and_grads,
)
from helpers import call_within, mutate, random_store, reference_groups


class TestWordHash:
    def test_java_boundary_trigrams(self):
        assert word_hash("java") == Counter({"#ja": 1, "jav": 1, "ava": 1, "va#": 1})

    def test_two_letter_token(self):
        assert word_hash("ab") == Counter({"#ab": 1, "ab#": 1})

    def test_single_letter_token(self):
        assert word_hash("a") == Counter({"#a#": 1})

    def test_empty_text(self):
        assert word_hash("") == Counter()

    def test_lowercasing_and_splitting(self):
        assert word_hash("Java AB") == word_hash("java ab")
        assert word_hash("java ab") == word_hash("java") + word_hash("ab")

    def test_multiset_semantics(self):
        doubled = word_hash("java java")
        assert doubled["jav"] == 2

    def test_token_of_length_n_gives_n_trigrams(self):
        for token in ("x", "xy", "xyz", "alphabet"):
            assert sum(word_hash(token).values()) == len(token)


def tiny_vocabs():
    trigrams = TrigramVocabulary.build(["java", "sales"])
    profiles = ProfileStore([
        MemberProfile(1, frozenset({EntityId("skill", 10)}), frozenset(), frozenset(), "java"),
        MemberProfile(2, frozenset({EntityId("skill", 11)}),
                      frozenset({EntityId("title", 5)}), frozenset(), "sales"),
    ])
    entity_vocabs = build_entity_vocabs(profiles, SessionStore())
    return trigrams, entity_vocabs, profiles


def single_row(trigrams, vocabs, text, entities=()):
    """The one input row of (text, entities)."""
    [x] = input_rows([(text, entities)], trigrams, vocabs)
    return x


def one_hot(model, e):
    """The input that sets only e's indicator, placed by hand: the trigram
    columns, then each namespace's vocabulary in NAMESPACES order."""
    before = NAMESPACES[:NAMESPACES.index(e.namespace)]
    x = np.zeros(model.input_width)
    x[model.trigram_vocab.size + sum(len(model.entity_vocabs[ns]) for ns in before)
      + model.entity_vocabs[e.namespace][e]] = 1.0
    return x


class TestBuildInput:
    """input_rows, the one writer of DSSM input rows."""

    def test_known_trigrams_and_entity(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "java", {EntityId("skill", 10)})
        trigram_block = x[: trigrams.size]
        entity_block = x[trigrams.size :]
        assert trigram_block.sum() == 4  # four trigrams of "java"
        assert entity_block.sum() == 1

    def test_empty_input_is_zero(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "")
        assert not x.any()

    def test_unknown_entity_ignored(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "", {EntityId("skill", 999)})
        assert not x.any()

    def test_unknown_trigrams_dropped(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "zzzz")
        assert not x.any()

    def test_layout_order_trigrams_then_namespaces(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "", {EntityId("title", 5)})
        title_offset = trigrams.size + len(vocabs["skill"])
        assert x[title_offset + vocabs["title"][EntityId("title", 5)]] == 1.0
        assert x.sum() == 1.0

    def test_repeated_trigrams_count(self):
        trigrams, vocabs, _ = tiny_vocabs()
        x = single_row(trigrams, vocabs, "java Java")
        assert x[trigrams.index["jav"]] == 2.0 and x.sum() == 8

    def test_rows_of_one_call_equal_rows_encoded_alone(self):
        trigrams, vocabs, _ = tiny_vocabs()
        rows = [("java", {EntityId("skill", 10)}), ("", ()), ("sales zzz", {EntityId("title", 5)}),
                ("java", {EntityId("skill", 11), EntityId("skill", 999)}), ("java", ())]
        X = input_rows(iter(rows), trigrams, vocabs)
        assert X.shape == (len(rows), trigrams.size + sum(len(v) for v in vocabs.values()))
        assert X.tobytes() == np.array([single_row(trigrams, vocabs, *row) for row in rows]).tobytes()
        assert input_rows([], trigrams, vocabs).shape == (0, X.shape[1])


def zero_dssm(trigrams, vocabs, hidden=(6,), out=4, similarity="cosine"):
    model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=hidden, output_dim=out,
                                                   similarity=similarity))
    for arm in (model.query_arm, model.doc_arm):
        for layer in arm:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
    return model


def headline_member(mid, headline, skills=()):
    return MemberProfile(mid, frozenset(EntityId("skill", i) for i in skills), frozenset(),
                         frozenset(), headline)


class TestDssmForward:
    """The arms and the similarity, scored through dssm_scorer."""

    def test_zero_parameters_cosine_zero(self):
        trigrams, vocabs, profiles = tiny_vocabs()
        scorer = dssm_scorer(zero_dssm(trigrams, vocabs))
        assert scorer([Query(keywords="java")], [profiles[1]]).tolist() == [0.0]

    def test_identical_arms_and_inputs_cosine_one(self):
        trigrams, vocabs, profiles = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(6,), output_dim=4, seed=1))
        for ql, dl in zip(model.query_arm, model.doc_arm):
            dl.weight[:] = ql.weight
            dl.bias[:] = ql.bias
        # the query's input equals member 1's: headline "java", skill 10
        query = Query(keywords="java", facet_skills=frozenset({EntityId("skill", 10)}))
        [sim] = dssm_scorer(model)([query], [profiles[1]])
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_dot_scales_with_final_layer(self):
        trigrams, vocabs, _ = tiny_vocabs()
        model = init_dssm(trigrams, vocabs,
                          DssmConfig(hidden_layers=(6,), output_dim=4, similarity="dot", seed=2))
        query, member = Query(keywords="java"), headline_member(3, "sales")
        # use small outputs so tanh(z) ~ z and scaling the doc arm's last
        # layer scales the dot product near-linearly
        for arm in (model.query_arm, model.doc_arm):
            for layer in arm:
                layer.weight *= 0.01
                layer.bias[:] = 0.0
        [base] = dssm_scorer(model)([query], [member])
        model.doc_arm[-1].weight *= 2.0
        [doubled] = dssm_scorer(model)([query], [member])
        assert doubled == pytest.approx(2.0 * base, rel=1e-3)

    def test_cosine_bounded(self):
        trigrams, vocabs, profiles = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(5,), output_dim=3, seed=4))
        words = ["java", "sales", "jav", "les", ""]
        queries = [Query(keywords=f"{a} {b}", facet_skills=frozenset(
                   EntityId("skill", i) for i in (10, 11)[:k]))
                   for a in words for b in words for k in range(3)]
        members = [profiles[1], profiles[2], headline_member(3, "java sales", (10, 11))]
        pairs = [(q, m) for q in queries for m in members]
        sims = dssm_scorer(model)([q for q, _ in pairs], [m for _, m in pairs])
        assert len(sims) == 225 and np.abs(sims).max() <= 1.0 + 1e-12


class TestDssmGradients:
    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_full_loss_gradient_check(self, similarity):
        trigrams, vocabs, _ = tiny_vocabs()
        model = init_dssm(
            trigrams, vocabs,
            DssmConfig(hidden_layers=(5, 4), output_dim=3, similarity=similarity, seed=3),
        )
        rng = np.random.RandomState(7)
        q_row = rng.rand(model.input_width)
        doc_rows = rng.rand(3, model.input_width)
        gamma = 10.0
        _, q_grads, d_grads = _group_loss_and_grads(model, q_row, doc_rows, gamma)
        step = 1e-5
        max_rel = 0.0
        for arm, grads in ((model.query_arm, q_grads), (model.doc_arm, d_grads)):
            for layer, (dw, db) in zip(arm, grads):
                for arr, grad in ((layer.weight, dw), (layer.bias, db)):
                    for idx in range(arr.size):
                        orig = arr.flat[idx]
                        arr.flat[idx] = orig + step
                        f_plus = _group_loss_and_grads(model, q_row, doc_rows, gamma)[0]
                        arr.flat[idx] = orig - step
                        f_minus = _group_loss_and_grads(model, q_row, doc_rows, gamma)[0]
                        arr.flat[idx] = orig
                        numeric = (f_plus - f_minus) / (2 * step)
                        analytic = grad.flat[idx]
                        rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
                        max_rel = max(max_rel, rel)
        assert max_rel < 1e-4


class TestMiniBatchLoss:
    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_batch_equals_sum_of_single_groups(self, similarity):
        trigrams, vocabs, _ = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(5, 4), output_dim=3,
                                                       similarity=similarity, seed=6))
        rng = np.random.RandomState(11)
        q_rows = rng.rand(6, model.input_width)
        doc_rows = rng.rand(6, 4, model.input_width)
        # a zero input maps to the zero vector under zero-bias tanh arms
        doc_rows[2, 1] = 0.0
        q_rows[4] = 0.0
        loss, q_grads, d_grads = _group_loss_and_grads(model, q_rows, doc_rows, 10.0)
        singles = [_group_loss_and_grads(model, q, d, 10.0) for q, d in zip(q_rows, doc_rows)]
        assert loss == pytest.approx(sum(s[0] for s in singles), rel=1e-12)
        for arm, batch in ((1, q_grads), (2, d_grads)):
            for idx, (dw, db) in enumerate(batch):
                for got, part in ((dw, 0), (db, 1)):
                    want = sum(s[arm][idx][part] for s in singles)
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.all(np.isfinite(q_grads[0][0])) and np.all(np.isfinite(d_grads[0][0]))


class TestTrainDssm:
    def test_requires_positives(self):
        profiles, sessions, _ = synth_corpus(SynthConfig(members=30, sessions=5), seed=0)
        all_negative = SessionStore([
            Session(s.session_id, s.timestamp, s.query,
                    tuple(Impression(i.member_id, 0, i.position) for i in s.impressions))
            for s in sessions
        ])
        with pytest.raises(SemanticError, match="positive"):
            train_dssm(all_negative, profiles, DssmConfig(hidden_layers=(4,), output_dim=2, epochs=1))

    def test_rejects_zero_negatives(self):
        with pytest.raises(SemanticError):
            DssmConfig(negatives=0)

    @pytest.mark.parametrize("field", ["gamma", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma_and_learning_rate(self, field, value):
        with pytest.raises(SemanticError, match="must be finite"):
            DssmConfig(**{field: value})

    def test_rejects_hidden_widths_below_one(self):
        for widths in ((0,), (-1,), (5, 0)):
            with pytest.raises(SemanticError, match="hidden layer widths must be >= 1"):
                DssmConfig(hidden_layers=widths)
        assert DssmConfig(hidden_layers=()).hidden_layers == ()

    def test_nonfinite_gradient_raises(self):
        profiles, sessions, _ = synth_corpus(SynthConfig(members=30, sessions=5), seed=0)
        cfg = DssmConfig(hidden_layers=(4,), output_dim=2, similarity="dot", gamma=1e308, epochs=1)
        with np.errstate(all="ignore"), pytest.raises(NeuralError, match="non-finite"):
            train_dssm(sessions, profiles, cfg)

    def test_deterministic(self):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=40, sessions=10, impressions_per_session=5), seed=2)
        cfg = DssmConfig(hidden_layers=(6,), output_dim=3, epochs=2, seed=5, negatives=2)
        a = train_dssm(sessions, profiles, cfg)
        b = train_dssm(sessions, profiles, cfg)
        for la, lb in zip(a.query_arm + a.doc_arm, b.query_arm + b.doc_arm):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_separates_clusters_on_synthetic_corpus(self):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=120, sessions=80, impressions_per_session=6,
                        entities_per_cluster=8), seed=1)
        train, test = time_split(sessions, 0.7)
        cfg = DssmConfig(hidden_layers=(32,), output_dim=8, epochs=4, seed=1,
                         learning_rate=0.1)
        model = train_dssm(train, profiles, cfg)
        metrics = replay(dssm_scorer(model), test, profiles, ks=[5])
        assert metrics.auc is not None and metrics.auc > 0.6
        assert len(model.history) == 4


class TestBuildGroups:
    def test_matches_reference_on_random_stores(self):
        """The groups, and the rng state they leave, equal reference_groups'
        on random_store corpora, which hold repeated positions, sessions
        with fewer negatives than N and sessions with no positive."""
        seen = Counter()
        for seed in range(200):
            profiles, sessions, _ = random_store(np.random.RandomState(seed))
            config = DssmConfig(negatives=1 + seed % 4)
            block = SessionBlock(sessions, profiles)
            got_rng, want_rng = np.random.RandomState(seed), np.random.RandomState(seed)
            want = reference_groups(sessions, profiles, config, want_rng)
            if want:
                queries, groups = _build_groups(block, profiles.member_ids(), config, got_rng)
                assert list(zip(queries.tolist(), groups)) == want, seed
            else:
                with pytest.raises(SemanticError, match="no positive"):
                    _build_groups(block, profiles.member_ids(), config, got_rng)
            assert all(np.array_equal(a, b)
                       for a, b in zip(got_rng.get_state(), want_rng.get_state())), seed
            for session in sessions:
                labels = [i.label for i in session.impressions]
                positions = [i.position for i in session.impressions]
                seen["repeated_positions"] += len(set(positions)) < len(positions)
                seen["no_positive"] += 1 not in labels
                seen["short_run"] += 1 in labels and labels.count(0) < config.negatives
                seen["full_run"] += 1 in labels and labels.count(0) >= config.negatives
        assert len(seen) == 4 and min(seen.values()) >= 20, seen


class TestDssmScorer:
    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_batched_scores_equal_one_row_scores(self, similarity):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=80, sessions=30, impressions_per_session=6,
                        entities_per_cluster=8), seed=3)
        model = train_dssm(sessions, profiles, DssmConfig(
            hidden_layers=(16,), output_dim=5, similarity=similarity, epochs=1, seed=3))
        scorer = dssm_scorer(model)
        queries = [s.query for s in sessions for _ in s.impressions]
        members = [profiles[i.member_id] for s in sessions for i in s.impressions]
        got = scorer(queries, members)
        assert got.shape == (len(queries),)
        one_row = [scorer([q], [p])[0] for q, p in zip(queries, members)]
        assert got.tobytes() == np.array(one_row).tobytes()

    def test_replay_with_repeated_queries_and_members(self):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=40, sessions=12, impressions_per_session=6,
                        entities_per_cluster=8), seed=5)
        model = train_dssm(sessions, profiles, DssmConfig(
            hidden_layers=(8,), output_dim=4, epochs=1, seed=5))
        # every query recurs in a later session, over the same members reversed
        again = [Session(s.session_id + 1000, s.timestamp, s.query, s.impressions[::-1])
                 for s in sessions]
        block = SessionBlock(SessionStore([*sessions, *again]), profiles)
        assert len(set(block.queries)) < len(block.queries) // 2
        assert len({p.member_id for p in block.members}) < len(block.members) // 2
        scorer = dssm_scorer(model)
        got = scorer(block.queries, block.members)
        for score, query, member in zip(got, block.queries, block.members):
            assert score.tobytes() == scorer([query], [member])[0].tobytes()


class TestExportEmbeddings:
    def test_zero_model_exports_zeros(self):
        trigrams, vocabs, _ = tiny_vocabs()
        model = zero_dssm(trigrams, vocabs)
        tables = export_embeddings(model)
        for ns, table in tables.items():
            for e in table.entity_ids():
                assert not table[e].any()

    def test_export_equals_forward_on_one_hot(self):
        trigrams, vocabs, profiles = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(6,), output_dim=4, seed=9))
        tables = export_embeddings(model)
        e = EntityId("skill", 10)
        x = one_hot(model, e)
        assert np.array_equal(tables["skill"][e], layers_forward(model.query_arm, x[None, :])[0])

    def test_every_row_bit_identical_to_one_row_forward(self):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=200, sessions=40, entities_per_cluster=40), seed=4)
        model = train_dssm(sessions, profiles, DssmConfig(hidden_layers=(32, 16), output_dim=8,
                                                          epochs=1, seed=4))
        tables = export_embeddings(model)
        rows = 0
        for ns, table in tables.items():
            for e in table.entity_ids():
                x = one_hot(model, e)
                q_vec = layers_forward(model.query_arm, x[None, :])[0]
                assert table[e].tobytes() == q_vec.tobytes()
                rows += 1
        assert rows == sum(len(v) for v in model.entity_vocabs.values()) > 50

    def test_exported_tables_feed_ranker_schema(self):
        from talentrank.ranker import FeatureSchema, MemberBlock, build_features, query_pools

        trigrams, vocabs, profiles = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(6,), output_dim=4, seed=9))
        tables = export_embeddings(model)
        schema = FeatureSchema(embedding_namespaces=("skill",),
                               embedding_measures=("dot", "cosine"))
        query = Query(keywords="java", facet_skills=frozenset({EntityId("skill", 10)}))
        x = build_features(query, MemberBlock([profiles[1]], {"skill": tables["skill"]}), [0],
                           query_pools(query, tables, schema), schema)
        assert x.shape == (1, schema.width)
        assert np.all(np.isfinite(x))


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=30, sessions=8, impressions_per_session=4), seed=3)
        cfg = DssmConfig(hidden_layers=(5,), output_dim=3, epochs=1, seed=2, negatives=2)
        model = train_dssm(sessions, profiles, cfg)
        path = tmp_path / "dssm.txt"
        model.save(str(path))
        loaded = DssmModel.load(str(path))
        assert loaded.similarity == model.similarity
        assert loaded.trigram_vocab == model.trigram_vocab
        assert loaded.entity_vocabs == model.entity_vocabs
        path2 = tmp_path / "dssm2.txt"
        loaded.save(str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_every_truncation_is_a_typed_error(self, tmp_path):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=30, sessions=8, impressions_per_session=4), seed=3)
        model = train_dssm(sessions, profiles, DssmConfig(hidden_layers=(3,), output_dim=2,
                                                          epochs=1, seed=2, negatives=2))
        path = tmp_path / "dssm.txt"
        model.save(str(path))
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            cut.write_text("".join(lines[:keep]))
            with pytest.raises(SemanticError):
                DssmModel.load(str(cut))
        for tag, bad in (("gamma", "gamma x\n"), ("trigram_vocab", "trigram_vocab [\n"),
                         ("entity_vocab", 'entity_vocab skill ["a"]\n'),
                         ("query_arm", "query\n"), ("doc_arm", "doc_arms\n")):
            broken = list(lines)
            broken[next(i for i, line in enumerate(lines) if line.split()[0] == tag)] = bad
            cut.write_text("".join(broken))
            with pytest.raises(SemanticError):
                DssmModel.load(str(cut))

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], "expected a 'similarity' line"),
        (lambda lines: [lines[0], "similarity bogus", *lines[2:]],
         "line 2: similarity must be one of .*got 'bogus'"),
        (lambda lines: [*lines[:2], "gamma nan", *lines[3:]],
         "line 3: gamma must be finite and > 0, got nan"),
        (lambda lines: [*lines[:2], "gamma inf", *lines[3:]],
         "line 3: gamma must be finite and > 0, got inf"),
        (lambda lines: [*lines[:2], "gamma 0", *lines[3:]],
         "line 3: gamma must be finite and > 0, got 0.0"),
        (lambda lines: [*lines[:3], "trigram " + lines[3].split(" ", 1)[1], *lines[4:]],
         "expected a 'trigram_vocab' line"),
        (lambda lines: [*lines[:9], lines[9].replace("layer 0 ", "layer 9 "), *lines[10:]],
         "expected 'layer 0 <activation> <out> 12', got 'layer 9 tanh 4 12'"),
        # a trigram vocabulary one entry short no longer fits the arms
        (lambda lines: [*lines[:3], "trigram_vocab " + json.dumps(json.loads(
            lines[3].split(" ", 1)[1])[:-1]), *lines[4:]],
         "expected 'layer 0 <activation> <out> 11', got 'layer 0 tanh 4 12'"),
        # a repeated entry is refused on its own line, whether the arms would
        # fit the vocabulary it leaves (one entry short) or not
        (lambda lines: [*lines[:3], "trigram_vocab " + json.dumps(
            (lambda grams: grams[:1] + grams[:-1])(json.loads(lines[3].split(" ", 1)[1]))),
                        *lines[4:]],
         "line 4: trigram_vocab repeats '#ja'"),
        (lambda lines: [*lines[:4], "entity_vocab skill [10, 10]", *lines[5:]],
         "line 5: entity_vocab skill repeats 10"),
        (lambda lines: [*lines[:3], "trigram_vocab " + json.dumps(
            (lambda grams: grams + grams[:1])(json.loads(lines[3].split(" ", 1)[1]))),
                        *lines[4:]],
         "line 4: trigram_vocab repeats '#ja'"),
        (lambda lines: [*lines[:4], "entity_vocab skill [10, 10, 11]", *lines[5:]],
         "line 5: entity_vocab skill repeats 10"),
        # the doc arm cut to its first layer: it outputs 4 values, the query arm 3
        (lambda lines: [*lines[:lines.index("doc_arm") + 1], "num_layers 1",
                        *lines[lines.index("doc_arm") + 2:lines.index("doc_arm") + 8]],
         r"both arms must map the input width 12 to one output dim; .*\[\(12, 3\), \(12, 4\)\]"),
        (lambda lines: [*lines, "junk"], "line 34: unexpected line after the end: 'junk'"),
    ], ids=["swapped", "bad_similarity", "gamma_nan", "gamma_inf", "gamma_zero", "bad_key",
            "layer_index", "trigram_vocab_short", "trigram_repeats", "entity_repeats",
            "repeated_trigram_vocab", "repeated_entity_vocab", "doc_arm_cut", "trailing_line"])
    def test_header_lines_are_checked_by_key_and_value(self, tmp_path, edit, message):
        trigrams, vocabs, _ = tiny_vocabs()
        path = tmp_path / "dssm.txt"
        init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(4,), output_dim=3, seed=8)).save(
            str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(SemanticError, match=message):
            DssmModel.load(str(path))

    def test_fuzzed_files_load_or_raise_typed_error(self, tmp_path):
        # 100 seeded mutations of a saved model: each loads or raises
        # SemanticError (CLI exit 2), within 5 s
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=30, sessions=8, impressions_per_session=4), seed=3)
        model = train_dssm(sessions, profiles, DssmConfig(hidden_layers=(3,), output_dim=2,
                                                          epochs=1, seed=2, negatives=2))
        path = tmp_path / "dssm.txt"
        model.save(str(path))
        original = path.read_bytes()
        for seed in range(100):
            path.write_bytes(mutate(original, np.random.RandomState(seed)))
            error = call_within(lambda: DssmModel.load(str(path)), 5.0)
            assert error is None or isinstance(error, SemanticError), (seed, repr(error))

    def test_reload_is_a_fixed_point(self, tmp_path):
        """load(save(load(x))) scores and exports as load(x) does, bit for bit."""
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=30, sessions=8, impressions_per_session=4), seed=3)
        cfg = DssmConfig(hidden_layers=(5,), output_dim=3, epochs=1, seed=2, negatives=2)
        path, again = tmp_path / "dssm.txt", tmp_path / "again.txt"
        train_dssm(sessions, profiles, cfg).save(str(path))
        loaded = DssmModel.load(str(path))
        loaded.save(str(again))
        reloaded = DssmModel.load(str(again))
        queries = [s.query for s in sessions for _ in profiles]
        members = [p for _ in sessions for p in profiles]
        assert (dssm_scorer(reloaded)(queries, members).tobytes()
                == dssm_scorer(loaded)(queries, members).tobytes())
        exported, re_exported = export_embeddings(loaded), export_embeddings(reloaded)
        assert all(exported[ns] == re_exported[ns] for ns in exported)

    def test_loaded_model_scores_same_inputs(self, tmp_path):
        trigrams, vocabs, _ = tiny_vocabs()
        model = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(4,), output_dim=3, seed=8))
        path = tmp_path / "dssm.txt"
        model.save(str(path))
        loaded = DssmModel.load(str(path))
        query = Query(keywords="java", facet_skills=frozenset({EntityId("skill", 10)}))
        member = headline_member(3, "sales")
        sim_orig = dssm_scorer(model)([query], [member])
        sim_loaded = dssm_scorer(loaded)([query], [member])
        assert sim_loaded == pytest.approx(sim_orig, abs=1e-8)
