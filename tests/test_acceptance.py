"""Acceptance suite: one test per criterion, at the stated tolerances and
runtime bounds. The conftest hook prints a PASS/FAIL line per criterion."""

import json
import math
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from helpers import brute_force_replay, quantized_scorer, random_corpus
from talentrank.cli import run
from talentrank.corpus import (
    EntityId,
    Query,
    SessionStore,
    SynthConfig,
    synth_corpus,
    time_split,
)
from talentrank.entity_graph import (
    WeightedGraph,
    build_graph,
    empirical_first_order,
    empirical_second_order,
)
from talentrank.evaluation import replay
from talentrank.graph_embed import (
    EmbedConfig,
    concat_embeddings,
    train_first_order,
    train_second_order,
    _logsumexp,
)
from talentrank.neural import (
    TrainConfig,
    add_grads,
    gradient_check,
    init_mlp,
    mlp_backward,
    mlp_forward_batch,
    pairwise_loss,
    pointwise_loss,
)
from talentrank.ranker import FeatureSchema, make_scorer, train_ranker
from talentrank.search_service import (
    SearchHTTPServer,
    SearchService,
    build_index,
    retrieve,
)
from talentrank.semantic_match import (
    DssmConfig,
    dssm_scorer,
    train_dssm,
    word_hash,
)


def ent(i, ns="skill"):
    return EntityId(ns, i)


def graph_from(weights, ns="skill"):
    verts = set()
    edges = {}
    for (a, b), w in weights.items():
        va, vb = ent(a, ns), ent(b, ns)
        verts.update((va, vb))
        edges[(va, vb)] = w
    return WeightedGraph(ns, verts, edges)


def test_c01_closed_form_losses():
    """1. closed-form loss values (ln 2, hinge points) within 1e-9"""
    start = time.time()
    loss, _ = pointwise_loss([0.0], [1.0])
    assert abs(loss - math.log(2.0)) <= 1e-9
    assert abs(pairwise_loss(0.0, "hinge")[0] - 1.0) <= 1e-9
    assert abs(pairwise_loss(2.0, "hinge")[0]) <= 1e-9
    assert abs(pairwise_loss(0.0, "logistic")[0] - math.log(2.0)) <= 1e-9
    assert time.time() - start < 1.0


def _fd_max_rel(value_fn, grads, params, step=1e-5):
    max_rel = 0.0
    for arr, grad in zip(params, grads):
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            f_plus = value_fn()
            arr.flat[idx] = orig - step
            f_minus = value_fn()
            arr.flat[idx] = orig
            numeric = (f_plus - f_minus) / (2 * step)
            analytic = grad.flat[idx]
            max_rel = max(max_rel, abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)))
    return max_rel


def test_c02_gradient_suites():
    """2. gradient checks (MLP both objectives, O1, O2, DSSM) < 1e-4"""
    start = time.time()

    # MLP, pointwise objective
    rng = np.random.RandomState(0)
    X = rng.randn(4, 5)
    y = rng.randint(0, 2, size=4).astype(float)
    for seed in range(20):
        model = init_mlp(5, (6, 6), "relu", seed=seed)
        margins = []
        h = X
        for layer in model.layers:
            z = h @ layer.weight.T + layer.bias
            margins.append(np.min(np.abs(z)))
            h = np.maximum(0.0, z)
        if min(margins) > 1e-3:  # probes avoid relu kinks
            break

    def pointwise_objective(m):
        scores, cache = mlp_forward_batch(m, X)
        loss, grads = pointwise_loss(scores, y)
        return loss, mlp_backward(m, cache, grads)

    assert gradient_check(model, pointwise_objective) < 1e-4

    # MLP, pairwise hinge objective away from the kink
    for seed in range(30):
        tanh_model = init_mlp(5, (6, 6, 6), "tanh", seed=seed)
        rng2 = np.random.RandomState(200 + seed)
        x_pos, x_neg = rng2.randn(5), rng2.randn(5)
        sp, _ = mlp_forward_batch(tanh_model, x_pos[None, :])
        sn, _ = mlp_forward_batch(tanh_model, x_neg[None, :])
        if abs(float(sp[0] - sn[0]) - 1.0) > 1e-3:
            break

    def hinge_objective(m):
        sp, cache_p = mlp_forward_batch(m, x_pos[None, :])
        sn, cache_n = mlp_forward_batch(m, x_neg[None, :])
        f, df = pairwise_loss(float(sp[0] - sn[0]), "hinge")
        return f, add_grads(mlp_backward(m, cache_p, np.array([df])),
                            mlp_backward(m, cache_n, np.array([-df])))

    assert gradient_check(tanh_model, hinge_objective) < 1e-4

    # first-order embedding objective (exact mode)
    from talentrank.graph_embed import _o1_gradient, _o1_value

    g = graph_from({(0, 1): 2, (1, 2): 1, (0, 2): 4, (2, 3): 3})
    verts = g.order
    ei, ej, w = g.ei, g.ej, g.w
    phat = w / g.total_weight
    emb = np.random.RandomState(7).randn(len(verts), 5) * 0.3
    assert _fd_max_rel(lambda: _o1_value(emb, ei, ej, phat),
                       [_o1_gradient(emb, ei, ej, phat)], [emb]) < 1e-4

    # second-order embedding objective (exact mode)
    from talentrank.graph_embed import _neighbor_distribution, _o2_gradient, _o2_value

    lam, phat2 = g.degree, _neighbor_distribution(g)
    U = np.random.RandomState(8).randn(len(verts), 4) * 0.3
    C = np.random.RandomState(9).randn(len(verts), 4) * 0.3
    gu, gc = _o2_gradient(U, C, lam, phat2)
    assert _fd_max_rel(lambda: _o2_value(U, C, lam, phat2), [gu, gc], [U, C]) < 1e-4

    # full DSSM loss (tanh arms + softmax over negatives)
    from talentrank.corpus import MemberProfile, ProfileStore
    from talentrank.semantic_match import (
        TrigramVocabulary,
        build_entity_vocabs,
        init_dssm,
        _group_loss_and_grads,
    )

    trigrams = TrigramVocabulary.build(["java", "sales"])
    profiles = ProfileStore([
        MemberProfile(1, frozenset({ent(10)}), frozenset(), frozenset(), "java"),
        MemberProfile(2, frozenset({ent(11)}), frozenset({EntityId("title", 5)}),
                      frozenset(), "sales"),
    ])
    vocabs = build_entity_vocabs(profiles, SessionStore())
    dssm = init_dssm(trigrams, vocabs, DssmConfig(hidden_layers=(5, 4), output_dim=3, seed=3))
    rng3 = np.random.RandomState(5)
    q_row = rng3.rand(dssm.input_width)
    doc_rows = rng3.rand(3, dssm.input_width)
    _, q_grads, d_grads = _group_loss_and_grads(dssm, q_row, doc_rows, 10.0)
    params, grads = [], []
    for arm, arm_grads in ((dssm.query_arm, q_grads), (dssm.doc_arm, d_grads)):
        for layer, (dw, db) in zip(arm, arm_grads):
            params.extend([layer.weight, layer.bias])
            grads.extend([dw, db])
    assert _fd_max_rel(lambda: _group_loss_and_grads(dssm, q_row, doc_rows, 10.0)[0], grads,
                       params) < 1e-4

    assert time.time() - start < 30.0


def test_c03_empirical_distributions():
    """3. empirical distributions match hand-counted fixtures, sum to 1"""
    g = graph_from({(0, 1): 2, (1, 2): 3, (2, 3): 5})
    probs = empirical_first_order(g)
    assert probs[(ent(0), ent(1))] == 0.2
    assert probs[(ent(1), ent(2))] == 0.3
    assert probs[(ent(2), ent(3))] == 0.5
    assert abs(sum(probs.values()) - 1.0) <= 1e-12

    g2 = graph_from({(0, 1): 1, (1, 2): 3})
    cond = empirical_second_order(g2, ent(1))
    assert cond[ent(0)] == 0.25
    assert cond[ent(2)] == 0.75
    assert abs(sum(cond.values()) - 1.0) <= 1e-12
    for v in g.vertices:
        assert abs(sum(empirical_second_order(g, v).values()) - 1.0) <= 1e-12


def test_c04_first_order_structure_recovery():
    """4. barbell graph: intra-clique cosine gap >= 0.2, O1 nonincreasing"""
    start = time.time()
    verts = [ent(i) for i in range(8)]
    edges = {}
    for a, b in combinations(range(4), 2):
        edges[(verts[a], verts[b])] = 10
    for a, b in combinations(range(4, 8), 2):
        edges[(verts[a], verts[b])] = 10
    edges[(verts[3], verts[4])] = 1
    graph = WeightedGraph("skill", verts, edges)
    table = train_first_order(graph, EmbedConfig(seed=1))

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    intra, inter = [], []
    for a, b in combinations(range(8), 2):
        c = cos(table[ent(a)], table[ent(b)])
        (intra if (a < 4) == (b < 4) else inter).append(c)
    assert np.mean(intra) - np.mean(inter) >= 0.2
    hist = table.history
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
    assert time.time() - start < 60.0


def test_c05_second_order_distributional_recovery():
    """5. identical-neighborhood vertices reach TV <= 0.05 after training"""
    start = time.time()
    g = graph_from({
        (0, 2): 3, (1, 2): 3, (0, 3): 1, (1, 3): 1,
        (4, 5): 2, (2, 4): 1, (3, 5): 1,
    })
    assert len(g.vertices) <= 10
    vt, ct = train_second_order(g, EmbedConfig(seed=1))
    verts = g.order
    U = np.array([vt[v] for v in verts])
    C = np.array([ct[v] for v in verts])
    logits = U @ C.T
    rows = np.exp(logits - _logsumexp(logits, axis=1)[:, None])
    tv = 0.5 * float(np.abs(rows[0] - rows[1]).sum())
    assert tv <= 0.05
    assert time.time() - start < 60.0


def test_c06_word_hashing():
    """6. word hashing produces the exact published trigram sets"""
    assert word_hash("java") == Counter({"#ja": 1, "jav": 1, "ava": 1, "va#": 1})
    assert word_hash("ab") == Counter({"#ab": 1, "ab#": 1})
    assert word_hash("a") == Counter({"#a#": 1})


def test_c07_replay_oracle_equivalence():
    """7. replay equals the brute-force oracle on 100 random corpora"""
    for seed in range(100):
        rng = np.random.RandomState(seed)
        profiles, sessions = random_corpus(rng, max_sessions=20, max_impressions=10)
        scorer = quantized_scorer(seed)
        metrics = replay(scorer, sessions, profiles, ks=[1, 5])
        expected_prec, expected_auc = brute_force_replay(
            quantized_scorer(seed), sessions, profiles, ks=[1, 5])
        assert metrics.prec_at == expected_prec
        if expected_auc is None:
            assert metrics.auc is None
        else:
            assert metrics.auc == expected_auc


RANKER_CORPUS = SynthConfig(
    clusters=2, members=600, sessions=2000, impressions_per_session=10,
    entities_per_cluster=30, entities_per_member=4, facet_size=2,
    noise=0.1, p_match_same=0.8, p_match_other=0.05,
)


def _trained_prec(objective, seed, profiles, splits, schema, tables, ks, epochs=8):
    train, valid, test = splits
    config = TrainConfig(objective=objective, learning_rate=0.05, epochs=epochs,
                         batch_size=256, seed=seed, hidden_layers=(100, 100, 100),
                         early_stop_patience=3)
    model = train_ranker(train, valid, profiles, tables, schema, config)
    metrics = replay(make_scorer(model, tables), test, profiles, ks=ks)
    return {k: metrics.prec_at[k] for k in ks}


def test_c08_pairwise_beats_pointwise_direction():
    """8. pairwise-hinge Prec@5 >= pointwise in >= 70% of 20 seeds"""
    start = time.time()
    wins = 0
    for seed in range(20):
        profiles, sessions, _ = synth_corpus(RANKER_CORPUS, seed)
        train, test = time_split(sessions, 0.7)
        tr, va = time_split(train, 0.8)
        schema = FeatureSchema()
        pointwise = _trained_prec("pointwise", seed, profiles, (tr, va, test), schema, {}, [5])
        pairwise = _trained_prec("pairwise_hinge", seed, profiles, (tr, va, test), schema, {}, [5])
        if pairwise[5] >= pointwise[5]:
            wins += 1
    assert wins >= 14, f"pairwise won only {wins}/20 seeds"
    assert time.time() - start < 600.0


EMB_CORPUS = SynthConfig(
    clusters=2, members=500, sessions=2000, impressions_per_session=30,
    entities_per_cluster=30, entities_per_member=4, facet_size=2,
    noise=0.1, p_match_same=0.8, p_match_other=0.05,
)


def test_c09_embedding_feature_direction():
    """9. adding emb_dot improves held-out Prec@25 in >= 70% of 20 seeds"""
    start = time.time()
    wins = 0
    for seed in range(20):
        profiles, sessions, _ = synth_corpus(EMB_CORPUS, seed)
        train, test = time_split(sessions, 0.7)
        tr, va = time_split(train, 0.8)
        tables = {}
        for ns in ("skill", "title"):
            graph = build_graph(profiles, ns)
            first = train_first_order(graph, EmbedConfig(dim=50, epochs=200, seed=1000 + seed))
            second, _ = train_second_order(graph, EmbedConfig(dim=50, epochs=200, seed=1001 + seed))
            tables[ns] = concat_embeddings(first, second)
        syntactic = _trained_prec("pointwise", seed, profiles, (tr, va, test),
                                  FeatureSchema(), {}, [25], epochs=6)
        schema = FeatureSchema(embedding_namespaces=("skill", "title"),
                               embedding_measures=("dot",))
        with_emb = _trained_prec("pointwise", seed, profiles, (tr, va, test),
                                 schema, tables, [25], epochs=6)
        if with_emb[25] > syntactic[25]:
            wins += 1
    assert wins >= 14, f"embedding feature improved only {wins}/20 seeds"
    assert time.time() - start < 600.0


def test_c10_dssm_separation():
    """10. DSSM held-out AUC >= 0.8 at seed 1, epoch losses nonincreasing"""
    start = time.time()
    cfg = SynthConfig(clusters=2, members=300, sessions=400, impressions_per_session=8,
                      entities_per_cluster=20, entities_per_member=4, facet_size=2,
                      noise=0.1, p_match_same=0.8, p_match_other=0.05)
    profiles, sessions, _ = synth_corpus(cfg, seed=1)
    train, test = time_split(sessions, 0.7)
    model = train_dssm(train, profiles, DssmConfig(
        hidden_layers=(200, 100), output_dim=50, similarity="cosine", gamma=10.0,
        negatives=4, learning_rate=0.05, epochs=8, batch_size=16, seed=1))
    metrics = replay(dssm_scorer(model), test, profiles, ks=[5])
    assert metrics.auc is not None and metrics.auc >= 0.8
    hist = model.history
    assert all(hist[i + 1] <= hist[i] + 1e-3 for i in range(1, len(hist) - 1))
    assert time.time() - start < 300.0


def test_c11_service_parity_and_soundness():
    """11. online scores match offline bit-exactly; filters sound and complete"""
    # soundness + completeness on 100 random corpora
    rng = np.random.RandomState(42)
    for trial in range(100):
        profiles, _, _ = synth_corpus(
            SynthConfig(members=30, sessions=2, entities_per_cluster=5,
                        impressions_per_session=4), seed=trial)
        index = build_index(profiles, {})
        facet = frozenset({ent(int(rng.randint(10)))})
        title_facet = frozenset({EntityId("title", int(rng.randint(10)))})
        query = Query(facet_skills=facet, facet_titles=title_facet)
        got = {index.member_ids[r] for r in retrieve(index, query, limit=len(profiles)).rows}
        expected = {p.member_id for p in profiles
                    if p.skills & facet and p.titles & title_facet}
        assert got == expected
        for mid in got:
            assert profiles[mid].skills & facet and profiles[mid].titles & title_facet

    # online/offline parity on a trained model
    profiles, sessions, _ = synth_corpus(
        SynthConfig(members=80, sessions=40, impressions_per_session=6,
                    entities_per_cluster=8), seed=3)
    tables = {}
    for ns in ("skill", "title"):
        graph = build_graph(profiles, ns)
        tables[ns] = train_first_order(graph, EmbedConfig(dim=8, epochs=50, seed=4))
    schema = FeatureSchema(embedding_namespaces=("skill", "title"),
                           embedding_measures=("dot", "cosine"))
    config = TrainConfig(objective="pairwise_hinge", epochs=2, seed=5, hidden_layers=(16,))
    model = train_ranker(sessions, SessionStore(), profiles, tables, schema, config)
    index = build_index(profiles, tables)
    service = SearchService(index, model)
    scorer = make_scorer(model, tables)
    checked = 0
    for session in sessions:
        q = session.query
        request = {
            "keywords": q.keywords,
            "facet_skills": sorted(e.id for e in q.facet_skills),
            "facet_titles": sorted(e.id for e in q.facet_titles),
            "facet_companies": sorted(e.id for e in q.facet_companies),
            "k": 10,
        }
        status, body = service.handle_search(request)
        assert status == 200
        for row in body["results"]:
            assert row["score"] == scorer(q, profiles[row["member_id"]])
            checked += 1
    assert checked > 0

    # health and error paths over real HTTP
    server = SearchHTTPServer(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{server.port}/health") as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"status": "ok"}
        bad = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/search",
            data=json.dumps({"facet_skills": []}).encode(), method="POST")
        try:
            urllib.request.urlopen(bad)
            pytest.fail("missing k should be a 4xx error")
        except urllib.error.HTTPError as e:
            assert e.code == 400
            assert "error" in json.loads(e.read())
    finally:
        server.shutdown()
        server.server_close()


def test_c12_training_commands_deterministic(tmp_path):
    """12. repeated training commands produce byte-identical artifacts"""

    def rerun_identical(args, outputs):
        first = {}
        for trial in ("x", "y"):
            base = tmp_path / trial
            base.mkdir(exist_ok=True)
            paths = {name: str(base / name) for name in outputs}
            argv = [a.format(**paths) for a in args]
            assert run(argv) == 0, argv
            for name in outputs:
                data = open(paths[name], "rb").read()
                if trial == "x":
                    first[name] = data
                else:
                    assert data == first[name], f"{argv[0]} output {name} differs"

    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "9", "--out", str(corpus), "--members", "50",
                "--sessions", "24", "--impressions-per-session", "6",
                "--entities-per-cluster", "8"]) == 0
    corpus2 = tmp_path / "corpus2"
    assert run(["synth", "--seed", "9", "--out", str(corpus2), "--members", "50",
                "--sessions", "24", "--impressions-per-session", "6",
                "--entities-per-cluster", "8"]) == 0
    for name in ("profiles.jsonl", "sessions.jsonl", "oracle.json"):
        assert (corpus / name).read_bytes() == (corpus2 / name).read_bytes()

    graph = tmp_path / "skill.graph"
    assert run(["build-graph", "--profiles", str(corpus / "profiles.jsonl"),
                "--namespace", "skill", "--out", str(graph)]) == 0

    rerun_identical(
        ["train-embed", "--graph", str(graph), "--namespace", "skill", "--order", "concat",
         "--dim", "4", "--epochs", "25", "--seed", "3", "--out", "{emb}"],
        ["emb"],
    )
    rerun_identical(
        ["train-embed", "--graph", str(graph), "--namespace", "skill", "--order", "first",
         "--mode", "sampled", "--dim", "4", "--epochs", "10", "--learning-rate", "0.05",
         "--seed", "3", "--out", "{emb}"],
        ["emb"],
    )
    rerun_identical(
        ["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
         "--sessions", str(corpus / "sessions.jsonl"), "--arch", "8",
         "--output-dim", "4", "--epochs", "2", "--negatives", "2", "--seed", "2",
         "--out", "{model}"],
        ["model"],
    )
    rerun_identical(
        ["train-ranker", "--profiles", str(corpus / "profiles.jsonl"),
         "--sessions", str(corpus / "sessions.jsonl"), "--objective", "pairwise_hinge",
         "--hidden", "8", "--epochs", "2", "--dropout", "0.2", "--seed", "4",
         "--out", "{model}"],
        ["model"],
    )
