"""perfbench traces the program through names it looks up from outside
(perfbench/spans.py). A rename in the program breaks those look-ups; these
checks make it fail here instead, without installing any wrapper."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from talentrank import _kernels, search_service

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_targets_resolve(spans):
    """Tracer.install reads each target as owner.__dict__[attr]."""
    targets = spans.layer_targets()
    assert targets
    for owner, attr, name, kind, _ in targets:
        assert attr in owner.__dict__, name
        raw = owner.__dict__[attr]
        if kind == "classmethod":
            assert isinstance(raw, classmethod), name
        else:
            assert inspect.isfunction(raw), name


def test_server_roots_resolve():
    """install_server_roots wraps the handler's own do_GET and do_POST."""
    for attr in ("do_GET", "do_POST"):
        assert inspect.isfunction(search_service._Handler.__dict__.get(attr)), attr


def test_span_attributes_read_the_arguments_they_name():
    """The retrieve span reads args[2] as the limit, the second-pass span
    args[0] as the candidates."""
    assert list(inspect.signature(search_service.retrieve).parameters)[2] == "limit"
    assert list(inspect.signature(search_service.second_pass_rank).parameters)[0] == "candidates"


def test_search_span_attributes_count_candidates(spans, monkeypatch):
    """On a /search, the retrieve span's `candidates` and `budget_full` and
    the second-pass span's `candidates` read the retrieved count through
    len(): of retrieve's result and of second_pass_rank's first argument."""
    from talentrank import corpus, neural, ranker

    attrs = {name: attr for _, _, name, _, attr in spans.layer_targets()}
    profiles, _, _ = corpus.synth_corpus(corpus.SynthConfig(members=40, sessions=1), seed=3)
    block = search_service.build_index(profiles, {})
    schema = ranker.FeatureSchema()
    model = ranker.RankingModel(schema, neural.init_mlp(schema.width, (4,), "relu", 0),
                                "pointwise", 0, 0)
    calls = {}
    for name in ("retrieve", "second_pass_rank"):
        def record(*args, _name=name, _fn=getattr(search_service, name), **kwargs):
            calls[_name] = (args, kwargs, _fn(*args, **kwargs))
            return calls[_name][2]
        monkeypatch.setattr(search_service, name, record)
    for budget, count in ((3, 3), (100, 40)):
        service = search_service.SearchService(block, model, retrieval_budget=budget)
        # keywords only: every member qualifies
        status, body = service.handle_search({"keywords": "x", "k": 2})
        assert status == 200 and len(body["results"]) == 2
        assert len(calls["retrieve"][2]) == count
        assert attrs["search_service.retrieve"](*calls["retrieve"]) == {
            "candidates": count, "budget_full": int(count == budget)}
        assert attrs["search_service.second_pass_rank"](*calls["second_pass_rank"]) == {
            "candidates": count}


def test_ranker_pairs_count_the_mined_pairs(spans):
    """The train_ranker span's `pairs` (spans._count_pairs of the train
    split) is the number of pairs the pairwise objective trains on."""
    from talentrank import corpus, ranker

    profiles, sessions, _ = corpus.synth_corpus(
        corpus.SynthConfig(members=60, sessions=40, impressions_per_session=8), seed=5)
    train, _ = corpus.time_split(sessions, 0.7)
    dataset = ranker._build_dataset(train, profiles, {}, ranker.FeatureSchema(), pairwise=True)
    assert dataset.pairs.shape[0] > 0
    assert spans._count_pairs(train) == dataset.pairs.shape[0]


def test_dssm_groups_count_the_trained_groups(spans, monkeypatch):
    """The train_dssm span's `groups` (the labels summed over args[0]) is
    the number of groups train_dssm trains on, and args[0] is the session
    store."""
    from talentrank import corpus, semantic_match

    attrs = {name: attr for _, _, name, _, attr in spans.layer_targets()}
    assert list(inspect.signature(semantic_match.train_dssm).parameters)[0] == "sessions"
    assert inspect.signature(semantic_match.train_dssm).parameters["sessions"].annotation in (
        corpus.SessionStore, "SessionStore")
    profiles, sessions, _ = corpus.synth_corpus(
        corpus.SynthConfig(members=60, sessions=40, impressions_per_session=8), seed=5)
    built = []

    def record(*args, _fn=semantic_match._build_groups):
        built.append(_fn(*args))
        return built[-1]

    monkeypatch.setattr(semantic_match, "_build_groups", record)
    args = (sessions, profiles, semantic_match.DssmConfig(hidden_layers=(3,), output_dim=2,
                                                          epochs=0))
    model = semantic_match.train_dssm(*args)
    (_, groups), = built
    assert len(groups) > 0
    assert attrs["semantic_match.train_dssm"](args, {}, model) == {"groups": len(groups)}


def test_machine_record_reads_kernel_flag():
    """Every perfbench run's machine record reads _kernels.NUMBA_ENABLED."""
    assert isinstance(_kernels.NUMBA_ENABLED, bool)


def test_embed_check_reads_graph_and_tables():
    """The embed_sampled check compares set(table.vectors) with
    graph.vertices, counts graph.num_edges, and reads each trained table's
    vectors, kind and loss history."""
    from talentrank import corpus, entity_graph, graph_embed

    profiles, _, _ = corpus.synth_corpus(corpus.SynthConfig(members=40, sessions=1), seed=3)
    graph = entity_graph.build_graph(profiles, "skill")
    assert isinstance(graph.vertices, frozenset) and graph.vertices
    assert type(graph.num_edges) is int and graph.num_edges > 0
    config = graph_embed.EmbedConfig(dim=4, epochs=2, mode="sampled", seed=1)
    first = graph_embed.train_first_order(graph, config)
    second, context = graph_embed.train_second_order(graph, config)
    for table, kind in ((first, "first_order"), (second, "second_order_vertex"),
                        (context, "second_order_context")):
        assert table.kind == kind and type(table.vectors) is dict
        assert set(table.vectors) == graph.vertices
        for entity, vector in table.vectors.items():
            assert type(entity) is corpus.EntityId and isinstance(vector, np.ndarray)
            assert vector.shape == (4,) and vector.dtype == np.float64
    for table in (first, second):
        assert len(table.history) == 2 and all(type(x) is float for x in table.history)
    assert context.history is None
