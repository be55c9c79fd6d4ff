import http.client
import json
import socket
import struct
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

from helpers import FUZZ_TOKENS, call_within, mutate, reference_pool
from talentrank.corpus import (
    NAMESPACES,
    CorpusError,
    EntityId,
    Impression,
    MemberProfile,
    ProfileStore,
    Query,
    Session,
    SessionStore,
    SynthConfig,
    load_profiles,
    stream_profiles,
    synth_corpus,
)
from talentrank.evaluation import EvaluationError, replay
from talentrank.graph_embed import EmbeddingTable
from talentrank.neural import TrainConfig, init_mlp
from talentrank.ranker import (
    FeatureSchema, RankerError, RankingModel, make_scorer, query_pools, train_ranker,
)
from talentrank.search_service import (
    MAX_BODY_BYTES,
    SOCKET_TIMEOUT_S,
    Candidates,
    SearchHTTPServer,
    SearchService,
    ServiceError,
    _Handler,
    build_index,
    retrieve,
    second_pass_rank,
)


def sk(i):
    return EntityId("skill", i)


def ti(i):
    return EntityId("title", i)


def member(mid, skills=(), titles=(), headline=""):
    return MemberProfile(
        member_id=mid,
        skills=frozenset(sk(i) for i in skills),
        titles=frozenset(ti(i) for i in titles),
        companies=frozenset(),
        headline_text=headline,
    )


def skill_table(vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, "concat", [sk(i) for i in vectors], list(vectors.values()))


def fixture_world():
    profiles = ProfileStore([
        member(0, skills=[1, 2], titles=[7]),
        member(1, skills=[1], titles=[7]),
        member(2, skills=[2], titles=[8]),
        member(3, skills=[1, 2], titles=[8]),
    ])
    tables = {"skill": skill_table({1: [1.0, 0.0], 2: [0.0, 1.0]})}
    index = build_index(profiles, tables)
    return profiles, tables, index


def trained_model(profiles, tables):
    schema = FeatureSchema(embedding_namespaces=("skill",))
    q = Query(facet_skills=frozenset({sk(1)}))
    sessions = SessionStore([
        Session(1, 100, q, (Impression(0, 1, 0), Impression(2, 0, 1))),
        Session(2, 200, q, (Impression(3, 1, 0), Impression(1, 0, 1))),
    ])
    config = TrainConfig(objective="pointwise", epochs=3, seed=1, hidden_layers=(6,))
    return train_ranker(sessions, SessionStore(), profiles, tables, schema, config)


def candidates_of(index, pairs):
    """retrieve's result for the given (member_id, first_pass_score) pairs."""
    rows = np.array([index.member_ids.index(mid) for mid, _ in pairs], dtype=np.intp)
    return Candidates(index, rows, np.array([first for _, first in pairs]))


def pairs_of(candidates):
    """retrieve's (member_id, first_pass_score) pairs, in its order."""
    member_ids = candidates.block.member_ids
    return list(zip([member_ids[r] for r in candidates.rows.tolist()], candidates.scores.tolist()))


def posting(index, e):
    """The member ids of an entity's postings, in row order."""
    rows = index.postings[e.namespace].get(e, [])
    return [index.member_ids[r] for r in rows]


class TestBuildIndex:
    def test_postings_membership(self):
        profiles, tables, index = fixture_world()
        assert posting(index, sk(1)) == [0, 1, 3]
        assert posting(index, sk(2)) == [0, 2, 3]
        assert posting(index, ti(7)) == [0, 1]
        assert index.sizes[0].tolist() == [2, 1, 1, 2]

    def test_empty_store(self):
        index = build_index(ProfileStore([]), {})
        assert index.member_ids == []
        got = retrieve(index, Query(keywords="java"), limit=10)
        assert len(got) == 0 and pairs_of(got) == []

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    def test_streamed_block_is_byte_identical_to_stored(self, tmp_path, shuffled):
        path = tmp_path / "profiles.jsonl"
        synth_corpus(SynthConfig(members=300, sessions=1), seed=4)[0].save(str(path))
        if shuffled:
            lines = path.read_text().splitlines(keepends=True)
            np.random.RandomState(0).shuffle(lines)
            path.write_text("".join(lines))
        rng = np.random.RandomState(1)
        # ids 50..59 have no vector, so some coverage is below 1
        tables = {ns: EmbeddingTable(3, "concat", [EntityId(ns, i) for i in range(50)],
                                     rng.randn(50, 3))
                  for ns in ("skill", "title")}
        stored = build_index(load_profiles(str(path)), tables)
        streamed = build_index(stream_profiles(str(path)), tables)
        assert streamed.member_ids == stored.member_ids == list(range(300))
        assert streamed.sizes.tobytes() == stored.sizes.tobytes()
        assert streamed.postings.keys() == stored.postings.keys()
        for space, postings in stored.postings.items():
            assert streamed.postings[space].keys() == postings.keys()
            for key, rows in postings.items():
                assert streamed.postings[space][key].dtype == rows.dtype == np.intp
                assert streamed.postings[space][key].tobytes() == rows.tobytes(), (space, key)
        assert streamed.pools.keys() == stored.pools.keys() == {"skill", "title"}
        for ns, (vectors, coverage) in stored.pools.items():
            assert streamed.pools[ns][0].tobytes() == vectors.tobytes()
            assert streamed.pools[ns][1].tobytes() == coverage.tobytes()

    def test_repeated_member_id_is_refused(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        profiles = [member(3, skills=[1]), member(5, skills=[2]), member(4), member(5)]
        path.write_text("".join(json.dumps(ProfileStore._record(p)) + "\n" for p in profiles))
        with pytest.raises(CorpusError, match="^duplicate member_id 5$"):
            build_index(stream_profiles(str(path)), {})
        with pytest.raises(CorpusError, match="^duplicate member_id 5$"):
            build_index(profiles, {})

    def test_unknown_namespace_is_refused(self):
        table = EmbeddingTable(2, "concat", [sk(1)], [[1.0, 0.0]])
        with pytest.raises(CorpusError, match="unknown namespace 'bogus'"):
            build_index(ProfileStore([]), {"bogus": table})
        with pytest.raises(CorpusError, match="unknown namespace 'bogus'"):
            build_index(fixture_world()[0], {"skill": table, "bogus": table})

    def test_forward_pool_matches_offline_pool(self):
        profiles, tables, index = fixture_world()
        assert index.tables.keys() == index.pools.keys() == {"skill"}
        vecs, covs = index.pools["skill"]
        assert vecs.shape == (len(profiles), 2) and covs.shape == (len(profiles),)
        for row, mid in enumerate(index.member_ids):
            vec, cov = vecs[row], covs[row]
            expected_vec, expected_cov = reference_pool(profiles[mid].skills, tables["skill"])
            assert vec.tobytes() == expected_vec.tobytes()
            assert cov == expected_cov


class TestRetrieve:
    def test_and_across_namespaces(self):
        _, _, index = fixture_world()
        q = Query(facet_skills=frozenset({sk(1)}), facet_titles=frozenset({ti(7)}))
        got = {mid for mid, _ in pairs_of(retrieve(index, q, limit=10))}
        assert got == {0, 1}

    def test_or_within_namespace_and_match_fraction(self):
        _, _, index = fixture_world()
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        scored = dict(pairs_of(retrieve(index, q, limit=10)))
        assert scored[0] == 1.0 and scored[3] == 1.0
        assert scored[1] == 0.5 and scored[2] == 0.5

    def test_tie_breaks_by_member_id(self):
        _, _, index = fixture_world()
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        top = retrieve(index, q, limit=1)
        assert pairs_of(top) == [(0, 1.0)]

    def test_keywords_only_scans_all(self):
        _, _, index = fixture_world()
        got = pairs_of(retrieve(index, Query(keywords="java"), limit=10))
        assert [mid for mid, _ in got] == [0, 1, 2, 3]
        assert all(score == 0.0 for _, score in got)

    def test_unconstrained_refused(self):
        _, _, index = fixture_world()
        bogus = object.__new__(Query)
        object.__setattr__(bogus, "keywords", "")
        object.__setattr__(bogus, "facet_skills", frozenset())
        object.__setattr__(bogus, "facet_titles", frozenset())
        object.__setattr__(bogus, "facet_companies", frozenset())
        with pytest.raises(ServiceError, match="unconstrained"):
            retrieve(index, bogus, limit=10)

    def test_soundness_and_completeness_on_random_corpora(self):
        rng = np.random.RandomState(0)
        for seed in range(20):
            profiles, _, _ = synth_corpus(
                SynthConfig(members=40, sessions=5, entities_per_cluster=5), seed=seed)
            index = build_index(profiles, {})
            facet = frozenset({sk(int(rng.randint(10))), sk(int(rng.randint(10)))})
            title_facet = frozenset({ti(int(rng.randint(10)))})
            q = Query(facet_skills=facet, facet_titles=title_facet)
            got = {mid for mid, _ in pairs_of(retrieve(index, q, limit=len(profiles)))}
            expected = {
                p.member_id for p in profiles
                if p.skills & facet and p.titles & title_facet
            }
            assert got == expected
            for mid in got:
                assert profiles[mid].skills & facet
                assert profiles[mid].titles & title_facet

    def test_matches_set_reference_for_every_facet_combination(self):
        rng = np.random.RandomState(11)
        for seed in range(8):
            synth, _, _ = synth_corpus(
                SynthConfig(members=200, sessions=2, entities_per_cluster=6), seed=seed)
            # member ids out of step with their order, so rows must map back to ids
            ids = rng.permutation(len(synth)) * 3 + 1
            profiles = ProfileStore(
                MemberProfile(int(ids[p.member_id]), p.skills, p.titles, p.companies,
                              p.headline_text) for p in synth)
            index = build_index(profiles, {})
            for mask in range(8):  # 0: keywords only
                facets = [frozenset(EntityId(ns, int(x)) for x in
                                    rng.choice(14, size=rng.randint(1, 4), replace=False))
                          if mask >> i & 1 else frozenset() for i, ns in enumerate(NAMESPACES)]
                query = Query("java", *facets)
                for limit in (1, 7, 1000):  # small limits cut through tied scores
                    got = retrieve(index, query, limit)
                    expected = reference_retrieve(profiles, query, limit)
                    assert len(got) == len(expected), (seed, mask, limit)
                    got = pairs_of(got)
                    assert got == expected, (seed, mask, limit)
                    assert all(type(mid) is int and type(first) is float
                               for mid, first in got)


def reference_retrieve(profiles, query, limit):
    """retrieve by set arithmetic over every profile."""
    active = [ns for ns in NAMESPACES if query.facet(ns)]
    scored = []
    for p in profiles:
        if all(query.facet(ns) & p.entities(ns) for ns in active):
            score = 0.0
            for ns in active:
                score += len(query.facet(ns) & p.entities(ns)) / len(query.facet(ns))
            scored.append((p.member_id, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:limit]


SKILL_SCHEMA = FeatureSchema(embedding_namespaces=("skill",))


class TestQueryEmbedding:
    def test_single_entity_facet(self):
        profiles, tables, index = fixture_world()
        q = Query(facet_skills=frozenset({sk(1)}))
        vec, cov = query_pools(q, tables, SKILL_SCHEMA)["skill"]
        assert np.array_equal(vec, tables["skill"][sk(1)])
        assert cov == 1.0

    def test_empty_facet_zero_vector(self):
        profiles, tables, index = fixture_world()
        q = Query(keywords="x")
        vec, cov = query_pools(q, tables, SKILL_SCHEMA)["skill"]
        assert not vec.any() and cov == 0.0

    def test_matches_offline_pool_bit_exact(self):
        profiles, tables, index = fixture_world()
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        vec, cov = query_pools(q, tables, SKILL_SCHEMA)["skill"]
        expected_vec, expected_cov = reference_pool(q.facet_skills, tables["skill"])
        assert vec.tobytes() == expected_vec.tobytes() and cov == expected_cov


class TestSecondPass:
    def test_single_candidate_returned(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        q = Query(facet_skills=frozenset({sk(1)}))
        results = second_pass_rank(candidates_of(index, [(1, 1.0)]), q, model, index, k=5)
        assert len(results) == 1 and results[0][0] == 1

    def test_matches_offline_scoring_bit_exact(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        scorer = make_scorer(model, tables)
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        candidates = retrieve(index, q, limit=10)
        for mid, second, first in second_pass_rank(candidates, q, model, index, k=10):
            assert second == scorer(q, profiles[mid])

    def test_equal_scores_order_by_member_id(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        # members 0 and 3 have identical skill sets, so identical features
        results = second_pass_rank(candidates_of(index, [(0, 1.0), (3, 1.0)]), q, model,
                                   index, k=2)
        assert results[0][1] == results[1][1]
        assert [r[0] for r in results] == [0, 3]

    def test_schema_mismatch_errors(self):
        """A model whose schema the index's tables do not fit is refused
        when the service is built, not on each request."""
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        with pytest.raises(ServiceError, match="no embedding table for namespace 'skill'"):
            SearchService(build_index(profiles, {}), model)

    def test_hadamard_dim_mismatch_errors(self):
        profiles, tables, index = fixture_world()
        schema = FeatureSchema(embedding_namespaces=("skill",), include_hadamard=True,
                               embedding_dim=3)
        model = RankingModel(schema, init_mlp(schema.width, (4,), "relu", 0), "pointwise", 0, 0)
        with pytest.raises(ServiceError, match="has dim 2, schema expects 3"):
            SearchService(index, model)


class TestTopK:
    """second_pass_rank and handle_search return exactly the first k of the
    full (score desc, member_id asc) order of make_scorer's scores."""

    @staticmethod
    def twin_world():
        synth, _, _ = synth_corpus(
            SynthConfig(members=40, sessions=1, entities_per_cluster=5), seed=2)
        # each member has a twin with the same entities, so scores tie across member ids
        profiles = ProfileStore([*synth, *(
            MemberProfile(p.member_id + 100, p.skills, p.titles, p.companies, p.headline_text)
            for p in synth)])
        skills = sorted({e for p in synth for e in p.skills})
        tables = {"skill": EmbeddingTable(4, "concat", skills,
                                          np.random.RandomState(3).randn(len(skills), 4))}
        schema = FeatureSchema(embedding_namespaces=("skill",))
        model = RankingModel(schema, init_mlp(schema.width, (8,), "relu", 0), "pointwise", 0, 0)
        return profiles, tables, model, build_index(profiles, tables)

    def test_top_k_is_a_prefix_of_the_full_order(self):
        profiles, tables, model, index = self.twin_world()
        service = SearchService(index, model)
        scorer = make_scorer(model, tables)
        request = {"keywords": "data", "facet_skills": [0, 1]}
        q = Query(keywords="data", facet_skills=frozenset({sk(0), sk(1)}))
        candidates = retrieve(index, q, limit=1000)
        full = sorted(((mid, scorer(q, profiles[mid]), first)
                       for mid, first in pairs_of(candidates)),
                      key=lambda t: (-t[1], t[0]))
        assert len(full) >= 4
        # some k cuts between two members of equal score
        assert any(full[k - 1][1] == full[k][1] for k in range(1, len(full)))
        for k in range(1, len(full) + 3):  # k at and above the candidate count too
            assert second_pass_rank(candidates, q, model, index, k) == full[:k], k
            status, body = service.handle_search({**request, "k": k})
            assert status == 200
            assert body["results"] == [
                {"member_id": mid, "score": score, "first_pass_score": first}
                for mid, score, first in full[:k]], k

    def test_zero_candidates(self):
        _, _, model, index = self.twin_world()
        q = Query(facet_skills=frozenset({sk(999)}))
        candidates = retrieve(index, q, limit=1000)
        assert len(candidates) == 0
        assert second_pass_rank(candidates, q, model, index, 5) == []
        assert SearchService(index, model).handle_search(
            {"facet_skills": [999], "k": 5}) == (200, {"results": []})

    def test_k_below_one_refused(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        q = Query(facet_skills=frozenset({sk(1)}))
        with pytest.raises(ServiceError, match="k must be >= 1"):
            second_pass_rank(retrieve(index, q, limit=10), q, model, index, 0)


class TestHandleSearch:
    def make_service(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        return profiles, tables, SearchService(index, model)

    def test_valid_request(self):
        _, _, service = self.make_service()
        status, body = service.handle_search(
            {"keywords": "", "facet_skills": [1, 2], "facet_titles": [],
             "facet_companies": [], "k": 25})
        assert status == 200
        results = body["results"]
        assert 0 < len(results) <= 25
        scores = [r["score"] for r in results]
        assert scores == sorted(scores, reverse=True)
        assert set(results[0]) == {"member_id", "score", "first_pass_score"}

    def test_k_larger_than_candidates(self):
        _, _, service = self.make_service()
        status, body = service.handle_search({"facet_skills": [1], "k": 100})
        assert status == 200
        assert len(body["results"]) == 3  # members 0, 1, 3 hold skill 1

    def test_k_truncates(self):
        _, _, service = self.make_service()
        status, body = service.handle_search({"facet_skills": [1, 2], "k": 1})
        assert status == 200 and len(body["results"]) == 1

    def test_no_match_is_success_with_empty_results(self):
        _, _, service = self.make_service()
        status, body = service.handle_search({"facet_skills": [999], "k": 5})
        assert status == 200 and body["results"] == []

    def test_id_beyond_int64_matches_nothing(self):
        _, _, service = self.make_service()
        status, body = service.handle_search({"facet_skills": [2**70], "k": 5})
        assert status == 200 and body["results"] == []

    def test_unconstrained_is_error_response(self):
        _, _, service = self.make_service()
        status, body = service.handle_search(
            {"keywords": "", "facet_skills": [], "k": 5})
        assert status == 400 and "error" in body

    def test_non_finite_scores_are_refused(self):
        profiles, _, service = self.make_service()
        big = {"skill": skill_table({1: [1e200, 1e200], 2: [1e200, -1e200]})}
        service = SearchService(build_index(profiles, big), service.model)
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        with pytest.raises(RankerError, match="finite"):
            second_pass_rank(retrieve(service.block, q, 1000), q, service.model,
                             service.block, 3)
        status, body = service.handle_search({"facet_skills": [1, 2], "k": 3})
        assert status == 500 and body == {"error": "scores must be finite to rank candidates"}
        # replay refuses the same scores
        sessions = SessionStore([Session(1, 100, q, (Impression(0, 1, 0), Impression(2, 0, 1)))])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EvaluationError, match="finite"):
            replay(make_scorer(service.model, big), sessions, profiles, ks=[1])

    def test_malformed_requests(self):
        _, _, service = self.make_service()
        assert service.handle_search({"facet_skills": [1]})[0] == 400  # missing k
        assert service.handle_search({"facet_skills": [1], "k": 0})[0] == 400
        assert service.handle_search({"facet_skills": "oops", "k": 5})[0] == 400
        assert service.handle_search({"facet_skills": [1], "k": 5, "zzz": 1})[0] == 400
        assert service.handle_search([1, 2])[0] == 400

    def test_distinct_keyword_bodies_leave_no_memory_behind(self):
        # bodies of ~100 KB of distinct keywords: nothing of them is kept
        # once answered, so a long-running serve does not grow with them
        _, _, service = self.make_service()
        rng = np.random.RandomState(0)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
        bodies = [{"keywords": " ".join(map("".join, rng.choice(letters, size=(11_000, 8)))),
                   "facet_skills": [1], "k": 5} for _ in range(21)]
        assert service.handle_search(bodies.pop())[0] == 200
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for body in bodies:
                assert service.handle_search(body)[0] == 200
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 4 * 2**20, grown

    def test_parity_with_offline_replay_scores(self):
        profiles, tables, service = self.make_service()
        status, body = service.handle_search({"facet_skills": [1, 2], "k": 10})
        assert status == 200
        scorer = make_scorer(service.model, tables)
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        for row in body["results"]:
            assert row["score"] == scorer(q, profiles[row["member_id"]])


class TestHttpServer:
    @pytest.fixture()
    def server(self):
        profiles, tables, index = fixture_world()
        model = trained_model(profiles, tables)
        server = SearchHTTPServer(SearchService(index, model), port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.shutdown()
        server.server_close()

    def post(self, server, payload, path="/search"):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def test_health(self, server):
        with urllib.request.urlopen(f"http://127.0.0.1:{server.port}/health") as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"status": "ok"}

    def test_search_round_trip_preserves_scores(self, server):
        status, body = self.post(server, {"facet_skills": [1, 2], "k": 3})
        assert status == 200
        profiles, tables, _ = fixture_world()
        scorer = make_scorer(server.service.model, tables)
        q = Query(facet_skills=frozenset({sk(1), sk(2)}))
        for row in body["results"]:
            # JSON float round-trip is exact for repr-printed doubles
            assert row["score"] == scorer(q, profiles[row["member_id"]])

    def test_error_paths(self, server):
        status, body = self.post(server, {"k": 5})
        assert status == 400 and "error" in body
        status, body = self.post(server, {"facet_skills": [1], "k": 5}, path="/nope")
        assert status == 404 and "error" in body
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/search", data=b"not json", method="POST")
        try:
            with urllib.request.urlopen(req) as resp:
                status = resp.status
        except urllib.error.HTTPError as e:
            status = e.code
        assert status == 400

    def test_keep_alive_requests_answer_without_delayed_ack_wait(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=3)
        body = json.dumps({"facet_skills": [1, 2], "k": 3})
        times = []
        try:
            for _ in range(11):
                start = time.perf_counter()
                conn.request("POST", "/search", body)
                resp = conn.getresponse()
                resp.read()
                times.append(time.perf_counter() - start)
                assert resp.status == 200
        finally:
            conn.close()
        # a response held back for the client's delayed ACK takes >= 40 ms
        assert sorted(times)[5] < 0.02, times

    def raw_post(self, server, content_length):
        """Send headers only and return the status line, or fail after 3 s."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            sock.sendall(f"POST /search HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {content_length}\r\n\r\n".encode())
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        return reply.split(b"\r\n", 1)[0].decode()

    @pytest.mark.parametrize("content_length,status", [
        ("-1", 400), ("abc", 400), ("1.5", 400), ("1_0", 400), ("+5", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_content_length_refused_without_read(self, server, content_length, status):
        assert self.raw_post(server, content_length).split()[1] == str(status)

    def only_response(self, server, data):
        """Send raw bytes and read to EOF: the status and JSON body of the
        one response the server wrote, which must be all it wrote."""
        reply = b""
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            sock.sendall(data)
            while chunk := sock.recv(65536):  # socket.timeout after 3 s fails the test
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *fields = head.split(b"\r\n")
        lengths = [int(f.split(b":", 1)[1]) for f in fields
                   if f.lower().startswith(b"content-length:")]
        assert lengths == [len(body)], reply
        return int(status_line.split()[1]), json.loads(body)

    BODY = json.dumps({"facet_skills": [1, 2], "k": 3}).encode()

    def test_chunked_body_refused_with_one_response(self, server):
        chunked = f"{len(self.BODY):x}\r\n".encode() + self.BODY + b"\r\n0\r\n\r\n"
        status, payload = self.only_response(
            server, b"POST /search HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + chunked)
        assert status == 411 and "Transfer-Encoding" in payload["error"]

    def test_body_without_length_refused_with_one_response(self, server):
        status, payload = self.only_response(
            server, b"POST /search HTTP/1.1\r\nHost: x\r\n\r\n" + self.BODY)
        assert status == 411 and "Content-Length" in payload["error"]

    def test_post_to_unknown_path_answered_once(self, server):
        # keep-alive: the body left unread must not be read as a next request
        status, payload = self.only_response(
            server, b"POST /nope HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(self.BODY)}\r\n\r\n".encode() + self.BODY)
        assert status == 404 and "/nope" in payload["error"]

    def test_conflicting_lengths_refused_with_one_response(self, server):
        head = b"POST /search HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        n = len(self.BODY)
        status, payload = self.only_response(
            server, head + f"Content-Length: {n}\r\nContent-Length: {n + 1}\r\n\r\n".encode()
            + self.BODY + b" ")
        assert status == 400 and "conflicting" in payload["error"]
        # the same length twice frames the body as one does
        status, payload = self.only_response(
            server, head + f"Content-Length: {n}\r\nContent-Length: {n}\r\n\r\n".encode()
            + self.BODY)
        assert status == 200 and payload["results"]

    def test_get_with_a_body_is_answered_once_then_closed(self, server):
        # the body is never read, so it must not be parsed as a next request
        smuggled = b"GET /nope HTTP/1.1\r\n\r\n"
        status, payload = self.only_response(
            server, b"GET /health HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(smuggled)}\r\n\r\n".encode() + smuggled)
        assert status == 200 and payload == {"status": "ok"}
        chunked = f"{len(smuggled):x}\r\n".encode() + smuggled + b"\r\n0\r\n\r\n"
        status, payload = self.only_response(
            server, b"GET /health HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + chunked)
        assert status == 200 and payload == {"status": "ok"}

    @pytest.mark.parametrize("headers", [{}, {"Content-Length": "0"}])
    def test_get_without_a_body_keeps_the_connection(self, server, headers):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=3)
        try:
            for _ in range(2):
                conn.request("GET", "/health", headers=headers)
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read()) == {"status": "ok"}
                assert not resp.will_close
        finally:
            conn.close()

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS", "BREW"])
    def test_other_methods_are_405_then_closed(self, server, method):
        status, payload = self.only_response(
            server, f"{method} /search HTTP/1.1\r\nHost: x\r\n".encode()
            + f"Content-Length: {len(self.BODY)}\r\n\r\n".encode() + self.BODY)
        assert status == 405 and method in payload["error"]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=3)
        try:
            conn.request(method, "/health")
            resp = conn.getresponse()
            assert resp.getheader("Allow") == "GET, POST"
            assert resp.getheader("Content-Type") == "application/json"
            assert resp.will_close
        finally:
            conn.close()

    def test_head_is_405_with_headers_only(self, server):
        reply = b""
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            sock.sendall(b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n")
            while chunk := sock.recv(65536):  # socket.timeout after 3 s fails the test
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *fields = head.decode("latin-1").split("\r\n")
        assert status_line.split()[1] == "405" and body == b""
        assert "Allow: GET, POST" in fields and "Connection: close" in fields

    def test_non_finite_scores_are_a_json_500(self, server):
        profiles, _, _ = fixture_world()
        big = skill_table({1: [1e200, 1e200], 2: [1e200, -1e200]})
        server.service = SearchService(build_index(profiles, {"skill": big}),
                                       server.service.model)
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/search", data=self.BODY, method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(req)
        assert caught.value.code == 500
        # strict JSON (RFC 8259): NaN and Infinity are not numbers
        payload = json.loads(caught.value.read(), parse_constant=pytest.fail)
        assert "finite" in payload["error"]

    def test_short_body_connection_closed_after_timeout(self, server, monkeypatch):
        # the served timeout is finite, and far above a keep-alive client's pauses
        assert _Handler.timeout == SOCKET_TIMEOUT_S >= 10.0
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=3)
        try:
            conn.request("POST", "/search", json.dumps({"facet_skills": [1, 2], "k": 3}))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200 and not resp.will_close
            # same keep-alive connection: the body stops 8 bytes short
            start = time.monotonic()
            conn.sock.sendall(b"POST /search HTTP/1.1\r\nHost: x\r\n"
                              b"Content-Length: 10\r\n\r\n{}")
            reply = b""
            while True:
                chunk = conn.sock.recv(4096)  # socket.timeout after 3 s fails the test
                if not chunk:
                    break
                reply += chunk
            elapsed = time.monotonic() - start
        finally:
            conn.close()
        assert reply == b"" or reply.split()[1] == b"408"
        assert elapsed < 0.5 + 1.5

    def test_client_reset_is_one_stderr_line(self, server, capsys):
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            client_port = sock.getsockname()[1]
            sock.sendall(b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{")
            time.sleep(0.2)  # the handler now waits for the rest of the body
            # linger on with a zero timeout: close sends RST, not FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        err = ""
        deadline = time.monotonic() + 5
        while "\n" not in err and time.monotonic() < deadline:
            time.sleep(0.02)
            err += capsys.readouterr().err
        time.sleep(0.1)
        err += capsys.readouterr().err
        assert err == (f"talentrank serve: client 127.0.0.1:{client_port} dropped the "
                       "connection (ConnectionResetError)\n")

    def test_other_handler_errors_keep_the_traceback(self, server, capsys):
        try:
            raise ValueError("boom")
        except ValueError:
            server.handle_error(None, ("127.0.0.1", 5))
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: boom" in err and "127.0.0.1" in err

    def exchange(self, server, data):
        """Send raw bytes; the status of the first reply, or None when the
        server closes the connection without one."""
        reply = b""
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            try:
                sock.sendall(data)
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass
        return int(reply.split(b" ", 2)[1]) if reply else None

    def test_deeply_nested_body_is_400(self, server):
        body = b"[" * 100_000 + b"]" * 100_000
        assert len(body) <= MAX_BODY_BYTES
        status = self.exchange(server, b"POST /search HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                               + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        assert status == 400
        assert self.post(server, {"facet_skills": [1, 2], "k": 3})[0] == 200

    def test_fuzzed_requests_get_4xx_or_close(self, server, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.1)
        escaped = []  # exceptions that left a handler
        monkeypatch.setattr(server, "handle_error",
                            lambda request, address: escaped.append(sys.exc_info()[1]))
        rng = np.random.RandomState(0)
        body = json.dumps({"keywords": "java", "facet_skills": [1, 2], "k": 3}).encode()
        statuses = []
        for case in range(100):
            kind = ("body", "headers", "short")[case % 3]
            head = ["Host: x", "Content-Type: application/json",
                    f"Content-Length: {len(body)}", "Connection: close"]
            sent = body
            if kind == "body":
                sent = mutate(body, rng)
                head[2] = f"Content-Length: {len(sent)}"
            elif kind == "headers":
                for _ in range(rng.randint(1, 3)):
                    op, k = rng.randint(3), rng.randint(len(head))
                    if op == 0:
                        del head[k]  # a missing header
                    elif op == 1:  # a duplicated header, its value maybe changed
                        value = ["0", "-1", "abc", "1_0", str(len(body) + 9), "9" * 30][rng.randint(6)]
                        head.insert(k, head[k] if rng.randint(2) else f"Content-Length: {value}")
                    else:  # a garbage line
                        head.insert(k, FUZZ_TOKENS[rng.randint(len(FUZZ_TOKENS))].decode("latin-1"))
                    if not head:
                        break
            else:
                sent = body[:rng.randint(len(body))]
            block = "\r\n".join(head).encode("latin-1")
            if kind == "headers" and rng.randint(2):
                block = mutate(block, rng)
            data = b"POST /search HTTP/1.1\r\n" + block + b"\r\n\r\n" + sent
            got = []
            assert call_within(lambda: got.append(self.exchange(server, data)), 5) is None, case
            status = got[0]
            statuses.append(status)
            if kind == "short":
                assert status in (None, 408), (case, status)
            else:  # a mutation that leaves the request valid is answered 200
                assert status is None or status == 200 or 400 <= status < 500, (case, status, data)
            assert self.post(server, {"facet_skills": [1, 2], "k": 3})[0] == 200, case
        assert escaped == []
        assert sum(s is not None and 400 <= s < 500 for s in statuses) >= 30
