import copy
import pickle

import numpy as np
import pytest

from talentrank.corpus import (
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
    load_sessions,
    synth_corpus,
    time_split,
)
from helpers import call_within, mutate


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadProfiles:
    def test_single_record(self, tmp_path):
        p = write(tmp_path / "p.jsonl",
                  '{"member_id":1,"skills":[10],"titles":[7],"companies":[],"headline":""}\n')
        store = load_profiles(p)
        assert len(store) == 1
        member = store[1]
        assert member.skills == frozenset({EntityId("skill", 10)})
        assert member.titles == frozenset({EntityId("title", 7)})
        assert member.companies == frozenset()
        assert member.headline_text == ""

    def test_empty_file(self, tmp_path):
        store = load_profiles(write(tmp_path / "p.jsonl", ""))
        assert len(store) == 0

    def test_duplicate_member_id(self, tmp_path):
        line = '{"member_id":5,"skills":[],"titles":[],"companies":[],"headline":"x"}\n'
        p = write(tmp_path / "p.jsonl", line + line)
        with pytest.raises(CorpusError, match="5"):
            load_profiles(p)

    def test_malformed_line_names_line_and_field(self, tmp_path):
        p = write(tmp_path / "p.jsonl",
                  '{"member_id":1,"skills":[],"titles":[],"companies":[],"headline":""}\n'
                  '{"member_id":2,"skills":"oops","titles":[],"companies":[],"headline":""}\n')
        with pytest.raises(CorpusError, match="line 2.*skills"):
            load_profiles(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = write(tmp_path / "p.jsonl",
                  '{"member_id":1,"skills":[],"titles":[],"companies":[],"headline":"","x":1}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_profiles(p)

    def test_duplicate_entity_in_list_collapses(self, tmp_path):
        p = write(tmp_path / "p.jsonl",
                  '{"member_id":1,"skills":[3,3],"titles":[],"companies":[],"headline":""}\n')
        assert load_profiles(p)[1].skills == frozenset({EntityId("skill", 3)})


def entity_ids(store):
    """Every EntityId a loaded store holds, one per bag it sits in."""
    for record in store:
        if isinstance(record, Session):
            q = record.query
            yield from (*q.facet_skills, *q.facet_titles, *q.facet_companies)
        else:
            yield from (*record.skills, *record.titles, *record.companies)


class TestInterning:
    @pytest.mark.parametrize("loader", [load_profiles, load_sessions])
    def test_one_load_shares_equal_ids_and_two_loads_do_not(self, tmp_path, loader):
        profiles, sessions, _ = synth_corpus(SynthConfig(members=40, sessions=15), seed=3)
        path = str(tmp_path / "records.jsonl")
        (profiles if loader is load_profiles else sessions).save(path)
        held = {}  # the first object seen for each id
        first = list(entity_ids(loader(path)))
        for e in first:
            assert held.setdefault(e, e) is e
        assert len(first) > len(held) > 1
        for e in entity_ids(loader(path)):
            assert e == held[e] and e is not held[e]


class TestLoadSessions:
    def test_basic_session(self, tmp_path):
        p = write(
            tmp_path / "s.jsonl",
            '{"session_id":1,"timestamp":100,"query":{"keywords":"java","facet_skills":[1],'
            '"facet_titles":[],"facet_companies":[]},"impressions":['
            '{"member_id":1,"label":0,"position":0},'
            '{"member_id":2,"label":1,"position":1},'
            '{"member_id":3,"label":0,"position":2}]}\n',
        )
        store = load_sessions(p)
        assert len(store) == 1
        session = store[1]
        assert sum(i.label for i in session.impressions) == 1

    def test_unknown_member_accepted_at_load(self, tmp_path):
        # referential check against profiles is deferred to feature assembly
        p = write(
            tmp_path / "s.jsonl",
            '{"session_id":1,"timestamp":100,"query":{"keywords":"x","facet_skills":[],'
            '"facet_titles":[],"facet_companies":[]},"impressions":['
            '{"member_id":999,"label":0,"position":0}]}\n',
        )
        assert len(load_sessions(p)) == 1

    def test_empty_impressions_rejected(self, tmp_path):
        p = write(
            tmp_path / "s.jsonl",
            '{"session_id":1,"timestamp":100,"query":{"keywords":"x","facet_skills":[],'
            '"facet_titles":[],"facet_companies":[]},"impressions":[]}\n',
        )
        with pytest.raises(CorpusError):
            load_sessions(p)

    def test_duplicate_member_in_session_rejected(self, tmp_path):
        p = write(
            tmp_path / "s.jsonl",
            '{"session_id":1,"timestamp":100,"query":{"keywords":"x","facet_skills":[],'
            '"facet_titles":[],"facet_companies":[]},"impressions":['
            '{"member_id":7,"label":0,"position":0},{"member_id":7,"label":1,"position":1}]}\n',
        )
        with pytest.raises(CorpusError, match="7"):
            load_sessions(p)


class TestRoundTrip:
    def test_profile_round_trip(self, tmp_path):
        profiles, sessions, _ = synth_corpus(SynthConfig(members=40, sessions=15), seed=3)
        path = tmp_path / "p.jsonl"
        profiles.save(str(path))
        assert load_profiles(str(path)) == profiles
        # saving the reloaded store reproduces the bytes
        again = tmp_path / "p2.jsonl"
        load_profiles(str(path)).save(str(again))
        assert path.read_bytes() == again.read_bytes()

    def test_session_round_trip(self, tmp_path):
        _, sessions, _ = synth_corpus(SynthConfig(members=40, sessions=15), seed=3)
        path = tmp_path / "s.jsonl"
        sessions.save(str(path))
        assert load_sessions(str(path)) == sessions


def make_sessions(timestamps):
    q = Query(keywords="x")
    return SessionStore(
        Session(session_id=i, timestamp=t, query=q,
                impressions=(Impression(member_id=i, label=0, position=0),))
        for i, t in enumerate(timestamps)
    )


class TestTimeSplit:
    def test_seventy_thirty(self):
        sessions = make_sessions(range(10))
        train, test = time_split(sessions, 0.7)
        assert len(train) == 7 and len(test) == 3
        assert max(s.timestamp for s in train) <= min(s.timestamp for s in test)

    def test_single_session_ceiling(self):
        train, test = time_split(make_sessions([5]), 0.5)
        assert len(train) == 1 and len(test) == 0

    def test_tie_break_by_session_id(self):
        q = Query(keywords="x")
        sessions = SessionStore(
            Session(session_id=i, timestamp=100, query=q,
                    impressions=(Impression(member_id=0, label=0, position=0),))
            for i in (3, 1, 2)
        )
        train, test = time_split(sessions, 0.5)
        assert train.session_ids() == [1, 2]
        assert test.session_ids() == [3]

    def test_partition(self):
        sessions = make_sessions([9, 3, 3, 7, 1])
        train, test = time_split(sessions, 0.4)
        assert len(train) + len(test) == len(sessions)
        assert not set(train.session_ids()) & set(test.session_ids())

    def test_bad_fraction(self):
        with pytest.raises(CorpusError):
            time_split(make_sessions([1]), 1.0)
        with pytest.raises(CorpusError):
            time_split(make_sessions([1]), 0.0)


class TestSynthCorpus:
    def test_deterministic(self):
        cfg = SynthConfig(members=50, sessions=20)
        a = synth_corpus(cfg, seed=7)
        b = synth_corpus(cfg, seed=7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_zero_noise_keeps_entities_in_home_cluster(self):
        cfg = SynthConfig(clusters=2, noise=0.0, members=60, sessions=5)
        profiles, _, oracle = synth_corpus(cfg, seed=11)
        for profile in profiles:
            home = oracle.member_home[profile.member_id]
            for ns in ("skill", "title", "company"):
                assert all(oracle.entity_cluster[e] == home for e in profile.entities(ns))

    def test_label_base_rate_matches_oracle(self):
        # binomial check: observed positives within 3 standard errors of the
        # oracle's per-impression probabilities, over >= 10k impressions
        cfg = SynthConfig(members=500, sessions=1000, impressions_per_session=10)
        _, sessions, oracle = synth_corpus(cfg, seed=5)
        expected = 0.0
        variance = 0.0
        observed = 0
        total = 0
        for session in sessions:
            for imp in session.impressions:
                p = oracle.match_probability(imp.member_id, session.session_id)
                expected += p
                variance += p * (1 - p)
                observed += imp.label
                total += 1
        assert total >= 10_000
        assert abs(observed - expected) <= 3 * np.sqrt(variance)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(CorpusError):
            SynthConfig(members=0)
        with pytest.raises(CorpusError):
            SynthConfig(clusters=-1)


class TestInvariants:
    def test_entity_namespace_enforced(self):
        with pytest.raises(CorpusError):
            MemberProfile(member_id=1, skills=frozenset({EntityId("title", 1)}),
                          titles=frozenset(), companies=frozenset())

    def test_query_requires_constraint(self):
        with pytest.raises(CorpusError):
            Query(keywords="")

    def test_label_binary(self):
        with pytest.raises(CorpusError):
            Impression(member_id=1, label=2, position=0)

    def test_store_lookup_errors(self):
        store = ProfileStore([])
        with pytest.raises(KeyError):
            store[42]


class TestEntityId:
    @pytest.mark.parametrize("namespace, id_", [
        ("skills", 1), ("", 1), (None, 1), ("skill", -1), ("title", True), ("company", False),
        ("skill", 1.0), ("skill", "1"), ("skill", None), ("skill", np.int64(1)),
    ])
    def test_bad_namespace_or_id_raises(self, namespace, id_):
        with pytest.raises(CorpusError):
            EntityId(namespace, id_)

    def test_order_and_hash_are_the_pair_s(self):
        rng = np.random.RandomState(0)
        ids = [EntityId(ns, int(i)) for ns in ("skill", "title", "company")
               for i in rng.randint(0, 50, size=20)]
        ids += [EntityId(ns, 2**64 + 3) for ns in ("skill", "company")] + [EntityId("title", 2**63)]
        for _ in range(20):
            rng.shuffle(ids)
            assert sorted(ids) == sorted(ids, key=lambda e: (e.namespace, e.id))
        assert all(hash(e) == hash((e.namespace, e.id)) for e in ids)
        assert EntityId("skill", 2**64 + 3) == ("skill", 2**64 + 3)

    def test_pickle_and_deepcopy_round_trip(self):
        e = EntityId("company", 2**64 + 3)
        copies = [pickle.loads(pickle.dumps(e, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(e), copy.deepcopy(e), *copy.deepcopy(frozenset({e}))]
        for c in copies:
            assert type(c) is EntityId and c == e and (c.namespace, c.id) == ("company", 2**64 + 3)

    def test_repr(self):
        assert repr(EntityId("skill", 7)) == "EntityId(namespace='skill', id=7)"

    def test_read_only(self):
        e = EntityId("skill", 7)
        for name, value in (("id", 8), ("namespace", "title"), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(e, name, value)
        assert e == EntityId("skill", 7)


class TestLoaderFuzz:
    @pytest.fixture(scope="class")
    def corpus_files(self, tmp_path_factory):
        profiles, sessions, _ = synth_corpus(
            SynthConfig(members=20, sessions=12, impressions_per_session=3), seed=5)
        out = tmp_path_factory.mktemp("corpus")
        profiles.save(str(out / "profiles.jsonl"))
        sessions.save(str(out / "sessions.jsonl"))
        return out

    @pytest.mark.parametrize("name, loader", [("profiles.jsonl", load_profiles),
                                              ("sessions.jsonl", load_sessions)])
    def test_fuzzed_files_load_or_raise_corpus_error(self, corpus_files, tmp_path, name, loader):
        # 100 seeded mutations of a saved corpus file: each loads or raises
        # CorpusError (CLI exit 2), within 5 s
        original = (corpus_files / name).read_bytes()
        path = tmp_path / name
        for seed in range(100):
            path.write_bytes(mutate(original, np.random.RandomState(seed)))
            error = call_within(lambda: loader(str(path)), 5.0)
            assert error is None or isinstance(error, CorpusError), (seed, repr(error))
