import os
import stat
import sys
import threading

import pytest

from talentrank.corpus import (
    SessionStore, SynthConfig, load_profiles, load_sessions, stream_profiles, synth_corpus,
)
from talentrank.entity_graph import load_graph
from talentrank.fileio import atomic_write
from talentrank.graph_embed import EmbeddingTable
from talentrank.neural import init_mlp
from talentrank.ranker import FeatureSchema, RankingModel
from talentrank.semantic_match import (
    DssmConfig, DssmModel, TrigramVocabulary, build_entity_vocabs, init_dssm,
)


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_full_payload(self, tmp_path):
        path = tmp_path / "artifact.txt"
        payloads = [f"{k}:" + chr(ord("a") + k) * 50_000 + "\n" for k in range(6)]
        errors = []

        def writer(payload):
            try:
                for _ in range(20):
                    with atomic_write(str(path)) as f:
                        for start in range(0, len(payload), 4096):
                            f.write(payload[start:start + 4096])
            except Exception as e:  # recorded and asserted on below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in payloads
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as f:
            f.write("x")
        atomic = tmp_path / "atomic.txt"
        with atomic_write(str(atomic)) as f:
            f.write("x")
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_error_removes_own_temp_file_only(self, tmp_path):
        path = tmp_path / "artifact.txt"
        other = tmp_path / "artifact.txt.tmp"
        other.write_text("another writer's temp file")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as f:
                f.write("partial")
                raise RuntimeError("boom")
        assert sorted(os.listdir(tmp_path)) == ["artifact.txt.tmp"]
        assert other.read_text() == "another writer's temp file"


def _bad_byte_on(lines: list, number: int) -> bytes:
    """`lines` as UTF-8, with a 0xff byte inside line `number` (1-based)."""
    data = [line.encode("utf-8") for line in lines]
    data[number - 1] = data[number - 1][:1] + b"\xff" + data[number - 1][1:]
    return b"".join(data)


def _ranker_lines(tmp_path):
    schema = FeatureSchema()
    path = tmp_path / "ranker.txt"
    RankingModel(schema, init_mlp(schema.width, (3,), "relu", 0), "pointwise", 0, 0).save(str(path))
    return path.read_text().splitlines(keepends=True)


def _dssm_lines(tmp_path):
    profiles, _, _ = synth_corpus(SynthConfig(members=10, sessions=2), seed=1)
    trigrams = TrigramVocabulary.build([p.headline_text for p in profiles])
    path = tmp_path / "dssm.txt"
    init_dssm(trigrams, build_entity_vocabs(profiles, SessionStore()),
              DssmConfig(hidden_layers=(2,), output_dim=2)).save(str(path))
    return path.read_text().splitlines(keepends=True)


PROFILE_LINE = ('{"member_id": 1, "skills": [1], "titles": [], "companies": [], '
                '"headline": "java"}\n')
SESSION_LINE = ('{"session_id": 1, "timestamp": 1, "query": {"keywords": "java", '
                '"facet_skills": [], "facet_titles": [], "facet_companies": []}, '
                '"impressions": [{"member_id": 1, "label": 1, "position": 0}]}\n')


# (id, load(path), kind, lines(tmp_path), number of the line given the bad byte)
LOADERS = [
    ("table", lambda p: EmbeddingTable.load(p, "skill"), "embedding table",
     lambda _: ["dim=1 kind=first_order\n", "1 0.5\n", "2 0.25\n"], 3),
    ("graph", lambda p: load_graph(p, "skill"), "graph",
     lambda _: ["0 1 3\n", "0 2 1\n"], 2),
    ("ranker", RankingModel.load, "model", _ranker_lines, 3),
    ("dssm", DssmModel.load, "model", _dssm_lines, 4),
    ("profiles", load_profiles, "profile", lambda _: [PROFILE_LINE] * 2, 2),
    ("profile_stream", lambda p: list(stream_profiles(p)), "profile",
     lambda _: [PROFILE_LINE] * 2, 2),
    ("sessions", load_sessions, "session", lambda _: [SESSION_LINE] * 2, 2),
]


@pytest.mark.parametrize("load,kind,lines,number", [pytest.param(*case[1:], id=case[0])
                                                    for case in LOADERS])
def test_bad_byte_names_file_and_line(tmp_path, load, kind, lines, number):
    path = tmp_path / "bad.txt"
    path.write_bytes(_bad_byte_on(lines(tmp_path), number))
    with pytest.raises(ValueError) as info:
        load(str(path))
    assert str(info.value) == (f"malformed {kind} file {path}, line {number}: "
                               "not UTF-8 text: byte 0xff")
