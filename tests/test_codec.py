"""Table-driven checks of the JSON record codec: one bad field per case,
through the profile loader, the session loader and /search.

A file case writes a valid record on line 1 and the bad one on line 2; the
error must be a CorpusError that names the field. A /search case must get
400 with a message that names the field.
"""

import copy
import json
import re

import pytest

from talentrank.corpus import (
    CorpusError,
    EntityId,
    MemberProfile,
    ProfileStore,
    load_profiles,
    load_sessions,
)
from talentrank.neural import init_mlp
from talentrank.ranker import FeatureSchema, RankingModel
from talentrank.search_service import SearchService, build_index

DELETE = object()  # marks a field the case removes

PROFILE = {"member_id": 1, "skills": [10], "titles": [7], "companies": [3], "headline": "x"}
SESSION = {
    "session_id": 1,
    "timestamp": 100,
    "query": {"keywords": "java", "facet_skills": [1], "facet_titles": [2],
              "facet_companies": [3]},
    "impressions": [{"member_id": 1, "label": 0, "position": 0},
                    {"member_id": 2, "label": 1, "position": 1}],
}
SEARCH = {"keywords": "java", "facet_skills": [1], "facet_titles": [], "facet_companies": [],
          "k": 5}
IMP = ("impressions", 1)
# [1, True] and [1, 1.0]: True and 1.0 equal the id 1 interned just before them
BAD_ID_LISTS = ("oops", {}, None, ["1"], [1.5], [None], [True], [False], [-1], [1, True],
                [1, 1.0])

# (path to the field, bad value or DELETE, name the error must carry)
PROFILE_CASES = [
    *[((key,), DELETE, key) for key in PROFILE],
    (("member_id",), "1", "member_id"),
    (("member_id",), 1.5, "member_id"),
    (("member_id",), True, "member_id"),
    *[((key,), value, key) for key in ("skills", "titles", "companies")
      for value in BAD_ID_LISTS],
    (("headline",), 5, "headline"),
    (("headline",), None, "headline"),
    (("zz_top",), 1, "zz_top"),
]
SESSION_CASES = [
    *[((key,), DELETE, key) for key in SESSION],
    *[(("query", key), DELETE, key) for key in SESSION["query"]],
    *[((*IMP, key), DELETE, key) for key in ("member_id", "label", "position")],
    (("session_id",), "1", "session_id"),
    (("session_id",), True, "session_id"),
    (("timestamp",), 1.5, "timestamp"),
    (("timestamp",), None, "timestamp"),
    (("query",), [], "query"),
    (("query",), "java", "query"),
    (("query", "keywords"), 3, "keywords"),
    (("query", "keywords"), None, "keywords"),
    *[(("query", key), value, key)
      for key in ("facet_skills", "facet_titles", "facet_companies")
      for value in BAD_ID_LISTS],
    (("impressions",), {}, "impressions"),
    (("impressions",), "x", "impressions"),
    ((*IMP, "member_id"), "2", "member_id"),
    ((*IMP, "member_id"), True, "member_id"),
    ((*IMP, "label"), 2, "label"),
    ((*IMP, "label"), "1", "label"),
    ((*IMP, "label"), True, "label"),
    ((*IMP, "position"), -1, "position"),
    ((*IMP, "position"), 1.5, "position"),
    (("zz_top",), 1, "zz_top"),
    (("query", "zz_query"), 1, "zz_query"),
    ((*IMP, "zz_impression"), 1, "zz_impression"),
]
SEARCH_CASES = [
    (("k",), DELETE, "k"),
    (("k",), "5", "k"),
    (("k",), 0, "k"),
    (("k",), -1, "k"),
    (("k",), True, "k"),
    (("k",), 1.5, "k"),
    (("keywords",), 3, "keywords"),
    (("keywords",), None, "keywords"),
    *[((key,), value, key)
      for key in ("facet_skills", "facet_titles", "facet_companies")
      for value in BAD_ID_LISTS],
    (("zzz",), 1, "zzz"),
]


def mutated(record: dict, path: tuple, value) -> dict:
    record = copy.deepcopy(record)
    holder = record
    for key in path[:-1]:
        holder = holder[key]
    if value is DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return record


def case_id(case) -> str:
    path, value, _ = case
    return "/".join(map(str, path)) + ("-missing" if value is DELETE else f"={value!r}")


def file_error(tmp_path, loader, valid: dict, bad) -> str:
    """The CorpusError message for a file whose line 2 holds `bad`."""
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(valid) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        loader(str(path))
    return str(info.value)


def line_2(tmp_path, loader) -> str:
    """How file_error's message begins: the file's kind and path, then line 2."""
    kind = "profile" if loader is load_profiles else "session"
    return f"malformed {kind} file {tmp_path / 'records.jsonl'}, line 2: "


def first_line(record: dict, key: str) -> dict:
    """A valid record keyed apart from the one on line 2."""
    return {**record, key: 0}


def search_error(body) -> str:
    profiles = ProfileStore([MemberProfile(
        0, frozenset({EntityId("skill", 1)}), frozenset(), frozenset(), "java")])
    schema = FeatureSchema()
    model = RankingModel(schema, init_mlp(schema.width, (4,), "relu", 0), "pointwise", 0, 0)
    status, payload = SearchService(build_index(profiles, {}), model).handle_search(body)
    assert status == 400, payload
    return payload["error"]


@pytest.mark.parametrize("case", PROFILE_CASES, ids=case_id)
def test_profile_file_error_names_field(tmp_path, case):
    path, value, field = case
    msg = file_error(tmp_path, load_profiles, first_line(PROFILE, "member_id"),
                     mutated(PROFILE, path, value))
    assert field in msg
    assert "line 2" in msg


@pytest.mark.parametrize("case", SESSION_CASES, ids=case_id)
def test_session_file_error_names_field(tmp_path, case):
    path, value, field = case
    msg = file_error(tmp_path, load_sessions, first_line(SESSION, "session_id"),
                     mutated(SESSION, path, value))
    assert field in msg
    if value != 2:  # Impression checks the label's range; see test_file_error_names_its_line_once
        assert "line 2" in msg


@pytest.mark.parametrize("case", SEARCH_CASES, ids=case_id)
def test_search_body_error_names_field(case):
    path, value, field = case
    assert field in search_error(mutated(SEARCH, path, value))


@pytest.mark.parametrize("loader,valid,key", [(load_profiles, PROFILE, "member_id"),
                                              (load_sessions, SESSION, "session_id")])
@pytest.mark.parametrize("bad", [[1, 2], "x", 3, None])
def test_record_that_is_not_an_object(tmp_path, loader, valid, key, bad):
    msg = file_error(tmp_path, loader, first_line(valid, key), bad)
    assert "line 2" in msg and "record" in msg


def test_search_body_that_is_not_an_object():
    assert "request body" in search_error([1, 2])


@pytest.mark.parametrize("value", [[-1], [True], ["1"], "oops"])
def test_same_bad_facet_same_message_from_file_and_search(tmp_path, value):
    from_file = file_error(tmp_path, load_sessions, first_line(SESSION, "session_id"),
                           mutated(SESSION, ("query", "facet_skills"), value))
    from_search = search_error(mutated(SEARCH, ("facet_skills",), value))
    assert from_search in from_file


FILE_CASES = [pytest.param(load_profiles, PROFILE, "member_id", case, id=f"profile-{case_id(case)}")
              for case in PROFILE_CASES] + [
              pytest.param(load_sessions, SESSION, "session_id", case, id=f"session-{case_id(case)}")
              for case in SESSION_CASES]


@pytest.mark.parametrize("loader,valid,key,case", FILE_CASES)
def test_file_error_names_its_line_once(tmp_path, loader, valid, key, case):
    path, value, _ = case
    msg = file_error(tmp_path, loader, first_line(valid, key), mutated(valid, path, value))
    prefix = line_2(tmp_path, loader)
    assert msg.startswith(prefix) and "line " not in msg[len(prefix):], msg


@pytest.mark.parametrize("value", [[-1], [True], ["1"], "oops"])
def test_file_message_is_search_message_with_line(tmp_path, value):
    from_file = file_error(tmp_path, load_sessions, first_line(SESSION, "session_id"),
                           mutated(SESSION, ("query", "facet_skills"), value))
    assert from_file == (line_2(tmp_path, load_sessions)
                         + search_error(mutated(SEARCH, ("facet_skills",), value)))


@pytest.mark.parametrize("loader,valid,key,path", [
    (load_profiles, PROFILE, "member_id", ("skills",)),
    (load_sessions, SESSION, "session_id", ("query", "facet_skills")),
])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_id_equal_to_an_interned_id_is_still_refused(tmp_path, loader, valid, key, path, bad):
    # line 1 interns skill 1, which True and 1.0 equal as dict keys
    msg = file_error(tmp_path, loader, mutated(first_line(valid, key), path, [1]),
                     mutated(valid, path, [1, bad]))
    assert msg == (f"{line_2(tmp_path, loader)}field {path[-1]!r}: "
                   f"entity id must be a non-negative integer, got {bad!r}")


@pytest.mark.parametrize("loader,valid,key", [(load_profiles, PROFILE, "member_id"),
                                              (load_sessions, SESSION, "session_id")])
def test_integer_too_long_to_decode_names_its_line(tmp_path, loader, valid, key):
    # json.loads raises a plain ValueError beyond Python's int digit limit
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(first_line(valid, key)) + "\n"
                    + json.dumps(valid).replace('": 1', '": 1' + "0" * 5000, 1) + "\n")
    with pytest.raises(CorpusError, match="^" + re.escape(line_2(tmp_path, loader))
                       + "invalid record"):
        loader(str(path))
