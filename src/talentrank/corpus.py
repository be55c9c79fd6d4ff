"""Corpus data model: member profiles, search sessions, file ingestion,
time-based splitting, and a seeded synthetic generator with a known
relevance oracle."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .fileio import atomic_write

NAMESPACES = ("skill", "title", "company")


class CorpusError(ValueError):
    """Malformed corpus data or violated invariant."""


class EntityId(tuple):
    """An entity of one namespace: the immutable pair (namespace, id).

    Hash, equality and order are tuple's, so EntityIds sort by (namespace,
    id) in C, and an EntityId equals the plain tuple (namespace, id).
    """

    __slots__ = ()

    def __new__(cls, namespace: str, id: int):
        if namespace not in NAMESPACES:
            raise CorpusError(f"unknown namespace {namespace!r}")
        if not isinstance(id, int) or isinstance(id, bool) or id < 0:
            raise CorpusError(f"entity id must be a non-negative integer, got {id!r}")
        return tuple.__new__(cls, (namespace, id))

    namespace = property(itemgetter(0))
    id = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"EntityId(namespace={self.namespace!r}, id={self.id!r})"


def _check_namespace(bag: frozenset, namespace: str, owner: str) -> None:
    for e in bag:
        if e.namespace != namespace:
            raise CorpusError(
                f"{owner}: entity {e.id} has namespace {e.namespace!r}, expected {namespace!r}"
            )


@dataclass(frozen=True)
class MemberProfile:
    member_id: int
    skills: frozenset
    titles: frozenset
    companies: frozenset
    headline_text: str = ""

    def __post_init__(self):
        _check_namespace(self.skills, "skill", f"member {self.member_id} skills")
        _check_namespace(self.titles, "title", f"member {self.member_id} titles")
        _check_namespace(self.companies, "company", f"member {self.member_id} companies")

    def entities(self, namespace: str) -> frozenset:
        if namespace == "skill":
            return self.skills
        if namespace == "title":
            return self.titles
        if namespace == "company":
            return self.companies
        raise CorpusError(f"unknown namespace {namespace!r}")


@dataclass(frozen=True)
class Query:
    keywords: str = ""
    facet_skills: frozenset = frozenset()
    facet_titles: frozenset = frozenset()
    facet_companies: frozenset = frozenset()

    def __post_init__(self):
        _check_namespace(self.facet_skills, "skill", "query facet_skills")
        _check_namespace(self.facet_titles, "title", "query facet_titles")
        _check_namespace(self.facet_companies, "company", "query facet_companies")
        if not self.keywords and not (self.facet_skills or self.facet_titles or self.facet_companies):
            raise CorpusError("query must have keywords or at least one nonempty facet")

    def facet(self, namespace: str) -> frozenset:
        if namespace == "skill":
            return self.facet_skills
        if namespace == "title":
            return self.facet_titles
        if namespace == "company":
            return self.facet_companies
        raise CorpusError(f"unknown namespace {namespace!r}")


@dataclass(frozen=True)
class Impression:
    member_id: int
    label: int
    position: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise CorpusError(f"label must be 0 or 1, got {self.label!r}")
        if self.position < 0:
            raise CorpusError(f"position must be non-negative, got {self.position}")


@dataclass(frozen=True)
class Session:
    session_id: int
    timestamp: int
    query: Query
    impressions: tuple

    def __post_init__(self):
        if not self.impressions:
            raise CorpusError(f"session {self.session_id}: impressions must be nonempty")
        seen = set()
        for imp in self.impressions:
            if imp.member_id in seen:
                raise CorpusError(
                    f"session {self.session_id}: duplicate member_id {imp.member_id} in impressions"
                )
            seen.add(imp.member_id)


class _KeyedStore:
    """Immutable records keyed by their int field `_key`, iterated in key order."""

    def __init__(self, records: Iterable = ()):
        self._by_id: dict = {}
        for record in records:
            self._add(record)

    def _add(self, record) -> None:
        key = getattr(record, self._key)
        if key in self._by_id:
            raise CorpusError(f"duplicate {self._key} {key}")
        self._by_id[key] = record

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, key: int) -> bool:
        return key in self._by_id

    def __getitem__(self, key: int):
        try:
            return self._by_id[key]
        except KeyError:
            raise KeyError(f"unknown {self._key} {key}") from None

    def __iter__(self) -> Iterator:
        return map(self._by_id.__getitem__, sorted(self._by_id))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._by_id == other._by_id

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            for record in self:
                f.write(json.dumps(self._record(record), separators=(",", ":")) + "\n")


class ProfileStore(_KeyedStore):
    """Immutable collection of MemberProfile keyed by member_id."""

    _key = "member_id"

    def member_ids(self) -> list[int]:
        return sorted(self._by_id)

    @staticmethod
    def _record(p: MemberProfile) -> dict:
        return {
            "member_id": p.member_id,
            "skills": sorted(e.id for e in p.skills),
            "titles": sorted(e.id for e in p.titles),
            "companies": sorted(e.id for e in p.companies),
            "headline": p.headline_text,
        }


class SessionStore(_KeyedStore):
    """Immutable collection of Session keyed by session_id."""

    _key = "session_id"

    def session_ids(self) -> list[int]:
        return sorted(self._by_id)

    def sessions(self) -> list[Session]:
        return list(self)

    @staticmethod
    def _record(s: Session) -> dict:
        return {
            "session_id": s.session_id,
            "timestamp": s.timestamp,
            "query": {
                "keywords": s.query.keywords,
                "facet_skills": sorted(e.id for e in s.query.facet_skills),
                "facet_titles": sorted(e.id for e in s.query.facet_titles),
                "facet_companies": sorted(e.id for e in s.query.facet_companies),
            },
            "impressions": [
                {"member_id": i.member_id, "label": i.label, "position": i.position}
                for i in s.impressions
            ],
        }


# The JSON record codec of the corpus files and the /search body.

def check_int(value, field: str, minimum: int | None = None) -> int:
    if type(value) is not int:  # JSON integers only: bool is refused
        raise CorpusError(f"field {field!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise CorpusError(f"field {field!r} must be >= {minimum}, got {value}")
    return value


def check_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise CorpusError(f"field {field!r} must be a string, got {value!r}")
    return value


def check_ids(value, field: str, namespace: str, interned: dict | None = None) -> frozenset:
    """A list of entity ids as EntityIds of `namespace`; EntityId checks each id.

    `interned`, one load's table of EntityIds by namespace and id, gives
    equal ids one shared object, so each is built and checked once. An id
    is looked up only once it is known to be a non-negative int: True and
    1.0 hash and compare equal to 1.
    """
    if not isinstance(value, list):
        raise CorpusError(f"field {field!r} must be a list of non-negative integers, got {value!r}")
    known = {} if interned is None else interned.setdefault(namespace, {})
    entities = []
    try:
        for x in value:
            if type(x) is int and x >= 0:
                entity = known.get(x)
                if entity is None:
                    entity = known[x] = EntityId(namespace, x)
            else:
                entity = EntityId(namespace, x)  # which refuses any id JSON can hold here
            entities.append(entity)
    except CorpusError as e:
        raise CorpusError(f"field {field!r}: {e}") from None
    return frozenset(entities)


def check_object(value, name: str, fields: frozenset, defaults: dict | None = None) -> dict:
    """`value` as a JSON object with exactly `fields`; a field of `defaults`
    may be absent and takes its default."""
    if not isinstance(value, dict):
        raise CorpusError(f"{name} must be an object")
    if defaults:
        value = {**defaults, **value}
    if value.keys() != fields:
        for key in value:
            if key not in fields:
                raise CorpusError(f"unknown field {key!r}")
        raise CorpusError(f"missing field {sorted(fields - value.keys())[0]!r}")
    return value


QUERY_DEFAULTS = {"keywords": "", "facet_skills": [], "facet_titles": [], "facet_companies": []}
_QUERY_FIELDS = frozenset(QUERY_DEFAULTS)
_PROFILE_FIELDS = frozenset(("member_id", "skills", "titles", "companies", "headline"))
_SESSION_FIELDS = frozenset(("session_id", "timestamp", "query", "impressions"))
_IMPRESSION_FIELDS = frozenset(("member_id", "label", "position"))


def parse_query(obj: dict, interned: dict | None = None) -> Query:
    """The Query of a checked object that holds every query field; see
    check_ids for `interned`."""
    return Query(
        keywords=check_str(obj["keywords"], "keywords"),
        facet_skills=check_ids(obj["facet_skills"], "facet_skills", "skill", interned),
        facet_titles=check_ids(obj["facet_titles"], "facet_titles", "title", interned),
        facet_companies=check_ids(obj["facet_companies"], "facet_companies", "company", interned),
    )


def _parse_profile(obj, interned: dict) -> MemberProfile:
    obj = check_object(obj, "record", _PROFILE_FIELDS)
    return MemberProfile(
        member_id=check_int(obj["member_id"], "member_id"),
        skills=check_ids(obj["skills"], "skills", "skill", interned),
        titles=check_ids(obj["titles"], "titles", "title", interned),
        companies=check_ids(obj["companies"], "companies", "company", interned),
        headline_text=check_str(obj["headline"], "headline"),
    )


def _parse_impression(obj) -> Impression:
    obj = check_object(obj, "impression", _IMPRESSION_FIELDS)
    return Impression(  # which checks the label's and the position's range
        member_id=check_int(obj["member_id"], "member_id"),
        label=check_int(obj["label"], "label"),
        position=check_int(obj["position"], "position"),
    )


def _parse_session(obj, interned: dict) -> Session:
    obj = check_object(obj, "record", _SESSION_FIELDS)
    impressions = obj["impressions"]
    if not isinstance(impressions, list):
        raise CorpusError("field 'impressions' must be a list")
    return Session(
        session_id=check_int(obj["session_id"], "session_id"),
        timestamp=check_int(obj["timestamp"], "timestamp"),
        query=parse_query(check_object(obj["query"], "query", _QUERY_FIELDS), interned),
        impressions=tuple([_parse_impression(imp) for imp in impressions]),
    )


def _records(path: str, parse) -> Iterator[tuple[int, object]]:
    """(line number, record) for each record of a file of one JSON object
    per line, parsed by `parse(obj, interned)` with one intern table per
    call (check_ids); any CorpusError names the line it comes from."""
    interned: dict = {}
    # bytes that are not UTF-8 decode to lone surrogates, which no UTF-8
    # text holds, so the line that carries one is named as it streams past
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise CorpusError(f"not UTF-8 text: byte {ord(line[e.start]) - 0xDC00:#04x}")
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
                    raise CorpusError(f"invalid record ({getattr(e, 'msg', e)})") from None
                record = parse(obj, interned)
            except CorpusError as e:
                raise CorpusError(f"line {lineno}: {e}") from None
            yield lineno, record


def _load(path: str, store: _KeyedStore, parse) -> _KeyedStore:
    """Fill `store` from the records of `path` (_records); a repeated key
    names its line too."""
    for lineno, record in _records(path, parse):
        try:
            store._add(record)
        except CorpusError as e:
            raise CorpusError(f"line {lineno}: {e}") from None
    return store


def load_profiles(path: str) -> ProfileStore:
    """Load a line-delimited profile file; one JSON object per line."""
    return _load(path, ProfileStore(), _parse_profile)


def stream_profiles(path: str) -> Iterator[MemberProfile]:
    """The profiles of a line-delimited profile file one at a time, in file
    order, each checked as load_profiles checks it; no store is built, so a
    repeated member_id is left to the consumer (MemberBlock refuses it)."""
    return (profile for _, profile in _records(path, _parse_profile))


def load_sessions(path: str) -> SessionStore:
    """Load a line-delimited session file; one JSON object per line."""
    return _load(path, SessionStore(), _parse_session)


def time_split(sessions: SessionStore, train_fraction: float):
    """Split sessions by time: the earliest ceil(train_fraction * n) sessions
    form the train split. Ties in timestamp break by session_id ascending."""
    if not 0.0 < train_fraction < 1.0:
        raise CorpusError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(sessions) == 0:
        raise CorpusError("cannot split an empty session store")
    ordered = sorted(sessions, key=lambda s: (s.timestamp, s.session_id))
    n_train = math.ceil(train_fraction * len(ordered))
    return SessionStore(ordered[:n_train]), SessionStore(ordered[n_train:])


# fixed shape of synthetic text and time: words per cluster vocabulary,
# words per headline and per query, and the first session's timestamp
_WORDS_PER_CLUSTER = 6
_HEADLINE_WORDS = 3
_QUERY_WORDS = 2
_BASE_TIMESTAMP = 1_600_000_000


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic clustered corpus."""

    clusters: int = 2
    entities_per_cluster: int = 30  # per namespace
    members: int = 1000
    sessions: int = 200
    impressions_per_session: int = 10
    entities_per_member: int = 4  # per namespace
    facet_size: int = 2  # query facet size per namespace
    noise: float = 0.1  # probability an entity/word is drawn off-cluster
    p_match_same: float = 0.8
    p_match_other: float = 0.05

    def __post_init__(self):
        for name in ("clusters", "entities_per_cluster", "members", "sessions",
                     "impressions_per_session", "entities_per_member"):
            if getattr(self, name) <= 0:
                raise CorpusError(f"{name} must be positive, got {getattr(self, name)}")
        if self.facet_size < 0:
            raise CorpusError(f"facet_size must be >= 0, got {self.facet_size}")
        if not 0.0 <= self.noise < 1.0:
            raise CorpusError(f"noise must be in [0, 1), got {self.noise}")
        for name in ("p_match_same", "p_match_other"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise CorpusError(f"{name} must be in (0, 1), got {p}")
        if self.impressions_per_session > self.members:
            raise CorpusError("impressions_per_session cannot exceed member count")


@dataclass
class SynthOracle:
    """Ground truth behind a synthetic corpus: cluster assignments and the
    label-probability table keyed by (member cluster == query cluster)."""

    entity_cluster: dict
    member_home: dict
    session_cluster: dict
    p_match_same: float
    p_match_other: float

    def match_probability(self, member_id: int, session_id: int) -> float:
        same = self.member_home[member_id] == self.session_cluster[session_id]
        return self.p_match_same if same else self.p_match_other


def _pick_cluster(rng, home: int, clusters: int, noise: float) -> int:
    if clusters == 1 or rng.random_sample() >= noise:
        return home
    other = rng.randint(clusters - 1)
    return other if other < home else other + 1


def synth_corpus(config: SynthConfig, seed: int):
    """Generate a clustered synthetic corpus. Pure function of (config, seed).

    Returns (profiles, sessions, oracle); the oracle carries cluster
    assignments and the label-probability table for test use.
    """
    rng = np.random.RandomState(seed)
    C = config.clusters
    epc = config.entities_per_cluster

    ids = {ns: [EntityId(ns, eid) for eid in range(C * epc)] for ns in NAMESPACES}
    entity_cluster = {e: e.id // epc for ns in NAMESPACES for e in ids[ns]}
    words = [[f"c{c}w{t}" for t in range(_WORDS_PER_CLUSTER)] for c in range(C)]

    def sample_entities(ns: str, home: int, count: int) -> frozenset:
        picked = set()
        for _ in range(count):
            c = _pick_cluster(rng, home, C, config.noise)
            picked.add(ids[ns][c * epc + rng.randint(epc)])
        return frozenset(picked)

    def sample_words(home: int, count: int) -> str:
        toks = []
        for _ in range(count):
            c = _pick_cluster(rng, home, C, config.noise)
            toks.append(words[c][rng.randint(_WORDS_PER_CLUSTER)])
        return " ".join(toks)

    member_home = {}
    profiles = []
    for mid in range(config.members):
        home = int(rng.randint(C))
        member_home[mid] = home
        profiles.append(
            MemberProfile(
                member_id=mid,
                skills=sample_entities("skill", home, config.entities_per_member),
                titles=sample_entities("title", home, config.entities_per_member),
                companies=sample_entities("company", home, config.entities_per_member),
                headline_text=sample_words(home, _HEADLINE_WORDS),
            )
        )

    session_cluster = {}
    sessions = []
    member_ids = np.arange(config.members)
    for sid in range(config.sessions):
        qc = int(rng.randint(C))
        session_cluster[sid] = qc
        facets = {}
        for ns in NAMESPACES:
            bag = set()
            for _ in range(config.facet_size):
                bag.add(ids[ns][qc * epc + rng.randint(epc)])
            facets[ns] = frozenset(bag)
        query = Query(
            keywords=sample_words(qc, _QUERY_WORDS),
            facet_skills=facets["skill"],
            facet_titles=facets["title"],
            facet_companies=facets["company"],
        )
        shown = rng.choice(member_ids, size=config.impressions_per_session, replace=False)
        impressions = []
        for pos, mid in enumerate(int(m) for m in shown):
            p = config.p_match_same if member_home[mid] == qc else config.p_match_other
            label = 1 if rng.random_sample() < p else 0
            impressions.append(Impression(member_id=mid, label=label, position=pos))
        sessions.append(
            Session(
                session_id=sid,
                timestamp=_BASE_TIMESTAMP + sid * 60,
                query=query,
                impressions=tuple(impressions),
            )
        )

    oracle = SynthOracle(
        entity_cluster=entity_cluster,
        member_home=member_home,
        session_cluster=session_cluster,
        p_match_same=config.p_match_same,
        p_match_other=config.p_match_other,
    )
    return ProfileStore(profiles), SessionStore(sessions), oracle
