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


class ProfileStore:
    """Immutable collection of MemberProfile keyed by member_id."""

    def __init__(self, profiles: Iterable[MemberProfile] = ()):
        self._by_id: dict[int, MemberProfile] = {}
        for p in profiles:
            if p.member_id in self._by_id:
                raise CorpusError(f"duplicate member_id {p.member_id}")
            self._by_id[p.member_id] = p

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, member_id: int) -> bool:
        return member_id in self._by_id

    def __getitem__(self, member_id: int) -> MemberProfile:
        try:
            return self._by_id[member_id]
        except KeyError:
            raise KeyError(f"unknown member_id {member_id}") from None

    def member_ids(self) -> list[int]:
        return sorted(self._by_id)

    def __iter__(self) -> Iterator[MemberProfile]:
        for mid in sorted(self._by_id):
            yield self._by_id[mid]

    def __eq__(self, other) -> bool:
        return isinstance(other, ProfileStore) and self._by_id == other._by_id

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            for p in self:
                rec = {
                    "member_id": p.member_id,
                    "skills": sorted(e.id for e in p.skills),
                    "titles": sorted(e.id for e in p.titles),
                    "companies": sorted(e.id for e in p.companies),
                    "headline": p.headline_text,
                }
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


class SessionStore:
    """Immutable collection of Session keyed by session_id."""

    def __init__(self, sessions: Iterable[Session] = ()):
        self._by_id: dict[int, Session] = {}
        for s in sessions:
            if s.session_id in self._by_id:
                raise CorpusError(f"duplicate session_id {s.session_id}")
            self._by_id[s.session_id] = s

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._by_id

    def __getitem__(self, session_id: int) -> Session:
        try:
            return self._by_id[session_id]
        except KeyError:
            raise KeyError(f"unknown session_id {session_id}") from None

    def session_ids(self) -> list[int]:
        return sorted(self._by_id)

    def sessions(self) -> list[Session]:
        return [self._by_id[sid] for sid in sorted(self._by_id)]

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions())

    def __eq__(self, other) -> bool:
        return isinstance(other, SessionStore) and self._by_id == other._by_id

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            for s in self:
                rec = {
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
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _require_int(obj: dict, key: str, lineno: int, minimum: int | None = None) -> int:
    if key not in obj:
        raise CorpusError(f"line {lineno}: missing field {key!r}")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise CorpusError(f"line {lineno}: field {key!r} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise CorpusError(f"line {lineno}: field {key!r} must be >= {minimum}, got {v}")
    return v


def _require_str(obj: dict, key: str, lineno: int) -> str:
    if key not in obj:
        raise CorpusError(f"line {lineno}: missing field {key!r}")
    v = obj[key]
    if not isinstance(v, str):
        raise CorpusError(f"line {lineno}: field {key!r} must be a string, got {v!r}")
    return v


def _require_id_list(obj: dict, key: str, namespace: str, lineno: int) -> frozenset:
    if key not in obj:
        raise CorpusError(f"line {lineno}: missing field {key!r}")
    v = obj[key]
    if not isinstance(v, list) or any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in v):
        raise CorpusError(
            f"line {lineno}: field {key!r} must be a list of non-negative integers, got {v!r}"
        )
    return frozenset(EntityId(namespace, x) for x in v)


def _check_keys(obj: dict, allowed: set, lineno: int) -> None:
    extra = set(obj) - allowed
    if extra:
        raise CorpusError(f"line {lineno}: unknown field {sorted(extra)[0]!r}")


def _iter_records(path: str):
    # bytes that are not UTF-8 decode to lone surrogates, which no UTF-8
    # text holds, so the line that carries one is named as it streams past
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                raise CorpusError(f"line {lineno}: not UTF-8 text: byte "
                                  f"{ord(line[e.start]) - 0xDC00:#04x}") from None
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"line {lineno}: invalid record ({e.msg})") from None
            if not isinstance(obj, dict):
                raise CorpusError(f"line {lineno}: record must be an object")
            yield lineno, obj


def load_profiles(path: str) -> ProfileStore:
    """Load a line-delimited profile file; one JSON object per line."""
    profiles = []
    seen = set()
    for lineno, obj in _iter_records(path):
        _check_keys(obj, {"member_id", "skills", "titles", "companies", "headline"}, lineno)
        member_id = _require_int(obj, "member_id", lineno)
        if member_id in seen:
            raise CorpusError(f"line {lineno}: duplicate member_id {member_id}")
        seen.add(member_id)
        try:
            profiles.append(
                MemberProfile(
                    member_id=member_id,
                    skills=_require_id_list(obj, "skills", "skill", lineno),
                    titles=_require_id_list(obj, "titles", "title", lineno),
                    companies=_require_id_list(obj, "companies", "company", lineno),
                    headline_text=_require_str(obj, "headline", lineno),
                )
            )
        except CorpusError:
            raise
        except ValueError as e:
            raise CorpusError(f"line {lineno}: {e}") from None
    return ProfileStore(profiles)


def load_sessions(path: str) -> SessionStore:
    """Load a line-delimited session file; one JSON object per line."""
    sessions = []
    seen = set()
    for lineno, obj in _iter_records(path):
        _check_keys(obj, {"session_id", "timestamp", "query", "impressions"}, lineno)
        session_id = _require_int(obj, "session_id", lineno)
        if session_id in seen:
            raise CorpusError(f"line {lineno}: duplicate session_id {session_id}")
        seen.add(session_id)
        timestamp = _require_int(obj, "timestamp", lineno)

        q = obj.get("query")
        if not isinstance(q, dict):
            raise CorpusError(f"line {lineno}: field 'query' must be an object")
        _check_keys(q, {"keywords", "facet_skills", "facet_titles", "facet_companies"}, lineno)
        imps = obj.get("impressions")
        if not isinstance(imps, list):
            raise CorpusError(f"line {lineno}: field 'impressions' must be a list")
        impressions = []
        for imp in imps:
            if not isinstance(imp, dict):
                raise CorpusError(f"line {lineno}: impression must be an object")
            _check_keys(imp, {"member_id", "label", "position"}, lineno)
            impressions.append(
                Impression(
                    member_id=_require_int(imp, "member_id", lineno),
                    label=_require_int(imp, "label", lineno),
                    position=_require_int(imp, "position", lineno, minimum=0),
                )
            )
        try:
            query = Query(
                keywords=_require_str(q, "keywords", lineno),
                facet_skills=_require_id_list(q, "facet_skills", "skill", lineno),
                facet_titles=_require_id_list(q, "facet_titles", "title", lineno),
                facet_companies=_require_id_list(q, "facet_companies", "company", lineno),
            )
            sessions.append(
                Session(
                    session_id=session_id,
                    timestamp=timestamp,
                    query=query,
                    impressions=tuple(impressions),
                )
            )
        except CorpusError as e:
            raise CorpusError(f"line {lineno}: {e}") from None
    return SessionStore(sessions)


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
    words_per_cluster: int = 6
    headline_words: int = 3
    query_words: int = 2
    base_timestamp: int = 1_600_000_000

    def __post_init__(self):
        for name in ("clusters", "entities_per_cluster", "members", "sessions",
                     "impressions_per_session", "entities_per_member", "words_per_cluster"):
            if getattr(self, name) <= 0:
                raise CorpusError(f"{name} must be positive, got {getattr(self, name)}")
        if self.facet_size < 0 or self.headline_words < 0 or self.query_words < 0:
            raise CorpusError("facet_size, headline_words, query_words must be >= 0")
        if self.facet_size == 0 and self.query_words == 0:
            raise CorpusError("queries need facet_size > 0 or query_words > 0")
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

    entity_cluster = {}
    for ns in NAMESPACES:
        for eid in range(C * epc):
            entity_cluster[EntityId(ns, eid)] = eid // epc
    words = [[f"c{c}w{t}" for t in range(config.words_per_cluster)] for c in range(C)]

    def sample_entities(ns: str, home: int, count: int) -> frozenset:
        picked = set()
        for _ in range(count):
            c = _pick_cluster(rng, home, C, config.noise)
            picked.add(EntityId(ns, c * epc + rng.randint(epc)))
        return frozenset(picked)

    def sample_words(home: int, count: int) -> str:
        toks = []
        for _ in range(count):
            c = _pick_cluster(rng, home, C, config.noise)
            toks.append(words[c][rng.randint(config.words_per_cluster)])
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
                headline_text=sample_words(home, config.headline_words),
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
                bag.add(EntityId(ns, qc * epc + rng.randint(epc)))
            facets[ns] = frozenset(bag)
        query = Query(
            keywords=sample_words(qc, config.query_words),
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
                timestamp=config.base_timestamp + sid * 60,
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
