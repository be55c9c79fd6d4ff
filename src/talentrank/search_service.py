"""Two-pass search service: inverted-index retrieval with hard facet
filters and a cheap match-fraction first pass, then second-pass scoring
with the ranking model.

Member embeddings are pooled offline into the forward index; query
embeddings are computed per request. Index and model are immutable
snapshots, so concurrent requests share no mutable state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .corpus import NAMESPACES, CorpusError, EntityId, ProfileStore, Query
from .ranker import RankingModel, member_pools, query_pools, score_batch

DEFAULT_RETRIEVAL_BUDGET = 1000
MAX_BODY_BYTES = 1 << 20  # larger /search bodies are refused unread
SOCKET_TIMEOUT_S = 30.0  # a connection silent this long is closed, even mid-body


class ServiceError(ValueError):
    """Invalid request or index/schema mismatch."""


class InvertedIndex:
    """Per-namespace postings (entity id -> sorted member ids) plus a
    columnar forward index: the member profiles, and per namespace with a
    table one (n_members, d) matrix of pooled vectors and one (n_members,)
    coverage vector, rows in member_id order."""

    def __init__(self, postings: dict, profiles: ProfileStore, pools: dict, tables: dict):
        self.postings = postings
        self.profiles = profiles
        self.row_of = {mid: row for row, mid in enumerate(profiles.member_ids())}
        self.pools = pools
        self.tables = tables

    def member_ids(self) -> list:
        return sorted(self.row_of)

    def posting(self, entity: EntityId) -> list:
        return self.postings.get(entity.namespace, {}).get(entity, [])


def build_index(profiles: ProfileStore, tables: dict) -> InvertedIndex:
    """Build postings from profile entity sets; mean-pool member embeddings
    offline for every namespace with a table."""
    postings: dict = {ns: {} for ns in NAMESPACES}
    for profile in profiles:
        for ns in NAMESPACES:
            for e in profile.entities(ns):
                postings[ns].setdefault(e, []).append(profile.member_id)
    for ns in NAMESPACES:
        for e in postings[ns]:
            postings[ns][e] = sorted(postings[ns][e])
    pools = member_pools(list(profiles), {ns: t for ns, t in tables.items() if ns in NAMESPACES})
    return InvertedIndex(postings, profiles, pools, tables)


def retrieve(index: InvertedIndex, query: Query, limit: int) -> list:
    """Hard-filtered candidates with first-pass scores.

    A member qualifies when it holds at least one id from every nonempty
    facet namespace (AND across namespaces, OR within). The first-pass
    score sums, over nonempty facets, the fraction of facet ids the member
    holds. Returns the top `limit` by (score desc, member_id asc).
    """
    if limit < 1:
        raise ServiceError(f"limit must be >= 1, got {limit}")
    active = [ns for ns in NAMESPACES if query.facet(ns)]
    if not active:
        if not query.keywords:
            raise ServiceError("unconstrained query refused: no facets and no keywords")
        candidates = set(index.row_of)
    else:
        candidates = None
        for ns in active:
            matched: set = set()
            for e in query.facet(ns):
                matched.update(index.posting(e))
            candidates = matched if candidates is None else candidates & matched
        if not candidates:
            return []
    scored = []
    for mid in candidates:
        profile = index.profiles[mid]
        score = 0.0
        for ns in active:
            facet = query.facet(ns)
            score += len(facet & profile.entities(ns)) / len(facet)
        scored.append((mid, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:limit]


def second_pass_rank(candidates: list, query: Query, model: RankingModel,
                     index: InvertedIndex) -> list:
    """Score candidates in one score_batch call over their forward-index
    rows and the online query embedding; bit-identical to offline scoring.

    Returns [(member_id, score, first_pass_score)] sorted by
    (score desc, member_id asc).
    """
    schema = model.schema
    for ns in schema.embedding_namespaces:
        if ns not in index.pools:
            raise ServiceError(f"schema expects embeddings for {ns!r} but the index has none")
    pools_q = query_pools(query, index.tables, schema)
    mids = [mid for mid, _ in candidates]
    rows = [index.row_of[mid] for mid in mids]
    pools_m = {ns: (index.pools[ns][0][rows], index.pools[ns][1][rows])
               for ns in schema.embedding_namespaces}
    scores = score_batch(model, query, [index.profiles[mid] for mid in mids], pools_m, pools_q)
    results = [(mid, score, first_pass)
               for (mid, first_pass), score in zip(candidates, scores.tolist())]
    results.sort(key=lambda t: (-t[1], t[0]))
    return results


def _parse_id_list(value, field: str) -> list:
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in value
    ):
        raise ServiceError(f"field {field!r} must be a list of non-negative integers")
    return value


class SearchService:
    """Request handler wiring retrieval and second-pass scoring together."""

    def __init__(self, index: InvertedIndex, model: RankingModel,
                 retrieval_budget: int = DEFAULT_RETRIEVAL_BUDGET):
        if retrieval_budget < 1:
            raise ServiceError("retrieval_budget must be >= 1")
        self.index = index
        self.model = model
        self.retrieval_budget = retrieval_budget

    def handle_search(self, request: dict):
        """Process a /search body; returns (http_status, response_dict)."""
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        allowed = {"keywords", "facet_skills", "facet_titles", "facet_companies", "k"}
        unknown = set(request) - allowed
        if unknown:
            return 400, {"error": f"unknown field {sorted(unknown)[0]!r}"}
        if "k" not in request:
            return 400, {"error": "missing field 'k'"}
        k = request["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            return 400, {"error": "field 'k' must be an integer >= 1"}
        keywords = request.get("keywords", "")
        if not isinstance(keywords, str):
            return 400, {"error": "field 'keywords' must be a string"}
        try:
            query = Query(
                keywords=keywords,
                facet_skills=frozenset(
                    EntityId("skill", x) for x in _parse_id_list(request.get("facet_skills", []), "facet_skills")
                ),
                facet_titles=frozenset(
                    EntityId("title", x) for x in _parse_id_list(request.get("facet_titles", []), "facet_titles")
                ),
                facet_companies=frozenset(
                    EntityId("company", x) for x in _parse_id_list(request.get("facet_companies", []), "facet_companies")
                ),
            )
            candidates = retrieve(self.index, query, self.retrieval_budget)
            ranked = second_pass_rank(candidates, query, self.model, self.index)
        except (ServiceError, CorpusError) as e:
            return 400, {"error": str(e)}
        results = [
            {"member_id": mid, "score": score, "first_pass_score": first}
            for mid, score, first in ranked[:k]
        ]
        return 200, {"results": results}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "talentrank/0.1"
    timeout = SOCKET_TIMEOUT_S

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/health":
            self._respond(200, {"status": "ok"})
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):
        if self.path != "/search":
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body is left unread, so this connection cannot carry another request
            self.close_connection = True
            status = 413 if length > MAX_BODY_BYTES else 400
            self._respond(status, {"error": "Content-Length must be an integer "
                                            f"in [0, {MAX_BODY_BYTES}]"})
            return
        try:
            request = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._respond(400, {"error": "request body must be valid JSON"})
            return
        status, payload = self.server.service.handle_search(request)
        self._respond(status, payload)

    def log_message(self, fmt, *args):  # quiet by default
        pass


class SearchHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, service: SearchService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
