"""Two-pass search service: inverted-index retrieval with hard facet
filters and a cheap match-fraction first pass, then second-pass scoring
with the ranking model.

Member embeddings are pooled offline into the forward index; query
embeddings are computed per request. Index and model are immutable
snapshots, so concurrent requests share no mutable state.
"""

from __future__ import annotations

import json
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .corpus import (
    NAMESPACES, QUERY_DEFAULTS, CorpusError, Query, check_int, check_object,
    parse_query,
)
from .neural import mlp_forward
from .ranker import (
    MemberBlock, RankerError, RankingModel, _schema_tables, build_features, query_pools,
)

DEFAULT_RETRIEVAL_BUDGET = 1000
MAX_BODY_BYTES = 1 << 20  # larger /search bodies are refused unread
SOCKET_TIMEOUT_S = 30.0  # a connection silent this long is closed, even mid-body
_SEARCH_FIELDS = frozenset(("k", *QUERY_DEFAULTS))  # the query fields are optional
_DIGITS = re.compile("[0-9]+")
_METHODS = ("GET", "POST")


class ServiceError(ValueError):
    """Invalid request or index/schema mismatch."""


def build_index(profiles, tables: dict) -> MemberBlock:
    """The member block of `profiles`, any iterable of MemberProfile read
    once (a ProfileStore, or corpus.stream_profiles of a file), rows in
    member_id order: its postings are the inverted index, its pooled rows
    (one per namespace with a table) the columnar forward index, and it
    keeps the tables it pooled for query embeddings."""
    return MemberBlock(profiles, tables)


class Candidates:
    """Retrieved block rows and their first-pass scores, as arrays in
    (score desc, member_id asc) order. Its length is the candidate count."""

    __slots__ = ("block", "rows", "scores")

    def __init__(self, block: MemberBlock, rows: np.ndarray, scores: np.ndarray):
        self.block = block
        self.rows = rows
        self.scores = scores

    def __len__(self) -> int:
        return len(self.rows)


def retrieve(block: MemberBlock, query: Query, limit: int) -> Candidates:
    """Hard-filtered candidates with first-pass scores.

    A member qualifies when it holds at least one id from every nonempty
    facet namespace (AND across namespaces, OR within). The first-pass
    score sums, over nonempty facets in NAMESPACES order, the fraction of
    facet ids the member holds. Returns the top `limit` by (score desc,
    member_id asc).
    """
    if limit < 1:
        raise ServiceError(f"limit must be >= 1, got {limit}")
    active = [ns for ns in NAMESPACES if query.facet(ns)]
    if not active and not query.keywords:
        raise ServiceError("unconstrained query refused: no facets and no keywords")
    qualifies = np.ones(len(block), dtype=bool)
    score = np.zeros(len(block))
    for ns in active:
        facet = query.facet(ns)
        hits = block.counts(ns, facet)
        qualifies &= hits > 0
        score += hits / len(facet)
    rows = np.flatnonzero(qualifies)
    # block rows ascend with member_id, so rows break score ties
    top = rows[np.lexsort((rows, -score[rows]))[:limit]]
    return Candidates(block, top, score[top])


def second_pass_rank(candidates: Candidates, query: Query, model: RankingModel,
                     block: MemberBlock, k: int) -> list:
    """Score candidates by build_features over their block rows and the
    online query embedding, then mlp_forward: make_scorer's path, so
    bit-identical to offline scoring. SearchService has checked the model
    against the block's tables. Every candidate's score must be finite, as
    in replay, else a RankerError: a table whose values overflow the
    features is a fault of the index or model, not of the query.

    Returns the top `k` as [(member_id, score, first_pass_score)] sorted
    by (score desc, member_id asc); only they become Python objects.
    """
    if k < 1:
        raise ServiceError(f"k must be >= 1, got {k}")
    rows = candidates.rows
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned per request
        X = build_features(query, block, rows, query_pools(query, block.tables, model.schema),
                           model.schema)
        scores = mlp_forward(model.net, X)
    if not np.isfinite(scores).all():
        raise RankerError("scores must be finite to rank candidates")
    # block rows ascend with member_id, so rows break score ties
    top = np.lexsort((rows, -scores))[:k]
    return list(zip([block.member_ids[r] for r in rows[top].tolist()], scores[top].tolist(),
                    candidates.scores[top].tolist()))


class SearchService:
    """Request handler wiring retrieval and second-pass scoring together."""

    def __init__(self, block: MemberBlock, model: RankingModel,
                 retrieval_budget: int = DEFAULT_RETRIEVAL_BUDGET):
        """Raises ServiceError when the model's schema does not fit the
        block's tables, so a mismatch stops start-up, not each request."""
        if retrieval_budget < 1:
            raise ServiceError("retrieval_budget must be >= 1")
        try:
            _schema_tables(block.tables, model.schema)
        except RankerError as e:
            raise ServiceError(f"model does not fit the index: {e}") from None
        self.block = block
        self.model = model
        self.retrieval_budget = retrieval_budget

    def handle_search(self, request: dict):
        """Process a /search body; returns (http_status, response_dict)."""
        try:
            body = check_object(request, "request body", _SEARCH_FIELDS, QUERY_DEFAULTS)
            k = check_int(body["k"], "k", minimum=1)
            query = parse_query(body)
            candidates = retrieve(self.block, query, self.retrieval_budget)
            ranked = second_pass_rank(candidates, query, self.model, self.block, k)
        except (ServiceError, CorpusError) as e:
            return 400, {"error": str(e)}
        except RankerError as e:  # the index and model, checked at start-up, fail this query
            return 500, {"error": str(e)}
        results = [
            {"member_id": mid, "score": score, "first_pass_score": first}
            for mid, score, first in ranked
        ]
        return 200, {"results": results}


def _framing_error(headers):
    """None when the headers frame a /search body as it must be framed: by
    Content-Length of ASCII digits, repeated only with the same value, at
    most MAX_BODY_BYTES, and no Transfer-Encoding. Else the (status,
    message) to refuse the request with."""
    lengths = {value.strip() for value in headers.get_all("Content-Length", ())}
    if "Transfer-Encoding" in headers or not lengths:
        return 411, "a /search body needs a Content-Length and no Transfer-Encoding"
    if len(lengths) > 1:
        return 400, "conflicting Content-Length headers"
    [length] = lengths
    bound = f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]"
    if not _DIGITS.fullmatch(length):
        return 400, bound
    return (413, bound) if int(length) > MAX_BODY_BYTES else None


def _declares_body(headers) -> bool:
    """Whether a GET's headers declare a body: any Transfer-Encoding, or a
    Content-Length other than 0. The body is never read, so the connection
    cannot carry another request after the answer."""
    return "Transfer-Encoding" in headers or any(
        value.strip() != "0" for value in headers.get_all("Content-Length", ()))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "talentrank/0.1"
    timeout = SOCKET_TIMEOUT_S
    # a response leaves as two writes, headers then body; under Nagle's
    # algorithm the body waits for the client's delayed ACK of the headers,
    # ~40 ms on every keep-alive request after the first
    disable_nagle_algorithm = True

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 405:  # RFC 9110: a 405 names the methods the resource allows
            self.send_header("Allow", ", ".join(_METHODS))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def parse_request(self) -> bool:
        """http.server's parse of the request line and headers, then the
        method: any but GET and POST is answered 405 and the connection
        closed, since a body it may carry is never read."""
        if not super().parse_request():
            return False
        if self.command in _METHODS:
            return True
        self.close_connection = True
        self._respond(405, {"error": f"method {self.command!r} not allowed"})
        return False

    def handle_expect_100(self) -> bool:
        """Send 100 Continue only to a POST /search whose body will be read:
        a request refused unread gets its one refusal and nothing before."""
        if (self.command == "POST" and self.path == "/search"
                and _framing_error(self.headers) is None):
            return super().handle_expect_100()
        return True

    def do_GET(self):
        if _declares_body(self.headers):
            self.close_connection = True
        if self.path == "/health":
            self._respond(200, {"status": "ok"})
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):
        if self.path == "/search":
            refusal = _framing_error(self.headers)
        else:
            refusal = 404, f"unknown path {self.path!r}"
        if refusal is not None:
            # the body is left unread, so this connection cannot carry another request
            self.close_connection = True
            self._respond(refusal[0], {"error": refusal[1]})
            return
        length = int(self.headers["Content-Length"])
        try:
            request = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError):  # RecursionError: deep nesting
            self._respond(400, {"error": "request body must be valid JSON"})
            return
        status, payload = self.server.service.handle_search(request)
        self._respond(status, payload)

    def log_message(self, fmt, *args):  # quiet by default
        pass


class SearchHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, service: SearchService | None, host: str = "127.0.0.1", port: int = 0,
                 bind_and_activate: bool = True):
        """With bind_and_activate false, as in socketserver, the caller
        binds (server_bind) and later listens (server_activate): a bound
        socket that does not listen refuses connections, so the port can
        be taken before `service` is built and set."""
        if not 0 <= port <= 65535:
            raise ServiceError(f"port must be in 0..65535, got {port}")
        super().__init__((host, port), _Handler, bind_and_activate)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def handle_error(self, request, client_address) -> None:
        """A client that resets the connection or stops reading gets one
        stderr line; any other error keeps socketserver's traceback."""
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            host, port = client_address[:2]
            print(f"talentrank serve: client {host}:{port} dropped the connection "
                  f"({type(error).__name__})", file=sys.stderr)
        else:
            super().handle_error(request, client_address)
