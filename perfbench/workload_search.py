"""`search`: the two-pass `/search` service over loopback HTTP.

A ranker with skill/title tables is trained on a small corpus, then a
`talentrank serve` child indexes a 30k-member corpus. Requests carry one
skill facet of 2 ids (plus keywords), so the hard filter admits more
members than the 1000-candidate budget and the second pass scores a full
budget per request. One generator process drives the server with at most
`nproc` connections: an open loop at a fixed rate (latency timed from each
request's due time), then a closed loop (requests per second).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, ROOT, child_env, cli_stage, nproc, peak_rss_mb_pid, stop, track
from stats import generator_lateness, median, open_loop_latency, open_loop_schedule, tail

MEMBERS = 30_000
BUDGET = 1000
K = 25
RATE_PER_S = 4.0  # a third of the closed-loop capacity (11-13 req/s) at the seed commit,
                  # so a machine twice as slow for a while still keeps up
CLOSED_SHARE = 0.4  # closed-loop length as a share of --seconds, half before the open loop
                    # and half after it, so the rate's median spans most of the run
LAUNCHES = 3  # set-up time is the median over this many server starts
HEALTH_PROBES = 20
WARMUP_REQUESTS = 40  # fills the server's per-process caches before timing
CHECK_SAMPLE = 20  # open-loop requests whose scores are re-derived offline
LATE_LIMIT_MS = 20.0  # a generator later than this (tail) makes the run invalid
READY_TIMEOUT_S = 120.0


def prepare(work: str, seed: int) -> dict:
    small = os.path.join(work, "small")
    index = os.path.join(work, "index")
    p = {"model": os.path.join(work, "model.txt"),
         "profiles": os.path.join(index, "profiles.jsonl"),
         "sessions": os.path.join(index, "sessions.jsonl"),
         "tables": {ns: os.path.join(work, f"{ns}.emb") for ns in ("skill", "title")}}
    cli_stage(["synth", "--seed", str(seed), "--out", small, "--members", "600",
               "--sessions", "1000"])
    for ns, table in p["tables"].items():
        graph = os.path.join(work, f"{ns}.graph")
        cli_stage(["build-graph", "--profiles", os.path.join(small, "profiles.jsonl"),
                   "--namespace", ns, "--out", graph])
        cli_stage(["train-embed", "--graph", graph, "--namespace", ns, "--mode", "exact",
                   "--order", "concat", "--dim", "16", "--epochs", "100", "--seed", str(seed),
                   "--out", table])
    cli_stage(["train-ranker", "--profiles", os.path.join(small, "profiles.jsonl"),
               "--sessions", os.path.join(small, "sessions.jsonl"),
               *_table_flags(p), "--objective", "pairwise_hinge", "--hidden", "100,100,100",
               "--batch-size", "256", "--epochs", "4", "--seed", str(seed), "--out", p["model"]])
    cli_stage(["synth", "--seed", str(seed + 1), "--out", index, "--members", str(MEMBERS),
               "--sessions", "300"])
    return p


def _table_flags(p: dict) -> list:
    return [x for ns, path in p["tables"].items() for x in ("--tables", f"{ns}={path}")]


def make_requests(p: dict) -> list:
    from talentrank import corpus

    return [{"keywords": s.query.keywords,
             "facet_skills": sorted(e.id for e in s.query.facet_skills), "k": K}
            for s in corpus.load_sessions(p["sessions"])]


class Server:
    """A `talentrank serve` child on an ephemeral port; `stop()` ends it."""

    def __init__(self, p: dict, trace_out: str | None = None):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "serve.py")]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["serve", "--model", p["model"], "--profiles", p["profiles"], *_table_flags(p),
                "--port", "0", "--budget", str(BUDGET)]
        start = time.perf_counter()
        self.proc = track(subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                           cwd=ROOT, text=True))
        self.port = self._read_port(start + READY_TIMEOUT_S)
        status, _ = get(self.connect(), "/health")
        if status != 200:
            raise RuntimeError(f"/health answered {status}")
        self.setup_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        line = ""
        while not line.endswith("\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                raise RuntimeError("server did not report its port in time")
            chunk = self.proc.stdout.readline()
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()} before serving")
            line += chunk
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected server output {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> None:
        stop(self.proc)


def get(conn, path: str, rid: str | None = None):
    conn.request("GET", path, headers={"X-Request-Id": rid} if rid else {})
    resp = conn.getresponse()
    return resp.status, resp.read()


def post(conn, body: bytes, rid: str):
    conn.request("POST", "/search", body,
                 {"Content-Type": "application/json", "X-Request-Id": rid})
    resp = conn.getresponse()
    return resp.status, resp.read()


def health_probe(server: Server) -> float:
    conn = server.connect()
    times = []
    for i in range(HEALTH_PROBES):
        start = time.perf_counter()
        status, _ = get(conn, "/health", f"h{i}")
        times.append(time.perf_counter() - start)
        if status != 200:
            raise RuntimeError(f"/health answered {status}")
    conn.close()
    return median(times) * 1e3


def _send(conn_box: list, server: Server, body: bytes, rid: str):
    """(status, body), or (None, error text) after a transport failure;
    a failed connection is replaced for the next request."""
    try:
        return post(conn_box[0], body, rid)
    except (OSError, http.client.HTTPException) as e:
        conn_box[0].close()
        conn_box[0] = server.connect()
        return None, repr(e).encode()


def open_loop(server: Server, requests: list, seconds: float, tracer=None) -> list:
    """Send RATE_PER_S * seconds requests on a fixed schedule over nproc
    connections. Returns one record per request."""
    count = int(round(RATE_PER_S * seconds))
    bodies = [json.dumps(r).encode() for r in requests]
    due = open_loop_schedule(time.perf_counter() + 0.1, RATE_PER_S, count)
    records = [None] * count
    counter = itertools.count()
    lock = threading.Lock()

    def worker():
        box = [server.connect()]
        while True:
            with lock:
                i = next(counter)
            if i >= count:
                break
            ready = time.perf_counter()
            if due[i] > ready:
                time.sleep(due[i] - ready)
            rid = f"o{i}"
            sent = time.perf_counter()
            status, body = _send(box, server, bodies[i % len(bodies)], rid)
            done = time.perf_counter()
            records[i] = {"rid": rid, "req": i % len(bodies), "due": due[i], "ready": ready,
                          "sent": sent, "done": done, "status": status, "body": body}
        box[0].close()

    _run_threads(worker)
    if tracer is not None:
        for r in records:
            tracer.record("client.request", r["sent"], r["done"], r["rid"], due=r["due"])
    return records


def closed_loop(server: Server, requests: list, seconds: float | None,
                count: int | None = None, prefix: str = "c") -> tuple:
    """nproc connections, each sending its next request when the last one
    returns, for `seconds` or until `count` requests have been sent.

    Returns the records, each with its send and completion time."""
    bodies = [json.dumps(r).encode() for r in requests]
    counter = itertools.count()
    lock = threading.Lock()
    records = []
    start = time.perf_counter()
    end = start + (seconds or 0.0)

    def worker():
        box = [server.connect()]
        while seconds is None or time.perf_counter() < end:
            with lock:
                i = next(counter)
            if count is not None and i >= count:
                break
            sent = time.perf_counter()
            status, body = _send(box, server, bodies[i % len(bodies)], f"{prefix}{i}")
            with lock:
                records.append({"rid": f"{prefix}{i}", "req": i % len(bodies), "status": status,
                                "body": body, "sent": sent, "done": time.perf_counter()})
        box[0].close()

    _run_threads(worker)
    return records


def _run_threads(target) -> None:
    # daemon threads: a SIGTERM mid-phase ends the run without waiting for them
    threads = [threading.Thread(target=target, daemon=True) for _ in range(nproc())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def measure(p: dict, requests: list, seconds: float, launches: int, closed_share: float,
            trace_out=None, tracer=None) -> dict:
    """Start the server `launches` times, then probe /health and run the
    open and closed loops on the second start (the only one if there is
    one); the other starts come first and last, so the set-up median spans
    the run."""
    setups = []

    def probe_launch():
        server = Server(p, trace_out)
        setups.append(server.setup_s)
        server.stop()

    if launches > 1:
        probe_launch()
    server = Server(p, trace_out)
    try:
        setups.append(server.setup_s)
        health_ms = health_probe(server)
        warm = closed_loop(server, requests, None, WARMUP_REQUESTS, "w")
        half = seconds * closed_share / 2
        closed = closed_loop(server, requests, half, prefix="ca")
        opened = open_loop(server, requests, seconds, tracer)
        closed += closed_loop(server, requests, half, prefix="cb")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for _ in range(launches - 2):
        probe_launch()
    opened_ok = sum(1 for r in opened if r["status"] == 200)
    latency = [open_loop_latency(r["due"], r["done"]) * 1e3 for r in opened]
    late = [generator_lateness(r["due"], r["ready"], r["sent"]) * 1e3 for r in opened]
    q, tail_ms = tail(latency)
    late_q, late_ms = tail(late)
    # nproc over the median response time: Little's law for a closed loop
    # without think time, which a burst of machine noise moves less than a
    # count of completions does
    rps = nproc() / median([r["done"] - r["sent"] for r in closed])
    return {
        "setup_s": median(setups), "setups": setups, "peak_rss_mb": rss,
        "p50_ms": median(latency), "tail_ms": tail_ms, "tail_q": q,
        "throughput_per_s": rps, "completed_rps": len(closed) / (2 * half), "health_ms": health_ms,
        "late_tail_ms": late_ms, "late_q": late_q,
        "opened": opened, "closed": warm + closed, "ok": opened_ok,
    }


def check(p: dict, requests: list, phases: list) -> list:
    """Failure messages for each phase's responses: status, row order and
    count for every request; for a fixed sample of open-loop requests,
    scores bit-identical to the offline scorer on the same loaded
    artifacts, and the row count min(k, candidates)."""
    from talentrank import corpus, graph_embed, ranker

    model = ranker.RankingModel.load(p["model"])
    tables = {ns: graph_embed.EmbeddingTable.load(path, ns) for ns, path in p["tables"].items()}
    scorer = ranker.make_scorer(model, tables)
    profiles = corpus.load_profiles(p["profiles"])
    failures = []
    for records in phases:
        failures += _check_phase(requests, records, scorer, profiles)
    return failures


def _check_phase(requests, records, scorer, profiles) -> list:
    from talentrank import corpus

    failures = []
    parsed = {}
    for r in records:
        if r["status"] != 200:
            failures.append(f"{r['rid']}: status {r['status']} {r['body'][:200]!r}")
            continue
        try:
            rows = json.loads(r["body"])["results"]
            keys = [(-row["score"], row["member_id"]) for row in rows]
        except (ValueError, KeyError, TypeError) as e:
            failures.append(f"{r['rid']}: malformed response ({e})")
            continue
        if keys != sorted(keys) or not 1 <= len(rows) <= K:
            failures.append(f"{r['rid']}: {len(rows)} rows, not ordered by (score desc, id asc)")
            continue
        parsed[r["rid"]] = (r["req"], rows)

    for rid in (f"o{i}" for i in range(CHECK_SAMPLE)):
        if rid not in parsed:
            continue
        req, rows = parsed[rid]
        facet = frozenset(corpus.EntityId("skill", x) for x in requests[req]["facet_skills"])
        query = corpus.Query(keywords=requests[req]["keywords"], facet_skills=facet)
        matched = sum(1 for prof in profiles if prof.skills & facet)
        if len(rows) != min(K, BUDGET, matched):
            failures.append(f"{rid}: {len(rows)} rows for {matched} candidates")
        for row in rows:
            expected = scorer(query, profiles[row["member_id"]])
            if row["score"] != expected:
                failures.append(f"{rid}: member {row['member_id']} scored {row['score']!r} "
                                f"online, {expected!r} offline")
                break
    return failures


def _e2e(m: dict) -> dict:
    return {k: m[k] for k in ("setup_s", "peak_rss_mb", "p50_ms", "throughput_per_s")}


def run(seed: int, seconds: float, trace: bool, work: str, trace_dir: str) -> dict:
    import layers
    import spans

    p = prepare(work, seed)
    requests = make_requests(p)
    m = measure(p, requests, seconds, LAUNCHES, CLOSED_SHARE)
    phases = [m["opened"] + m["closed"]]
    result = {"e2e": _e2e(m), "attempted": len(m["opened"]) + len(m["closed"])}
    result["detail"] = [
        ("search_p50_ms", m["p50_ms"], "ms", "lower", "open loop, from due time"),
        (f"search_p{m['tail_q']:g}_ms", m["tail_ms"], "ms", "lower",
         f"open loop, {len(m['opened'])} requests at {RATE_PER_S:g}/s"),
        ("search_rps", m["throughput_per_s"], "1/s", "higher",
         f"closed loop, {nproc()} connections / median response time"),
        ("completed_rps", m["completed_rps"], "1/s", "higher",
         f"closed loop, {len(m['closed']) - WARMUP_REQUESTS} completions over its two phases"),
        ("health_ms", m["health_ms"], "ms", "lower", "GET /health round trip, median"),
        (f"generator_late_p{m['late_q']:g}_ms", m["late_tail_ms"], "ms", "lower",
         f"invalid above {LATE_LIMIT_MS:g}"),
    ]
    invalid = []
    if m["late_tail_ms"] > LATE_LIMIT_MS:
        invalid.append(f"generator late: {m['late_tail_ms']:.2f} ms > {LATE_LIMIT_MS} ms")
    if trace:
        server_spans = os.path.join(trace_dir, "server-spans.jsonl")
        tracer = spans.Tracer()
        # one launch and a shorter closed loop keep the traced run within its time limit
        t = measure(p, requests, seconds, 1, CLOSED_SHARE / 2, server_spans, tracer)
        tracer.dump(os.path.join(trace_dir, "client-spans.jsonl"))
        phases.append(t["opened"] + t["closed"])
        result["attempted"] += len(t["opened"]) + len(t["closed"])
        recorded = spans.load(server_spans)
        opened = t["opened"]
        client = {
            "open_ids": [r["rid"] for r in opened],
            "sent_latency": {r["rid"]: r["done"] - r["sent"] for r in opened},
            "health_ms": t["health_ms"], "late_tail_ms": t["late_tail_ms"],
            "sent": len(opened), "ok": t["ok"], "failed": len(opened) - t["ok"],
        }
        result["layers"] = layers.layer_metrics(recorded, client)
        result["traced_e2e"] = _e2e(t)
        result["self_table"] = layers.self_time_table(recorded)
        lay = result["layers"]
        result["accounting"] = {
            "client_from_send_p50_ms": median([(r["done"] - r["sent"]) * 1e3 for r in opened]),
            "second_pass_ms": lay.get("search_service.second_pass_ms", 0.0),
            "retrieve_ms": lay.get("search_service.retrieve_ms", 0.0),
            "transport_ms": lay.get("search_service.transport_ms", 0.0),
        }
    result["failures"] = invalid + check(p, requests, phases)
    return result
