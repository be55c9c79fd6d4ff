"""Per-layer metrics from a traced run's spans.

Every metric is reported on every workload; a layer the workload does not
run reads 0. Times are summed over the traced phase (one set-up and one
pass, or one server launch and its requests) unless named as a per-call
or per-request figure.
"""

from __future__ import annotations

from collections import defaultdict

from stats import covered, median, self_times, tail


def _dur(s) -> float:
    return s["end"] - s["start"]


def _total(spans, name) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _attr_sum(spans, name, key) -> int:
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def _self_outside(spans, parent_name, child_prefix, where=None) -> float:
    """Self time of `parent_name` spans outside their direct children whose
    name starts with `child_prefix`."""
    kids = defaultdict(list)
    for s in spans:
        if s["name"].startswith(child_prefix):
            kids[s["parent"]].append((s["start"], s["end"]))
    total = 0.0
    for s in spans:
        if s["name"] == parent_name and (where is None or where(s)):
            total += _dur(s) - covered(kids.get(s["id"], ()), s["start"], s["end"])
    return total


def _us_per_sample(spans, name) -> float:
    samples = _attr_sum(spans, name, "samples")
    return _total(spans, name) / samples * 1e6 if samples else 0.0


def _per_request(server_spans, name, rids) -> dict:
    return {s["request_id"]: s for s in server_spans if s["name"] == name and s["request_id"] in rids}


def search_layer(server_spans, client) -> dict:
    """Per-request medians over the open-loop requests, matched by id."""
    out = {}
    rids = set(client.get("open_ids", ()))
    handle = _per_request(server_spans, "search_service.handle_search", rids)
    retrieve = _per_request(server_spans, "search_service.retrieve", rids)
    second = _per_request(server_spans, "search_service.second_pass_rank", rids)
    respond = [_dur(s) for s in server_spans
               if s["name"] == "search_service.respond" and s["request_id"] in rids]
    handle_ms = [_dur(s) * 1e3 for s in handle.values()]
    if handle_ms:
        out["search_service.handle_p50_ms"] = median(handle_ms)
        out["search_service.handle_tail_ms"] = tail(handle_ms)[1]
    if retrieve:
        out["search_service.retrieve_ms"] = median([_dur(s) * 1e3 for s in retrieve.values()])
        out["search_service.budget_full_share"] = (
            sum(s.get("budget_full", 0) for s in retrieve.values()) / len(retrieve))
    if second:
        out["search_service.second_pass_ms"] = median([_dur(s) * 1e3 for s in second.values()])
        out["search_service.candidates"] = median([s["candidates"] for s in second.values()])
        out["search_service.us_per_candidate"] = median(
            [_dur(s) * 1e6 / s["candidates"] for s in second.values() if s["candidates"]] or [0.0])
    if respond:
        out["search_service.respond_ms"] = median([d * 1e3 for d in respond])
    sent = client.get("sent_latency", {})
    transport = [sent[rid] - _dur(handle[rid]) for rid in handle if rid in sent]
    if transport:
        out["search_service.transport_ms"] = median(transport) * 1e3
    q_pools = [_dur(s) * 1e6 for s in server_spans
               if s["name"] == "ranker.query_pools" and s["request_id"] in rids]
    if q_pools:
        out["ranker.query_pools_us"] = median(q_pools)
    return out


def layer_metrics(spans, client=None) -> dict:
    """All per-layer metrics named in BENCHMARK.json from one traced phase.
    `spans` holds the benchmark's and (for search) the server's spans."""
    client = client or {}
    fwd_calls = _count(spans, "neural.mlp_forward")
    exact = lambda s: s.get("mode") == "exact"  # noqa: E731
    sampled = lambda s: s.get("mode") == "sampled"  # noqa: E731
    pairwise = [s for s in spans if s["name"] == "ranker.train_ranker" and s.get("pairs")
                and s.get("objective", "").startswith("pairwise")]
    out = {
        "search_service.build_index_s": _total(spans, "search_service.build_index"),
        "search_service.health_ms": client.get("health_ms", 0.0),
        "ranker.train_self_s": _self_outside(spans, "ranker.train_ranker", "neural."),
        "ranker.pairs": sum(s["pairs"] for s in pairwise),
        "ranker.epochs_run": _attr_sum(spans, "ranker.train_ranker", "epochs_run"),
        "ranker.model_load_s": _total(spans, "ranker.model_load"),
        "neural.mlp_forward_calls": fwd_calls,
        "neural.mlp_forward_us": (_total(spans, "neural.mlp_forward") / fwd_calls * 1e6
                                  if fwd_calls else 0.0),
        "semantic_match.train_dssm_s": _total(spans, "semantic_match.train_dssm"),
        "semantic_match.groups": _attr_sum(spans, "semantic_match.train_dssm", "groups"),
        "semantic_match.export_s": _total(spans, "semantic_match.export"),
        "graph_embed.exact_first_s": sum(_dur(s) for s in spans if s["name"] ==
                                         "graph_embed.train_first_order" and exact(s)),
        "graph_embed.exact_second_s": sum(_dur(s) for s in spans if s["name"] ==
                                          "graph_embed.train_second_order" and exact(s)),
        "graph_embed.exact_steps": sum(s.get("steps", 0) for s in spans if exact(s)),
        "graph_embed.sampling_s": (
            _self_outside(spans, "graph_embed.train_first_order", "kernels.", sampled)
            + _self_outside(spans, "graph_embed.train_second_order", "kernels.", sampled)),
        "graph_embed.table_load_s": _total(spans, "graph_embed.table_load"),
        "kernels.first_order_us_per_sample": _us_per_sample(spans, "kernels.first_order_epoch"),
        "kernels.second_order_us_per_sample": _us_per_sample(spans, "kernels.second_order_epoch"),
        "kernels.samples": (_attr_sum(spans, "kernels.first_order_epoch", "samples")
                            + _attr_sum(spans, "kernels.second_order_epoch", "samples")),
        "entity_graph.build_graph_s": _total(spans, "entity_graph.build_graph"),
        "entity_graph.vertices": _attr_sum(spans, "entity_graph.build_graph", "vertices"),
        "entity_graph.edges": _attr_sum(spans, "entity_graph.build_graph", "edges"),
        "evaluation.replay_s": _total(spans, "evaluation.replay"),
        "evaluation.scorer_calls": _attr_sum(spans, "evaluation.replay", "scorer_calls"),
        "corpus.synth_s": _total(spans, "corpus.synth"),
        "corpus.load_profiles_s": _total(spans, "corpus.load_profiles"),
        "corpus.load_sessions_s": _total(spans, "corpus.load_sessions"),
        "fileio.write_s": _total(spans, "fileio.write"),
        "fileio.bytes_written": _attr_sum(spans, "fileio.write", "bytes"),
        "generator.late_tail_ms": client.get("late_tail_ms", 0.0),
        "generator.requests_sent": client.get("sent", 0),
        "generator.requests_ok": client.get("ok", 0),
        "generator.requests_failed": client.get("failed", 0),
    }
    for name in ("mlp_forward_batch", "mlp_backward", "sgd_step"):
        out[f"neural.{name}_s"] = _total(spans, f"neural.{name}")
        out[f"neural.{name}_calls"] = _count(spans, f"neural.{name}")
    out.update(search_layer(spans, client))
    return out


def self_time_table(spans) -> list:
    """Rows of (span name, calls, total s, self s), largest self time first."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s["name"]]
        row[0] += 1
        row[1] += _dur(s)
        row[2] += selfs[s["id"]]
    return sorted(((n, c, t, st) for n, (c, t, st) in rows.items()), key=lambda r: -r[3])
