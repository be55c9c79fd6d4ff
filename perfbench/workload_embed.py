"""`embed_sampled`: sampled-mode LINE training on a ~8k-vertex skill graph.

Set-up generates a corpus with `corpus.synth_corpus` and builds its skill
co-occurrence graph. One pass trains first- and second-order tables for
one epoch each (`mode="sampled"`, d=50, 5 negatives). Only the embedding
kernels and the edge/negative sampling around them run. The graph has
many vertices for its edge count because conflict-free runs of samples
grow with vertex count, while a pass stays short enough to repeat.
The run sets up SETUPS times first, then spends the rest of its time on
passes over the last graph, so that the pass medians rest on as many
passes as the run can hold.
"""

from __future__ import annotations

import math
import time

from common import peak_rss_mb_self, timed_passes
from stats import median

CORPUS = dict(clusters=15, entities_per_cluster=1000, members=3000, sessions=1,
              impressions_per_session=1)
DIM = 50
NEGATIVES = 5
LEARNING_RATE = 0.025
SETUPS = 3  # a set-up takes ~0.5 s, so its median needs several


def setup(seed: int):
    """(skill graph, seconds)."""
    from talentrank import corpus, entity_graph

    start = time.perf_counter()
    profiles, _, _ = corpus.synth_corpus(corpus.SynthConfig(**CORPUS), seed)
    graph = entity_graph.build_graph(profiles, "skill")
    return graph, time.perf_counter() - start


def run_pass(graph, seed: int) -> tuple:
    """((first, second, context) tables, (first-order s, second-order s))."""
    from talentrank import cli, graph_embed

    def config(stage):
        return graph_embed.EmbedConfig(dim=DIM, learning_rate=LEARNING_RATE, epochs=1,
                                       mode="sampled", negatives_per_edge=NEGATIVES,
                                       seed=cli.stage_seed(seed, stage))

    start = time.perf_counter()
    first = graph_embed.train_first_order(graph, config("embed-first"))
    mid = time.perf_counter()
    second, context = graph_embed.train_second_order(graph, config("embed-second"))
    end = time.perf_counter()
    return (first, second, context), (mid - start, end - mid)


def samples_per_pass(graph) -> int:
    """Edge samples one pass draws: m first-order, 2m second-order."""
    return 3 * graph.num_edges


def check(graph, tables) -> list:
    failures = []
    vertices = graph.vertices
    for table in tables:
        if set(table.vectors) != vertices:
            failures.append(f"{table.kind}: covers {len(table.vectors)} of {len(vertices)} vertices")
        if not all(all(math.isfinite(x) for x in v) for v in table.vectors.values()):
            failures.append(f"{table.kind}: non-finite values")
        if table.history is not None and not all(math.isfinite(x) for x in table.history):
            failures.append(f"{table.kind}: non-finite loss history")
    return failures


def run(seed: int, seconds: float, trace: bool, work: str, trace_dir: str) -> dict:
    import layers
    import spans

    started = time.perf_counter()
    setups = []
    for _ in range(SETUPS):
        graph, elapsed = setup(seed)
        setups.append(elapsed)
    last = []

    def one_pass(i):
        last.clear()  # one pass's tables alive at a time, so memory stays flat
        tables, parts = run_pass(graph, seed)
        last.extend(tables)
        return parts

    parts = timed_passes(seconds - (time.perf_counter() - started), one_pass)
    passes = [sum(p) for p in parts]
    rss = peak_rss_mb_self()
    first, second, context = last
    failures = check(graph, (first, second, context))
    samples = samples_per_pass(graph)
    # a typical pass: each order's median time over the passes, summed
    typical_ms = (median([p[0] for p in parts]) + median([p[1] for p in parts])) * 1e3
    result = {
        "attempted": len(setups) + 2 * len(passes) + 1,
        "e2e": {"setup_s": median(setups), "peak_rss_mb": rss, "p50_ms": typical_ms,
                "throughput_per_s": samples / (typical_ms / 1e3)},
        "detail": [
            ("embed_samples_per_s", samples / (typical_ms / 1e3), "1/s", "higher",
             f"{samples} edge samples a pass, both orders"),
            ("embed_o1_loss", first.history[-1], "", "lower", "last-epoch mean sampled loss"),
            ("embed_o2_loss", second.history[-1], "", "lower", "last-epoch mean sampled loss"),
            ("vertices", len(graph.vertices), "count", "", ""),
            ("edges", graph.num_edges, "count", "", ""),
            ("slowest_pass_ms", max(passes) * 1e3, "ms", "lower", ""),
            ("passes", len(passes), "count", "", ""),
        ],
    }
    if trace:
        tracer = spans.Tracer()
        tracer.install(spans.layer_targets())
        traced_graph, setup_s = setup(seed)
        pass_ms = sum(run_pass(traced_graph, seed)[1]) * 1e3
        tracer.dump(f"{trace_dir}/spans.jsonl")
        recorded = tracer.records()
        result["layers"] = layers.layer_metrics(recorded)
        result["traced_e2e"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb_self(),
                                "p50_ms": pass_ms, "throughput_per_s": samples / (pass_ms / 1e3)}
        result["self_table"] = layers.self_time_table(recorded)
    result["failures"] = failures
    return result
