"""`offline`: the modeler's loop, every stage through the CLI, with the
ranker at the size of acceptance criterion c08 (600 members, 2,000
sessions of 10 impressions, a 100-100-100 MLP, batch 256).

Set-up is the `synth` stage. One pass is: build-graph skill/title,
train-embed exact concat for both, train-dssm + export (on the oldest
300 training sessions, near the c10 size), train-ranker pairwise hinge
on the graph tables, train-ranker pointwise on the exported supervised
tables, and evaluate on a held-out, time-split session file the
benchmark writes. No HTTP and no sampled kernel runs. Set-ups are
interleaved with the passes, so both medians span the whole run.
"""

from __future__ import annotations

import math
import os
import time

from common import StageFailed, cli_stage, peak_rss_mb_self, timed_passes
from stats import median

MEMBERS = 600
SESSIONS = 2000
SETUPS_PER_PASS = 2  # synth takes ~0.3 s, so its median needs several
HELD_OUT = 0.3  # newest share of sessions kept out of training for evaluate
DSSM_SESSIONS = 300
DSSM_EPOCHS = 1
EMBED_EPOCHS = 100
EPOCHS = 5  # about what c08's early stop runs; three passes fit in a 30 s run
PATIENCE = EPOCHS  # no early stop, so every seed trains the same number of epochs


def setup(work: str, seed: int, tracer=None) -> float:
    corpus_dir = os.path.join(work, "corpus")
    return cli_stage(["synth", "--seed", str(seed), "--out", corpus_dir, "--members",
                      str(MEMBERS), "--sessions", str(SESSIONS),
                      "--impressions-per-session", "10"], tracer)


def split_sessions(work: str) -> None:
    from talentrank import corpus

    sessions = corpus.load_sessions(os.path.join(work, "corpus", "sessions.jsonl"))
    train, test = corpus.time_split(sessions, 1.0 - HELD_OUT)
    train.save(os.path.join(work, "train.jsonl"))
    test.save(os.path.join(work, "test.jsonl"))
    corpus.SessionStore(train.sessions()[:DSSM_SESSIONS]).save(os.path.join(work, "dssm.jsonl"))


def run_pass(work: str, out: str, seed: int, tracer=None) -> dict:
    """Metric name -> wall seconds of its stages in one pass, with
    artifacts under `out`; "stages" counts the CLI runs."""
    os.makedirs(out, exist_ok=True)
    profiles = os.path.join(work, "corpus", "profiles.jsonl")
    train = os.path.join(work, "train.jsonl")
    art = lambda name: os.path.join(out, name)  # noqa: E731
    graph_tables = ["--tables", f"skill={art('skill.emb')}", "--tables", f"title={art('title.emb')}"]
    ranker_flags = ["--profiles", profiles, "--sessions", train, "--hidden", "100,100,100",
                    "--batch-size", "256", "--epochs", str(EPOCHS), "--patience", str(PATIENCE),
                    "--seed", str(seed)]
    t: dict = {"stages": 0}

    def stage(key, argv):
        t[key] = t.get(key, 0.0) + cli_stage(argv, tracer)
        t["stages"] += 1

    for ns in ("skill", "title"):
        stage("build_graph_s", ["build-graph", "--profiles", profiles, "--namespace", ns,
                                "--out", art(f"{ns}.graph")])
        stage("embed_exact_s", ["train-embed", "--graph", art(f"{ns}.graph"), "--namespace", ns,
                                "--mode", "exact", "--order", "concat",
                                "--epochs", str(EMBED_EPOCHS), "--seed", str(seed),
                                "--out", art(f"{ns}.emb")])
    stage("dssm_s", ["train-dssm", "--profiles", profiles,
                     "--sessions", os.path.join(work, "dssm.jsonl"),
                     "--epochs", str(DSSM_EPOCHS), "--seed", str(seed), "--out", art("dssm.txt")])
    stage("dssm_s", ["export", "--dssm", art("dssm.txt"), "--out", art("supervised")])
    stage("ranker_pairwise_s", ["train-ranker", *ranker_flags, *graph_tables,
                                "--objective", "pairwise_hinge", "--out", art("pairwise.txt")])
    stage("ranker_pointwise_s", [
        "train-ranker", *ranker_flags, "--objective", "pointwise", "--out", art("pointwise.txt"),
        "--tables", f"skill={art('supervised/supervised_skill.emb')}",
        "--tables", f"title={art('supervised/supervised_title.emb')}"])
    stage("evaluate_s", ["evaluate", "--model", art("pairwise.txt"), "--profiles", profiles,
                         "--sessions", os.path.join(work, "test.jsonl"), *graph_tables,
                         "--k", "1,5,25", "--report", art("report.csv")])
    return t


def check(work: str, out: str) -> tuple:
    """(failure messages, held-out AUC): each artifact reloads through its
    own loader and the report parses."""
    from talentrank import corpus, entity_graph, graph_embed, ranker, semantic_match

    art = lambda name: os.path.join(out, name)  # noqa: E731
    table = graph_embed.EmbeddingTable.load
    loads = [
        ("profiles", lambda: len(corpus.load_profiles(
            os.path.join(work, "corpus", "profiles.jsonl")))),
        ("sessions", lambda: len(corpus.load_sessions(os.path.join(work, "test.jsonl")))),
        ("dssm", lambda: semantic_match.DssmModel.load(art("dssm.txt")).output_dim),
        ("pairwise model", lambda: ranker.RankingModel.load(art("pairwise.txt")).net.input_width),
        ("pointwise model",
         lambda: ranker.RankingModel.load(art("pointwise.txt")).net.input_width),
    ]
    for ns in ("skill", "title"):
        loads += [
            (f"{ns} graph", lambda ns=ns: entity_graph.load_graph(art(f"{ns}.graph"), ns).num_edges),
            (f"{ns} table", lambda ns=ns: len(table(art(f"{ns}.emb"), ns))),
            (f"supervised {ns} table",
             lambda ns=ns: len(table(art(f"supervised/supervised_{ns}.emb"), ns))),
        ]
    failures = []
    for what, size in loads:
        try:
            if size() < 1:
                failures.append(f"{what}: reloaded empty")
        except (ValueError, OSError, IndexError) as e:
            failures.append(f"{what}: does not reload ({e})")
    auc = None
    try:
        with open(art("report.csv"), encoding="utf-8") as f:
            rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
        values = {(m, k): float(v) for m, k, v in rows}
        auc = values[("auc", "")]
        if not 0.0 <= auc <= 1.0 or any(math.isnan(v) for v in values.values()):
            failures.append(f"report: auc {auc} out of range")
    except (OSError, ValueError, KeyError) as e:
        failures.append(f"report: does not parse ({e})")
    return failures, auc


def run(seed: int, seconds: float, trace: bool, work: str, trace_dir: str) -> dict:
    import layers
    import spans

    failures = []
    attempted = 0
    setups = []
    stage_times = []
    try:
        def one_pass(i):
            nonlocal attempted
            for _ in range(SETUPS_PER_PASS):
                attempted += 1
                setups.append(setup(work, seed))
            split_sessions(work)
            start = time.perf_counter()
            stage_times.append(run_pass(work, os.path.join(work, f"pass{i}"), seed))
            return time.perf_counter() - start

        passes = timed_passes(seconds, one_pass)
        attempted += sum(t.pop("stages") for t in stage_times)
    except StageFailed as e:
        return {"attempted": attempted + 1, "failures": failures + [str(e)]}
    rss = peak_rss_mb_self()
    stage_medians = {k: median([t[k] for t in stage_times]) for k in stage_times[0]}
    typical_ms = sum(stage_medians.values()) * 1e3
    last = os.path.join(work, f"pass{len(passes) - 1}")
    found, auc = check(work, last)
    failures += found
    attempted += 1
    pass_ms = [x * 1e3 for x in passes]
    result = {
        "attempted": attempted,
        "e2e": {"setup_s": median(setups), "peak_rss_mb": rss, "p50_ms": typical_ms,
                "throughput_per_s": SESSIONS / (typical_ms / 1e3)},
        "detail": [(k, v, "s", "lower", "median over passes") for k, v in stage_medians.items()]
        + [("replay_auc", auc, "", "higher", "held-out AUC from the evaluate report"),
           ("slowest_pass_ms", max(pass_ms), "ms", "lower", ""),
           ("passes", len(passes), "count", "", "")],
    }
    if trace:
        tracer = spans.Tracer()
        tracer.install(spans.layer_targets())
        traced_work = os.path.join(work, "traced")
        os.makedirs(traced_work)
        setup_s = setup(traced_work, seed, tracer)
        split_sessions(traced_work)
        start = time.perf_counter()
        run_pass(traced_work, os.path.join(traced_work, "pass0"), seed, tracer)
        pass_ms = (time.perf_counter() - start) * 1e3
        tracer.dump(os.path.join(trace_dir, "spans.jsonl"))
        recorded = tracer.records()
        result["layers"] = layers.layer_metrics(recorded)
        result["traced_e2e"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb_self(),
                                "p50_ms": pass_ms, "throughput_per_s": SESSIONS / (pass_ms / 1e3)}
        result["self_table"] = layers.self_time_table(recorded)
    result["failures"] = failures
    return result
