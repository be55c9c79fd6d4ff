"""Single command-line entry point for the toolkit's workflows.

Every subcommand is byte-deterministic given (inputs, flags, seed); the
global seed fans out to per-stage seeds by hashing the stage name, so
partial re-runs reproduce exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys

from . import entity_graph, evaluation, graph_embed, ranker, search_service, semantic_match
from .corpus import (
    CorpusError,
    SessionStore,
    SynthConfig,
    load_profiles,
    load_sessions,
    synth_corpus,
    time_split,
)
from .fileio import atomic_write, read_lines
from .neural import NeuralError, TrainConfig

USAGE_ERROR = 1
DATA_ERROR = 2

_DATA_ERRORS = (
    CorpusError,
    entity_graph.GraphError,
    graph_embed.EmbeddingError,
    NeuralError,
    ranker.RankerError,
    semantic_match.SemanticError,
    evaluation.EvaluationError,
    search_service.ServiceError,
    OSError,
)


def stage_seed(global_seed: int, stage: str) -> int:
    """Fan a global seed out to a stage-specific 32-bit seed."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip()]


def _table_arg(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected namespace=path, got {text!r}")
    ns, path = text.split("=", 1)
    return ns, path


def _load_tables(pairs) -> dict:
    return {ns: graph_embed.EmbeddingTable.load(path, ns) for ns, path in pairs or []}


def _build_parser() -> _Parser:
    parser = _Parser(prog="talentrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--entities-per-cluster", type=int, default=30)
    p.add_argument("--members", type=int, default=1000)
    p.add_argument("--sessions", type=int, default=200)
    p.add_argument("--impressions-per-session", type=int, default=10)
    p.add_argument("--entities-per-member", type=int, default=4)
    p.add_argument("--facet-size", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--p-match-same", type=float, default=0.8)
    p.add_argument("--p-match-other", type=float, default=0.05)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("build-graph", help="build the entity co-occurrence graph")
    p.add_argument("--profiles", required=True)
    p.add_argument("--namespace", required=True, choices=["skill", "title", "company"])
    p.add_argument("--out", required=True)
    p.add_argument("--min-weight", type=int, default=1)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("train-embed", help="train graph embeddings")
    p.add_argument("--graph", required=True)
    p.add_argument("--namespace", required=True, choices=["skill", "title", "company"])
    p.add_argument("--order", default="concat", choices=["first", "second", "concat"])
    p.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--learning-rate", type=float, default=None,
                   help="default: 1.0 in exact mode, 0.025 in sampled mode")
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--context-out", help="where to write the second-order context table")
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("train-dssm", help="train the supervised two-arm model")
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--arch", default="200,100", help="hidden layer widths, comma separated")
    p.add_argument("--output-dim", type=int, default=50)
    p.add_argument("--similarity", default="cosine", choices=["dot", "cosine"])
    p.add_argument("--gamma", type=float, default=10.0)
    p.add_argument("--negatives", type=int, default=4)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("train-ranker", help="train the learning-to-rank model")
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--objective", default="pairwise_hinge",
                   choices=["pointwise", "pairwise_hinge", "pairwise_logistic"])
    p.add_argument("--hidden", default="100,100,100")
    p.add_argument("--activation", default="relu", choices=["relu", "tanh", "identity"])
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--valid-fraction", type=float, default=0.2,
                   help="tail fraction of the time-ordered sessions held out for early stopping")
    p.add_argument("--emb-measures", default="dot")
    p.add_argument("--hadamard", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("evaluate", help="replay sessions and report metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--k", default="1,5,25")
    p.add_argument("--denominator", default="min", choices=["min", "k"])
    p.add_argument("--report", required=True)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("serve", help="run the two-pass search HTTP service")
    p.add_argument("--model", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--budget", type=int, default=search_service.DEFAULT_RETRIEVAL_BUDGET)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("export", help="export supervised embedding dictionaries")
    p.add_argument("--dssm", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help=argparse.SUPPRESS)

    return parser


def _cmd_synth(args) -> int:
    config = SynthConfig(
        clusters=args.clusters,
        entities_per_cluster=args.entities_per_cluster,
        members=args.members,
        sessions=args.sessions,
        impressions_per_session=args.impressions_per_session,
        entities_per_member=args.entities_per_member,
        facet_size=args.facet_size,
        noise=args.noise,
        p_match_same=args.p_match_same,
        p_match_other=args.p_match_other,
    )
    profiles, sessions, oracle = synth_corpus(config, stage_seed(args.seed, "synth"))
    os.makedirs(args.out, exist_ok=True)
    profiles.save(os.path.join(args.out, "profiles.jsonl"))
    sessions.save(os.path.join(args.out, "sessions.jsonl"))
    payload = {
        "p_match_same": oracle.p_match_same,
        "p_match_other": oracle.p_match_other,
        "member_home": {str(k): v for k, v in oracle.member_home.items()},
        "session_cluster": {str(k): v for k, v in oracle.session_cluster.items()},
        "entity_cluster": {f"{e.namespace}:{e.id}": c for e, c in oracle.entity_cluster.items()},
    }
    with atomic_write(os.path.join(args.out, "oracle.json")) as f:
        json.dump(payload, f, sort_keys=True, indent=0)
        f.write("\n")
    return 0


def _cmd_build_graph(args) -> int:
    profiles = load_profiles(args.profiles)
    graph = entity_graph.build_graph(profiles, args.namespace, args.min_weight)
    entity_graph.save_graph(graph, args.out)
    return 0


def _cmd_train_embed(args) -> int:
    graph = entity_graph.load_graph(args.graph, args.namespace)

    def config(stage: str) -> graph_embed.EmbedConfig:
        return graph_embed.EmbedConfig(
            dim=args.dim,
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            mode=args.mode,
            negatives_per_edge=args.negatives,
            seed=stage_seed(args.seed, stage),
        )

    if args.order == "first":
        table = graph_embed.train_first_order(graph, config("embed-first"))
    elif args.order == "second":
        table, context = graph_embed.train_second_order(graph, config("embed-second"))
        if args.context_out:
            context.save(args.context_out)
    else:
        first = graph_embed.train_first_order(graph, config("embed-first"))
        second, context = graph_embed.train_second_order(graph, config("embed-second"))
        if args.context_out:
            context.save(args.context_out)
        table = graph_embed.concat_embeddings(first, second)
    table.save(args.out)
    return 0


def _cmd_train_dssm(args) -> int:
    profiles = load_profiles(args.profiles)
    sessions = load_sessions(args.sessions)
    config = semantic_match.DssmConfig(
        hidden_layers=tuple(_int_list(args.arch)),
        output_dim=args.output_dim,
        similarity=args.similarity,
        gamma=args.gamma,
        negatives=args.negatives,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=stage_seed(args.seed, "dssm"),
    )
    model = semantic_match.train_dssm(sessions, profiles, config)
    model.save(args.out)
    return 0


def _cmd_train_ranker(args) -> int:
    profiles = load_profiles(args.profiles)
    sessions = load_sessions(args.sessions)
    tables = _load_tables(args.tables)
    measures = tuple(m for m in args.emb_measures.split(",") if m)
    emb_namespaces = tuple(sorted(tables))
    hadamard_dim = 0
    if args.hadamard and tables:
        dims = {t.dim for t in tables.values()}
        if len(dims) != 1:
            raise ranker.RankerError("hadamard features require tables of equal dim")
        hadamard_dim = dims.pop()
    schema = ranker.FeatureSchema(
        embedding_namespaces=emb_namespaces,
        embedding_measures=measures if emb_namespaces else (),
        include_hadamard=args.hadamard and bool(tables),
        embedding_dim=hadamard_dim,
    )
    config = TrainConfig(
        objective=args.objective,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        l2_penalty=args.l2,
        dropout_rate=args.dropout,
        early_stop_patience=args.patience,
        seed=stage_seed(args.seed, "ranker"),
        hidden_layers=tuple(_int_list(args.hidden)),
        activation=args.activation,
    )
    if 0.0 < args.valid_fraction < 1.0:
        train, valid = time_split(sessions, 1.0 - args.valid_fraction)
    else:
        train, valid = sessions, SessionStore()
    model = ranker.train_ranker(train, valid, profiles, tables, schema, config)
    model.save(args.out)
    return 0


def _cmd_evaluate(args) -> int:
    model = ranker.RankingModel.load(args.model)
    profiles = load_profiles(args.profiles)
    sessions = load_sessions(args.sessions)
    tables = _load_tables(args.tables)
    scorer = ranker.make_scorer(model, tables)
    metrics = evaluation.replay(scorer, sessions, profiles, _int_list(args.k),
                                denominator=args.denominator)
    evaluation.write_report(metrics, args.report)
    print(evaluation.format_metrics_table(metrics))
    return 0


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 64 MiB.

    Left dynamic, glibc raises both when a large mmapped block is freed, so
    request speed would depend on what loading happened to free: unraised,
    every ~800 KB temporary of the second pass is mmapped and unmapped
    again, hundreds of page faults per request. Does nothing off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _cmd_serve(args) -> int:
    _pin_malloc_thresholds()
    model = ranker.RankingModel.load(args.model)
    profiles = load_profiles(args.profiles)
    tables = _load_tables(args.tables)
    index = search_service.build_index(profiles, tables)
    service = search_service.SearchService(index, model, retrieval_budget=args.budget)
    server = search_service.SearchHTTPServer(service, host=args.host, port=args.port)
    print(f"serving on http://{args.host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_export(args) -> int:
    model = semantic_match.DssmModel.load(args.dssm)
    tables = semantic_match.export_embeddings(model)
    os.makedirs(args.out, exist_ok=True)
    for ns, table in tables.items():
        table.save(os.path.join(args.out, f"supervised_{ns}.emb"))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "build-graph": _cmd_build_graph,
    "train-embed": _cmd_train_embed,
    "train-dssm": _cmd_train_dssm,
    "train-ranker": _cmd_train_ranker,
    "evaluate": _cmd_evaluate,
    "serve": _cmd_serve,
    "export": _cmd_export,
}


def _expand_config(argv: list, parser: argparse.ArgumentParser) -> list:
    """Inline `--config key=value-file` entries as flags; explicit flags
    given later win, and unknown keys are rejected by the parser. A
    store_true flag takes `true` (flag given) or `false` (flag omitted)."""
    if "--config" not in argv:
        return argv
    if argv.count("--config") > 1:
        raise CorpusError("--config given more than once")
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv  # let argparse report the missing value
    path = argv[i + 1]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    switches = {flag for action in subparsers.choices[argv[0]]._actions
                if isinstance(action, argparse._StoreTrueAction) for flag in action.option_strings}
    injected = []
    for raw in read_lines(path, CorpusError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusError(f"config line must be key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = f"--{key.replace('_', '-')}"
        if flag not in switches:
            injected.extend([flag, value])
        elif value.lower() == "true":
            injected.append(flag)
        elif value.lower() != "false":
            raise CorpusError(f"config key {key!r} takes true or false, got {value!r}")
    return argv[:1] + injected + argv[1:i] + argv[i + 2 :]


def run(argv) -> int:
    parser = _build_parser()
    argv = list(argv)
    if argv and argv[0] in _COMMANDS:
        try:
            argv = _expand_config(argv, parser)
        except (OSError, CorpusError) as e:
            print(f"talentrank: bad config file: {e}", file=sys.stderr)
            return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as e:
        print(f"talentrank {args.command}: {e}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))
