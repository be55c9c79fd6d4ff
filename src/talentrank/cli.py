"""Single command-line entry point for the toolkit's workflows.

Every subcommand is byte-deterministic given (inputs, flags, seed); the
global seed fans out to per-stage seeds by hashing the stage name, so
partial re-runs reproduce exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import sys

from . import entity_graph, evaluation, graph_embed, ranker, search_service, semantic_match
from .corpus import (
    NAMESPACES,
    CorpusError,
    SessionStore,
    SynthConfig,
    load_profiles,
    load_sessions,
    stream_profiles,
    synth_corpus,
    time_split,
)
from .fileio import LineReader, read_lines, write_lines
from .neural import ACTIVATIONS, OBJECTIVES, NeuralError, TrainConfig

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


def _list_of(item, choices=None):
    """argparse type: a comma-separated tuple of `item`s, each one of
    `choices` when given; "" is empty."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(item(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item.__name__} values, got {text!r}") from None
        for value in values:
            if choices is not None and value not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice {value!r} (choose from {', '.join(choices)})")
        return values
    return parse


def _table_arg(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected namespace=path, got {text!r}")
    ns, path = text.split("=", 1)
    if ns not in NAMESPACES:
        raise argparse.ArgumentTypeError(f"unknown namespace {ns!r} (choose from {', '.join(NAMESPACES)})")
    return ns, path


def _load_tables(pairs, schema=None) -> dict:
    """The `--tables` tables; a namespace given twice is a usage error, and
    one that `schema` does not name is a data error."""
    paths = {}
    for ns, path in pairs or []:
        if ns in paths:
            raise argparse.ArgumentError(None, f"--tables gives namespace {ns!r} more than once")
        paths[ns] = path
    for ns in paths:
        if schema is not None and ns not in schema.embedding_namespaces:
            raise ranker.RankerError(f"the model uses no embedding table for namespace {ns!r}")
    return {ns: graph_embed.EmbeddingTable.load(path, ns) for ns, path in paths.items()}


def _fields(p: argparse.ArgumentParser, cls):
    """The argument group of `p`'s flags that set `cls` fields. Each flag's
    dest is its field, and a flag left out is absent from the parsed
    namespace, so _config leaves the field at the class's default."""
    return p.add_argument_group(f"{cls.__name__} fields", "a flag left out keeps its default",
                                argument_default=argparse.SUPPRESS)


def _config(cls, args, **fixed):
    """A `cls` config from the field flags given and `fixed`."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if hasattr(args, f.name) and f.name not in fixed}
    return cls(**given, **fixed)


# --order: the LINE orders train-embed trains, concatenated in this order
_ORDERS = {"first": ("first",), "second": ("second",), "concat": ("first", "second")}

# `--config PATH`, inherited by every subcommand; _expand_config also parses
# it alone, with the rest of the command line unread, to inline the file first
_CONFIG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG.add_argument("--config", action="append", help=argparse.SUPPRESS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="talentrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, parents=[_CONFIG])

    p = command("synth", "generate a synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    g = _fields(p, SynthConfig)
    for flag in ("--clusters", "--entities-per-cluster", "--members", "--sessions",
                 "--impressions-per-session", "--entities-per-member", "--facet-size"):
        g.add_argument(flag, type=int)
    for flag in ("--noise", "--p-match-same", "--p-match-other"):
        g.add_argument(flag, type=float)

    p = command("build-graph", "build the entity co-occurrence graph")
    p.add_argument("--profiles", required=True)
    p.add_argument("--namespace", required=True, choices=NAMESPACES)
    p.add_argument("--out", required=True)
    p.add_argument("--min-weight", type=int, default=1)

    p = command("train-embed", "train graph embeddings")
    p.add_argument("--graph", required=True)
    p.add_argument("--namespace", required=True, choices=NAMESPACES)
    p.add_argument("--order", default="concat", choices=_ORDERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--context-out", help="where to write the second-order context table "
                   "(needs --order second or concat)")
    g = _fields(p, graph_embed.EmbedConfig)
    g.add_argument("--mode", choices=graph_embed.MODES)
    g.add_argument("--dim", type=int)
    g.add_argument("--learning-rate", type=float,
                   help="default: 1.0 in exact mode, 0.025 in sampled mode")
    g.add_argument("--epochs", type=int)
    g.add_argument("--negatives", type=int, dest="negatives_per_edge")

    p = command("train-dssm", "train the supervised two-arm model")
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    g = _fields(p, semantic_match.DssmConfig)
    g.add_argument("--arch", type=_list_of(int), dest="hidden_layers",
                   help="hidden layer widths, comma separated")
    g.add_argument("--output-dim", type=int)
    g.add_argument("--similarity", choices=semantic_match.SIMILARITIES)
    g.add_argument("--gamma", type=float)
    g.add_argument("--negatives", type=int)
    g.add_argument("--learning-rate", type=float)
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch-size", type=int)

    p = command("train-ranker", "train the learning-to-rank model")
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--valid-fraction", type=float, default=0.2,
                   help="tail fraction of the time-ordered sessions held out for early stopping")
    p.add_argument("--emb-measures", type=_list_of(str, ranker.EMBEDDING_MEASURES),
                   default=argparse.SUPPRESS, help="needs --tables; default: dot")
    p.add_argument("--hadamard", action="store_true", help="needs --tables")
    p.add_argument("--out", required=True)
    g = _fields(p, TrainConfig)
    g.add_argument("--objective", choices=OBJECTIVES)
    g.add_argument("--hidden", type=_list_of(int), dest="hidden_layers")
    g.add_argument("--activation", choices=ACTIVATIONS)
    g.add_argument("--learning-rate", type=float)
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch-size", type=int)
    g.add_argument("--l2", type=float, dest="l2_penalty")
    g.add_argument("--dropout", type=float, dest="dropout_rate")
    g.add_argument("--patience", type=int, dest="early_stop_patience")

    p = command("evaluate", "replay sessions and report metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--k", type=_list_of(int), default="1,5,25")
    p.add_argument("--denominator", default="min", choices=evaluation.DENOMINATORS)
    p.add_argument("--report", required=True)

    p = command("serve", "run the two-pass search HTTP service")
    p.add_argument("--model", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--tables", type=_table_arg, action="append", metavar="NS=PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--budget", type=int, default=search_service.DEFAULT_RETRIEVAL_BUDGET)

    p = command("export", "export supervised embedding dictionaries")
    p.add_argument("--dssm", required=True)
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_synth(args) -> int:
    profiles, sessions, oracle = synth_corpus(_config(SynthConfig, args),
                                              stage_seed(args.seed, "synth"))
    os.makedirs(args.out, exist_ok=True)
    profiles.save(os.path.join(args.out, "profiles.jsonl"))
    sessions.save(os.path.join(args.out, "sessions.jsonl"))
    payload = json.dumps({
        "p_match_same": oracle.p_match_same,
        "p_match_other": oracle.p_match_other,
        "member_home": {str(k): v for k, v in oracle.member_home.items()},
        "session_cluster": {str(k): v for k, v in oracle.session_cluster.items()},
        "entity_cluster": {f"{e.namespace}:{e.id}": c for e, c in oracle.entity_cluster.items()},
    }, sort_keys=True, indent=0)
    write_lines(os.path.join(args.out, "oracle.json"), [payload])
    return 0


def _cmd_build_graph(args) -> int:
    profiles = load_profiles(args.profiles)
    graph = entity_graph.build_graph(profiles, args.namespace, args.min_weight)
    entity_graph.save_graph(graph, args.out)
    return 0


def _cmd_train_embed(args) -> int:
    if args.context_out and "second" not in _ORDERS[args.order]:
        raise argparse.ArgumentError(None, f"--context-out needs a second-order table, "
                                           f"but --order {args.order} trains none")
    graph = entity_graph.load_graph(args.graph, args.namespace)
    tables = []
    for order in _ORDERS[args.order]:
        config = _config(graph_embed.EmbedConfig, args,
                         seed=stage_seed(args.seed, f"embed-{order}"))
        if order == "first":
            tables.append(graph_embed.train_first_order(graph, config))
            continue
        table, context = graph_embed.train_second_order(graph, config)
        tables.append(table)
        if args.context_out:
            context.save(args.context_out)
    (graph_embed.concat_embeddings(*tables) if len(tables) > 1 else tables[0]).save(args.out)
    return 0


def _cmd_train_dssm(args) -> int:
    profiles = load_profiles(args.profiles)
    sessions = load_sessions(args.sessions)
    config = _config(semantic_match.DssmConfig, args, seed=stage_seed(args.seed, "dssm"))
    semantic_match.train_dssm(sessions, profiles, config).save(args.out)
    return 0


def _cmd_train_ranker(args) -> int:
    for flag, given in (("--emb-measures", "emb_measures" in args), ("--hadamard", args.hadamard)):
        if given and not args.tables:
            raise argparse.ArgumentError(None, f"{flag} needs --tables")
    if not 0.0 <= args.valid_fraction < 1.0:
        raise argparse.ArgumentError(
            None, f"--valid-fraction must be in [0, 1), got {args.valid_fraction}")
    profiles = load_profiles(args.profiles)
    sessions = load_sessions(args.sessions)
    tables = _load_tables(args.tables)
    hadamard_dim = 0
    if args.hadamard:
        dims = {t.dim for t in tables.values()}
        if len(dims) != 1:
            raise ranker.RankerError("hadamard features require tables of equal dim")
        hadamard_dim = dims.pop()
    schema = ranker.FeatureSchema(
        embedding_namespaces=tuple(sorted(tables)),
        embedding_measures=(getattr(args, "emb_measures", ranker.FeatureSchema.embedding_measures)
                            if tables else ()),
        include_hadamard=args.hadamard,
        embedding_dim=hadamard_dim,
    )
    config = _config(TrainConfig, args, seed=stage_seed(args.seed, "ranker"))
    if args.valid_fraction > 0.0:
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
    tables = _load_tables(args.tables, model.schema)
    scorer = ranker.make_scorer(model, tables)
    metrics = evaluation.replay(scorer, sessions, profiles, args.k, denominator=args.denominator)
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
    # the port is bound before anything loads, so a bad one fails first; the
    # socket listens only once the service is built and checked
    server = search_service.SearchHTTPServer(None, host=args.host, port=args.port,
                                             bind_and_activate=False)
    try:
        server.server_bind()
        model = ranker.RankingModel.load(args.model)
        # the profiles stream into the block: no profile store is built
        block = search_service.build_index(stream_profiles(args.profiles),
                                           _load_tables(args.tables, model.schema))
        server.service = search_service.SearchService(block, model,
                                                      retrieval_budget=args.budget)
        server.server_activate()
        print(f"serving on http://{args.host}:{server.port}", flush=True)
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
    """Inline the `--config` file's `key=value` lines as flags ahead of the
    command's own, so explicit flags win and the parser rejects unknown
    keys. `--config` is found as argparse finds it: as `--config PATH`,
    `--config=PATH` or an abbreviation. A store_true flag takes `true`
    (flag given) or `false` (flag omitted)."""
    try:
        paths = _CONFIG.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # let the full parse report the missing value
    if not paths:
        return argv
    if len(paths) > 1:
        raise CorpusError("--config given more than once")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    switches = {flag for action in subparsers.choices[argv[0]]._actions
                if isinstance(action, argparse._StoreTrueAction) for flag in action.option_strings}
    injected = []
    lines = LineReader(read_lines(paths[0]))
    try:
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line must be key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = f"--{key.replace('_', '-')}"
            if flag not in switches:
                injected.extend([flag, value])
            elif value.lower() == "true":
                injected.append(flag)
            elif value.lower() != "false":
                raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
    except ValueError as e:
        raise CorpusError(f"{paths[0]}, line {lines.number}: {e}") from None
    return argv[:1] + injected + argv[1:]


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
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentError as e:  # flags that do not go together
        print(f"talentrank {args.command}: error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except _DATA_ERRORS as e:
        print(f"talentrank {args.command}: {e}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
