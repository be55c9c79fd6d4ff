"""In-memory span recorder and the wrappers that feed it.

Spans come only from this directory: wrappers are installed around the
program's public functions from outside, so the program runs unchanged
when tracing is off. Each span records name, start, end, parent and
request id (plus a few counts taken at the same boundary); spans stay in
memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, request_id, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request_id=None):
        """Record the enclosed block; yields a dict for counts."""
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = request_id if request_id is not None else parent[1]
        stack.append((sid, rid))
        attrs: dict = {}
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent[0], name, start, end, rid, attrs or None))

    def record(self, name: str, start: float, end: float, request_id=None, **attrs) -> None:
        """Add a root span the caller timed itself, such as a client request."""
        self.spans.append((next(self._ids), None, name, start, end, request_id, attrs or None))

    def wrap(self, fn, name: str, attrs=None, request_id=None):
        """Wrap `fn` so each call records a span.

        `attrs(args, kwargs, result)` returns counts for the span;
        `request_id(args)` starts a new request (a root span).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (None, None)
            sid = next(tracer._ids)
            rid = request_id(args) if request_id is not None else parent[1]
            stack.append((sid, rid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent[0], name, start, end, rid, {"error": True}))
                raise
            end = perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            tracer.spans.append((sid, parent[0], name, start, end, rid, extra))
            return result

        return wrapper

    def wrap_context(self, fn, name: str, attrs=None):
        """Wrap a context-manager factory; the span covers enter to exit.
        `attrs(value)` is read just before the inner context exits."""
        tracer = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with tracer.span(name) as extra:
                with fn(*args, **kwargs) as value:
                    yield value
                    if attrs is not None:
                        extra.update(attrs(value))

        return wrapper

    def install(self, targets) -> None:
        """Wrap each target and rebind it everywhere the program holds it.

        A target is (owner, attr, span name, kind, attrs). For a function
        bound into other modules by `from x import y`, every such binding
        in the `talentrank` package is replaced, so callers see the wrapper.
        Kind "imported" replaces only those bindings, so calls inside the
        defining module (one neural helper calling another) stay unspanned.
        """
        for owner, attr, name, kind, attrs in targets:
            raw = owner.__dict__[attr]
            if kind == "classmethod":
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, attrs)))
            elif kind == "method":
                setattr(owner, attr, self.wrap(raw, name, attrs))
            else:
                wrapped = (self.wrap_context(raw, name, attrs) if kind == "context"
                           else self.wrap(raw, name, attrs))
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "") or ""
                    if mod_name.split(".")[0] != "talentrank":
                        continue
                    if kind == "imported" and module is owner:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)

    def records(self) -> list:
        out = []
        for sid, parent, name, start, end, rid, attrs in self.spans:
            rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                   "request_id": rid}
            if attrs:
                rec.update(attrs)
            out.append(rec)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records():
                f.write(json.dumps(rec) + "\n")


def load(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _count_pairs(sessions) -> int:
    total = 0
    for s in sessions:
        pos = sum(1 for i in s.impressions if i.label == 1)
        total += pos * (len(s.impressions) - pos)
    return total


def _history_steps(table) -> int:
    return len(table.history) - 1 if table.history else 0


def layer_targets():
    """The program boundaries the benchmark traces, one per layer call."""
    from talentrank import (_kernels, corpus, entity_graph, evaluation, fileio, graph_embed,
                            neural, ranker, search_service, semantic_match)

    def embed_attrs(mode_arg, steps_of):
        def attrs(args, kwargs, result):
            mode = args[mode_arg].mode
            return {"mode": mode, "steps": steps_of(result) if mode == "exact" else 0}
        return attrs

    return [
        (corpus, "synth_corpus", "corpus.synth", "function", None),
        (corpus, "load_profiles", "corpus.load_profiles", "function", None),
        (corpus, "load_sessions", "corpus.load_sessions", "function", None),
        (fileio, "atomic_write", "fileio.write", "context", lambda f: {"bytes": f.tell()}),
        (entity_graph, "build_graph", "entity_graph.build_graph", "function",
         lambda a, k, g: {"vertices": len(g.vertices), "edges": g.num_edges}),
        (graph_embed, "train_first_order", "graph_embed.train_first_order", "function",
         embed_attrs(1, _history_steps)),
        (graph_embed, "train_second_order", "graph_embed.train_second_order", "function",
         embed_attrs(1, lambda r: _history_steps(r[0]))),
        (graph_embed.EmbeddingTable, "load", "graph_embed.table_load", "classmethod", None),
        (_kernels, "first_order_epoch", "kernels.first_order_epoch", "function",
         lambda a, k, r: {"samples": len(a[1])}),
        (_kernels, "second_order_epoch", "kernels.second_order_epoch", "function",
         lambda a, k, r: {"samples": len(a[2])}),
        (semantic_match, "train_dssm", "semantic_match.train_dssm", "function",
         lambda a, k, r: {"groups": sum(i.label for s in a[0] for i in s.impressions)}),
        (semantic_match, "export_embeddings", "semantic_match.export", "function", None),
        (ranker, "train_ranker", "ranker.train_ranker", "function",
         lambda a, k, m: {"pairs": _count_pairs(a[0]), "epochs_run": m.epochs_run,
                          "objective": m.objective}),
        (ranker.RankingModel, "load", "ranker.model_load", "classmethod", None),
        (ranker, "query_pools", "ranker.query_pools", "function", None),
        (neural, "mlp_forward", "neural.mlp_forward", "imported", None),
        (neural, "mlp_forward_batch", "neural.mlp_forward_batch", "imported", None),
        (neural, "mlp_backward", "neural.mlp_backward", "imported", None),
        (neural, "sgd_step", "neural.sgd_step", "imported", None),
        (evaluation, "replay", "evaluation.replay", "function",
         lambda a, k, r: {"scorer_calls": sum(len(s.impressions) for s in a[1])}),
        (search_service, "build_index", "search_service.build_index", "function", None),
        (search_service, "retrieve", "search_service.retrieve", "function",
         lambda a, k, r: {"candidates": len(r), "budget_full": int(len(r) >= a[2])}),
        (search_service, "second_pass_rank", "search_service.second_pass_rank", "function",
         lambda a, k, r: {"candidates": len(a[0])}),
        (search_service.SearchService, "handle_search", "search_service.handle_search",
         "method", None),
        (search_service._Handler, "_respond", "search_service.respond", "method", None),
    ]


def install_server_roots(tracer: Tracer) -> None:
    """Make each HTTP request a root span keyed by its X-Request-Id header,
    so server spans can be matched to the client's view of the request."""
    from talentrank import search_service

    handler = search_service._Handler
    handler.do_POST = tracer.wrap(
        handler.__dict__["do_POST"], "search_service.do_POST",
        request_id=lambda args: args[0].headers.get("X-Request-Id"))
    handler.do_GET = tracer.wrap(
        handler.__dict__["do_GET"], "search_service.do_GET",
        request_id=lambda args: args[0].headers.get("X-Request-Id"))
