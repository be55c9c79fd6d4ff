"""Weighted entity co-occurrence graph built from member profiles, with the
empirical edge and conditional neighbor distributions as reference
definitions, which acceptance criterion c03 checks; the trainers read the
graph's arrays."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import combinations

import numpy as np

from .corpus import NAMESPACES, EntityId, ProfileStore
from .fileio import load_artifact, write_lines


class GraphError(ValueError):
    """Invalid graph construction or query."""


class WeightedGraph:
    """Undirected weighted graph over entity ids of a single namespace.

    Edge weights are positive integers (co-occurrence counts). Isolated
    vertices are allowed; self-loops are not.

    Construction builds once, read-only, what the embedding trainers read:
    `order`, the tuple of vertices in EntityId order; `ei`, `ej`, each
    edge's endpoint positions in `order` with ei < ej, sorted by (ei, ej),
    which is edges() order; `w`, the float edge weights; and `degree`, the
    (n,) weighted degrees, exact while the sums stay below 2**53. No id
    goes into an integer array, so any id works. Weights are below 2**53,
    so `w` holds them exactly and edges() rebuilds them.
    """

    def __init__(self, namespace: str, vertices, edge_weights: dict):
        if namespace not in NAMESPACES:
            raise GraphError(f"unknown namespace {namespace!r}")
        self.namespace = namespace
        self._vertices = frozenset(vertices)
        edges: dict[tuple, int] = {}
        for (a, b), w in edge_weights.items():
            if a == b:
                raise GraphError(f"self-loop on vertex {a.id}")
            if a not in self._vertices or b not in self._vertices:
                raise GraphError(f"edge ({a.id}, {b.id}) references unknown vertex")
            if not isinstance(w, int) or not 1 <= w < 2**53:
                raise GraphError(f"edge ({a.id}, {b.id}) weight must be an integer in [1, 2**53), got {w!r}")
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise GraphError(f"duplicate edge ({key[0].id}, {key[1].id})")
            edges[key] = w
        self.total_weight = sum(edges.values())
        self.order = tuple(sorted(self._vertices))
        index = dict(zip(self.order, range(len(self.order))))
        m = len(edges)
        ei = np.fromiter((index[a] for a, _ in edges), dtype=np.int64, count=m)
        ej = np.fromiter((index[b] for _, b in edges), dtype=np.int64, count=m)
        w = np.fromiter(edges.values(), dtype=np.float64, count=m)
        by_position = np.lexsort((ej, ei))
        self.ei, self.ej, self.w = ei[by_position], ej[by_position], w[by_position]
        self.degree = (np.bincount(self.ei, weights=self.w, minlength=len(self.order))
                       + np.bincount(self.ej, weights=self.w, minlength=len(self.order)))
        for array in (self.ei, self.ej, self.w, self.degree):
            array.flags.writeable = False

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def num_edges(self) -> int:
        return len(self.w)

    def edges(self) -> list:
        """Edges as (a, b, w) with a < b, sorted by (a, b) in EntityId order."""
        return [(self.order[i], self.order[j], w) for i, j, w in
                zip(self.ei.tolist(), self.ej.tolist(), self.w.astype(np.int64).tolist())]

    def isolated_vertices(self) -> list:
        return [v for v, d in zip(self.order, self.degree) if d == 0]


def build_graph(profiles: ProfileStore, namespace: str, min_weight: int = 1) -> WeightedGraph:
    """Count, for every unordered entity pair, the members holding both.

    Vertices are all entity ids of the namespace seen on at least one
    profile; pairs co-occurring fewer than `min_weight` times are pruned.
    """
    if namespace not in NAMESPACES:
        raise GraphError(f"unknown namespace {namespace!r}")
    if min_weight < 1:
        raise GraphError(f"min_weight must be >= 1, got {min_weight}")
    counts: Counter = Counter()
    vertices = set()
    for profile in profiles:
        ents = sorted(profile.entities(namespace))
        vertices.update(ents)
        for pair in combinations(ents, 2):
            counts[pair] += 1
    edges = {pair: w for pair, w in counts.items() if w >= min_weight}
    return WeightedGraph(namespace, vertices, edges)


def empirical_first_order(graph: WeightedGraph) -> dict:
    """Edge -> w_ij / W over stored edges; sums to 1."""
    if graph.num_edges == 0:
        raise GraphError("graph has no edges")
    W = graph.total_weight
    return {(a, b): w / W for a, b, w in graph.edges()}


def empirical_second_order(graph: WeightedGraph, v: EntityId) -> dict:
    """Neighbor -> w_vj / W_v for vertex v; sums to 1."""
    if v not in graph.vertices:
        raise GraphError(f"unknown vertex {v.id} in namespace {graph.namespace!r}")
    p = bisect_left(graph.order, v)
    if graph.degree[p] == 0:
        raise GraphError(f"vertex {v.id} is isolated")
    # neighbors with ej == p precede p and those with ei == p follow it, each in edges() order
    below, above = graph.ej == p, graph.ei == p
    nbrs = np.concatenate([graph.ei[below], graph.ej[above]])
    shares = np.concatenate([graph.w[below], graph.w[above]]) / graph.degree[p]
    return dict(zip((graph.order[j] for j in nbrs.tolist()), shares.tolist()))


def save_graph(graph: WeightedGraph, path: str) -> None:
    """Write `a b w` lines sorted by (a, b). Isolated vertices are not
    representable in this format and are dropped."""
    write_lines(path, (f"{a.id} {b.id} {w}" for a, b, w in graph.edges()))


def load_graph(path: str, namespace: str) -> WeightedGraph:
    """Inverse of save_graph; ids are tagged with `namespace`. A line that
    is not three integers, or that repeats an edge, or a byte that is not
    UTF-8 raises GraphError."""
    def parse(lines):
        edges = {}
        for line in lines:
            a, b, w = (int(x) for x in line.split())
            a, b = EntityId(namespace, a), EntityId(namespace, b)
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise GraphError(f"duplicate edge ({a.id}, {b.id})")
            edges[key] = w
        return WeightedGraph(namespace, {v for key in edges for v in key}, edges)

    return load_artifact(path, "graph", GraphError, parse)
