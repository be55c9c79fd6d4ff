"""Weighted entity co-occurrence graph built from member profiles, with the
empirical edge and conditional neighbor distributions used by embedding
training."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from .corpus import NAMESPACES, EntityId, ProfileStore
from .fileio import atomic_write, read_lines


class GraphError(ValueError):
    """Invalid graph construction or query."""


class WeightedGraph:
    """Undirected weighted graph over entity ids of a single namespace.

    Edge weights are positive integers (co-occurrence counts). Isolated
    vertices are allowed; self-loops are not.

    Beside the exact edge dict, construction builds once, read-only, what
    the embedding trainers read: `order`, the tuple of vertices in EntityId
    order; `ei`, `ej`, each edge's endpoint positions in `order` with ei <
    ej, sorted by (ei, ej), which is edges() order; `w`, the float edge
    weights; and `degree`, the (n,) weighted degrees, exact while the sums
    stay below 2**53, as integer weights' do. No id goes into an integer
    array, so any id works.
    """

    def __init__(self, namespace: str, vertices, edge_weights: dict):
        if namespace not in NAMESPACES:
            raise GraphError(f"unknown namespace {namespace!r}")
        self.namespace = namespace
        self._vertices = frozenset(vertices)
        self._edges: dict[tuple, int] = {}
        for (a, b), w in edge_weights.items():
            if a == b:
                raise GraphError(f"self-loop on vertex {a.id}")
            if a not in self._vertices or b not in self._vertices:
                raise GraphError(f"edge ({a.id}, {b.id}) references unknown vertex")
            if not isinstance(w, int) or w < 1:
                raise GraphError(f"edge ({a.id}, {b.id}) weight must be a positive integer, got {w!r}")
            key = (a, b) if a < b else (b, a)
            if key in self._edges:
                raise GraphError(f"duplicate edge ({key[0].id}, {key[1].id})")
            self._edges[key] = w
        self.total_weight = sum(self._edges.values())
        self.order = tuple(sorted(self._vertices))
        index = dict(zip(self.order, range(len(self.order))))
        m = len(self._edges)
        ei = np.fromiter((index[a] for a, _ in self._edges), dtype=np.int64, count=m)
        ej = np.fromiter((index[b] for _, b in self._edges), dtype=np.int64, count=m)
        w = np.fromiter(self._edges.values(), dtype=np.float64, count=m)
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
        return len(self._edges)

    def edges(self) -> list:
        """Edges as (a, b, w) with a < b, sorted by (a, b) in EntityId order."""
        return [(a, b, w) for (a, b), w in sorted(self._edges.items())]

    def weight(self, a: EntityId, b: EntityId) -> int:
        """Symmetric edge weight; 0 when no edge is stored."""
        key = (a, b) if a < b else (b, a)
        return self._edges.get(key, 0)

    def neighbors(self, v: EntityId) -> dict:
        """Neighbor -> exact integer weight, by one scan of the edges."""
        if v not in self._vertices:
            raise GraphError(f"unknown vertex {v.id} in namespace {self.namespace!r}")
        return {b if a == v else a: w for (a, b), w in self._edges.items() if v in (a, b)}

    def weighted_degree(self, v: EntityId) -> int:
        return sum(self.neighbors(v).values())

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
    nbrs = graph.neighbors(v)
    if not nbrs:
        raise GraphError(f"vertex {v.id} is isolated")
    Wv = graph.weighted_degree(v)
    return {j: w / Wv for j, w in sorted(nbrs.items())}


def vertex_importance(graph: WeightedGraph, v: EntityId) -> float:
    """Vertex importance = weighted degree."""
    return float(graph.weighted_degree(v))


def save_graph(graph: WeightedGraph, path: str) -> None:
    """Write `a b w` lines sorted by (a, b). Isolated vertices are not
    representable in this format and are dropped."""
    with atomic_write(path) as f:
        for a, b, w in graph.edges():
            f.write(f"{a.id} {b.id} {w}\n")


def load_graph(path: str, namespace: str) -> WeightedGraph:
    """Inverse of save_graph; ids are tagged with `namespace`. A line that
    is not three integers, or that repeats an edge, or a byte that is not
    UTF-8 raises GraphError."""
    edges = {}
    for lineno, line in enumerate(read_lines(path, GraphError), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            a, b, w = (int(x) for x in parts)
            a, b = EntityId(namespace, a), EntityId(namespace, b)
        except ValueError:
            raise GraphError(f"line {lineno}: expected 'a b w' integers, got {line.strip()!r}") from None
        key = (a, b) if a < b else (b, a)
        if key in edges:
            raise GraphError(f"line {lineno}: duplicate edge ({a.id}, {b.id})")
        edges[key] = w
    return WeightedGraph(namespace, {v for key in edges for v in key}, edges)
