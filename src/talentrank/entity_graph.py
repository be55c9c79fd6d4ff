"""Weighted entity co-occurrence graph built from member profiles, with the
empirical edge and conditional neighbor distributions used by embedding
training."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .corpus import NAMESPACES, EntityId, ProfileStore, entity_key
from .fileio import atomic_write, read_lines


class GraphError(ValueError):
    """Invalid graph construction or query."""


class WeightedGraph:
    """Undirected weighted graph over entity ids of a single namespace.

    Edge weights are positive integers (co-occurrence counts). Isolated
    vertices are allowed; self-loops are not.
    """

    def __init__(self, namespace: str, vertices, edge_weights: dict):
        if namespace not in NAMESPACES:
            raise GraphError(f"unknown namespace {namespace!r}")
        self.namespace = namespace
        self._vertices = frozenset(vertices)
        self._adj: dict[EntityId, dict[EntityId, int]] = {v: {} for v in self._vertices}
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
            self._adj[a][b] = w
            self._adj[b][a] = w
        self._degree = {v: sum(nbrs.values()) for v, nbrs in self._adj.items()}
        self.total_weight = sum(self._edges.values())

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> list:
        """Edges as (a, b, w) with a < b, sorted by (a, b)."""
        # (a, b) in EntityId order, compared as plain tuples
        edges = sorted(self._edges.items(),
                       key=lambda e: (e[0][0].namespace, e[0][0].id, e[0][1].namespace, e[0][1].id))
        return [(a, b, w) for (a, b), w in edges]

    def weight(self, a: EntityId, b: EntityId) -> int:
        """Symmetric edge weight; 0 when no edge is stored."""
        key = (a, b) if a < b else (b, a)
        return self._edges.get(key, 0)

    def neighbors(self, v: EntityId) -> dict:
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v.id} in namespace {self.namespace!r}")
        return dict(self._adj[v])

    def weighted_degree(self, v: EntityId) -> int:
        if v not in self._degree:
            raise GraphError(f"unknown vertex {v.id} in namespace {self.namespace!r}")
        return self._degree[v]

    def isolated_vertices(self) -> list:
        return sorted((v for v, d in self._degree.items() if d == 0), key=entity_key)


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
