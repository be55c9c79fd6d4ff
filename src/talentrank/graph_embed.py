"""First- and second-order proximity embeddings over the entity graph,
pooling of entity bags, and the similarity measures used as ranking
features.

Exact mode minimizes the KL objectives with full-batch gradient descent
(learning rate halves whenever a step would increase the objective, so the
accepted-step history is nonincreasing by construction). Sampled mode runs
LINE-style edge sampling with negative sampling for scale; its inner loops
live in _kernels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .corpus import EntityId
from .entity_graph import GraphError, WeightedGraph
from .fileio import atomic_write, fmt_float, read_lines
from .neural import sigmoid

MODES = ("exact", "sampled")
TABLE_KINDS = ("first_order", "second_order_vertex", "second_order_context", "concat", "supervised")

_MIN_LR = 1e-14
NOISE_POWER = 0.75
# Exact second order holds dense n x n float64 arrays (the empirical
# neighbor distribution, logits, log-softmax and the terms built from them,
# several at once): 8 * n**2 bytes each, 128 MiB at 4,096 vertices and
# ~550 MB at 8,290. Larger graphs are refused; sampled mode has no bound.
MAX_EXACT_VERTICES = 4096


class EmbeddingError(ValueError):
    """Invalid embedding configuration or lookup."""


class EmbeddingTable:
    """Entity id -> d-dimensional float64 vector: the vector of entities[r]
    is row r of `matrix`. Shape and finiteness are checked once, on the
    whole matrix, and the vectors are row views of one private copy of it;
    an entity given twice is refused."""

    def __init__(self, dim: int, kind: str, entities, matrix, history=None):
        if dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {dim}")
        if kind not in TABLE_KINDS:
            raise EmbeddingError(f"unknown table kind {kind!r}")
        entities = list(entities)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.shape != (len(entities), dim):
            raise EmbeddingError(f"matrix has shape {matrix.shape}, expected ({len(entities)}, {dim})")
        bad = ~np.isfinite(matrix).all(axis=1)
        if bad.any():
            raise EmbeddingError(f"entity {entities[int(np.argmax(bad))].id}: vector has non-finite entries")
        self.dim = dim
        self.kind = kind
        self.vectors: dict[EntityId, np.ndarray] = dict(zip(entities, matrix))
        if len(self.vectors) < len(entities):
            repeated = next(e for e, count in Counter(entities).items() if count > 1)
            raise EmbeddingError(f"duplicate entity {repeated.id}")
        self.history = history  # per-step objective values when trained

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, e: EntityId) -> bool:
        return e in self.vectors

    def __getitem__(self, e: EntityId) -> np.ndarray:
        try:
            return self.vectors[e]
        except KeyError:
            raise KeyError(f"no vector for entity ({e.namespace}, {e.id})") from None

    def entity_ids(self) -> list:
        return sorted(self.vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        if self.dim != other.dim or self.kind != other.kind:
            return False
        if set(self.vectors) != set(other.vectors):
            return False
        return all(np.array_equal(self.vectors[e], other.vectors[e]) for e in self.vectors)

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            f.write(f"dim={self.dim} kind={self.kind}\n")
            for e in self.entity_ids():
                f.write(f"{e.id} " + " ".join(fmt_float(x) for x in self.vectors[e]) + "\n")

    @classmethod
    def load(cls, path: str, namespace: str) -> "EmbeddingTable":
        lines = read_lines(path, EmbeddingError)
        header = lines[0].split() if lines else []
        try:
            dim = int(header[0].removeprefix("dim="))
            kind = header[1].removeprefix("kind=")
        except (IndexError, ValueError):
            raise EmbeddingError(f"bad embedding file header: {' '.join(header)!r}") from None
        entities, rows, seen = [], [], set()
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise EmbeddingError(f"line {lineno}: expected id and {dim} values")
            try:
                entity = EntityId(namespace, int(parts[0]))
                row = [float(x) for x in parts[1:]]
            except ValueError as e:
                raise EmbeddingError(f"line {lineno}: {e}") from None
            if entity in seen:
                raise EmbeddingError(f"line {lineno}: duplicate entity {entity.id}")
            seen.add(entity)
            entities.append(entity)
            rows.append(row)
        # no rows read as a (0, dim) matrix; the constructor refuses a dim below 1
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), max(dim, 0))
        return cls(dim, kind, entities, matrix)


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 50
    learning_rate: float | None = None  # None: 1.0 in exact mode, LINE's 0.025 in sampled mode
    epochs: int = 400
    mode: str = "exact"
    negatives_per_edge: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate", 0.025 if self.mode == "sampled" else 1.0)
        if self.dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.learning_rate < np.inf:
            raise EmbeddingError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise EmbeddingError(f"epochs must be >= 0, got {self.epochs}")
        if self.mode not in MODES:
            raise EmbeddingError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.negatives_per_edge < 1:
            raise EmbeddingError(f"negatives_per_edge must be >= 1, got {self.negatives_per_edge}")

    @property
    def scale(self) -> float:
        return 0.5 / self.dim


def _logsumexp(x: np.ndarray, axis=None):
    if axis is None:
        m = float(np.max(x))
        return m + float(np.log(np.sum(np.exp(x - m))))
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)), axis=axis)


def _vertex_order(graph: WeightedGraph):
    """(graph.order, vertex -> its position there)."""
    return graph.order, dict(zip(graph.order, range(len(graph.order))))


def _edge_arrays(graph: WeightedGraph, index: dict):
    """(ei, ej, w) of the graph, its vertices numbered as `index`, which
    _vertex_order gives."""
    return graph.ei, graph.ej, graph.w


def _matrix_from_table(table: EmbeddingTable, verts: list, what: str) -> np.ndarray:
    rows = []
    for v in verts:
        if v not in table:
            raise EmbeddingError(f"{what} is missing a vector for entity ({v.namespace}, {v.id})")
        rows.append(table.vectors[v])
    return np.array(rows, dtype=np.float64).reshape(len(verts), table.dim)


def _init_matrix(rng: np.random.RandomState, n: int, config: EmbedConfig) -> np.ndarray:
    return rng.uniform(-config.scale, config.scale, size=(n, config.dim))


def _o1_value(emb, ei, ej, phat) -> float:
    dots = np.einsum("ij,ij->i", emb[ei], emb[ej])
    log_s = -np.logaddexp(0.0, -dots)  # log sigmoid
    log_z = float(_logsumexp(log_s))
    return float(np.sum(phat * (np.log(phat) - log_s)) + log_z)


def _scatter_index(ei, ej, dim: int) -> np.ndarray:
    """Flat (vertex * dim + column) targets of the rows of
    [g * emb[ej]; g * emb[ei]], the first-order gradient's scatter."""
    return (np.concatenate([ei, ej])[:, None] * dim + np.arange(dim)).ravel()


def _o1_gradient(emb, ei, ej, phat, flat=None) -> np.ndarray:
    """Gradient of _o1_value in emb. The scatter is one bincount over
    `flat` (_scatter_index, built once per run when given): it adds into
    each cell in input order from 0.0, so the sums are those of one
    np.add.at over ei followed by one over ej."""
    n, dim = emb.shape
    if flat is None:
        flat = _scatter_index(ei, ej, dim)
    dots = np.einsum("ij,ij->i", emb[ei], emb[ej])
    s = sigmoid(dots)
    p = s / np.sum(s)
    g = ((p - phat) * (1.0 - s))[:, None]
    rows = np.concatenate([g * emb[ej], g * emb[ei]])
    return np.bincount(flat, weights=rows.ravel(), minlength=n * dim).reshape(n, dim)


def first_order_objective(graph: WeightedGraph, table: EmbeddingTable) -> float:
    """KL divergence of the empirical edge distribution from the model's
    normalized sigmoid edge distribution; >= 0."""
    if graph.num_edges == 0:
        raise GraphError("graph has no edges")
    emb = _matrix_from_table(table, graph.order, "first-order table")
    return _o1_value(emb, graph.ei, graph.ej, graph.w / graph.total_weight)


def _descend(params: list, value_fn, grad_fn, config: EmbedConfig):
    """Full-batch gradient descent with halving on objective increase.

    Returns (params, history); history holds the objective at init and
    after each accepted step, nonincreasing by construction.
    """
    obj = value_fn(params)
    history = [obj]
    lr = config.learning_rate
    for _ in range(config.epochs):
        grads = grad_fn(params)
        accepted = False
        while lr >= _MIN_LR:
            candidate = [p - lr * g for p, g in zip(params, grads)]
            new_obj = value_fn(candidate)
            if new_obj <= obj:
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        params, obj = candidate, new_obj
        history.append(obj)
        lr = min(lr * 1.2, config.learning_rate)
    return params, history


def _noise_distribution(degree: np.ndarray) -> np.ndarray:
    probs = degree**NOISE_POWER
    total = probs.sum()
    if total <= 0:
        raise GraphError("graph has no edges")
    return probs / total


def _sampled_epochs(epoch, tables, src, dst, w, noise, rng, config: EmbedConfig) -> list:
    """LINE edge sampling: per epoch, draw pairs src -> dst by weight `w`,
    then `negatives_per_edge` noise vertices per pair from `noise`, and run
    `epoch(*tables, ...)` on them. Returns the per-epoch mean loss."""
    edge_probs = w / w.sum()
    m = len(src)
    history = []
    for _ in range(config.epochs):
        picks = rng.choice(m, size=m, p=edge_probs)
        negs = rng.choice(len(noise), size=(m, config.negatives_per_edge), p=noise)
        history.append(epoch(*tables, src[picks], dst[picks], negs, config.learning_rate) / m)
    return history


def train_first_order(graph: WeightedGraph, config: EmbedConfig) -> EmbeddingTable:
    """Train first-order proximity embeddings; deterministic in (graph, config)."""
    if graph.num_edges == 0:
        raise GraphError("graph has no edges")
    ei, ej, w = graph.ei, graph.ej, graph.w
    phat = w / graph.total_weight
    rng = np.random.RandomState(config.seed)
    emb = _init_matrix(rng, len(graph.order), config)

    if config.mode == "exact":
        flat = _scatter_index(ei, ej, config.dim)
        [emb], history = _descend(
            [emb],
            lambda ps: _o1_value(ps[0], ei, ej, phat),
            lambda ps: [_o1_gradient(ps[0], ei, ej, phat, flat)],
            config,
        )
    else:
        history = _sampled_epochs(_kernels.first_order_epoch, (emb,), ei, ej, w,
                                  _noise_distribution(graph.degree), rng, config)

    return EmbeddingTable(config.dim, "first_order", graph.order, emb, history=history)


def _neighbor_distribution(ei, ej, w, degree) -> np.ndarray:
    """Dense (n, n) empirical neighbor distribution: row i holds w_ij / W_i."""
    n = len(degree)
    if n > MAX_EXACT_VERTICES:
        raise EmbeddingError(f"exact second order needs dense {n} x {n} arrays; graphs above "
                             f"{MAX_EXACT_VERTICES} vertices must use sampled mode")
    phat = np.zeros((n, n), dtype=np.float64)
    phat[ei, ej] = w / degree[ei]
    phat[ej, ei] = w / degree[ej]
    return phat


def _second_order_state(graph: WeightedGraph, verts: list, index: dict):
    """(lam, phat) of the exact second-order objective, vertices numbered
    as _vertex_order gives: the weighted degrees and
    _neighbor_distribution."""
    return graph.degree, _neighbor_distribution(graph.ei, graph.ej, graph.w, graph.degree)


def _o2_value(U, C, lam, phat) -> float:
    logits = U @ C.T
    log_p = logits - _logsumexp(logits, axis=1)[:, None]
    support = phat > 0
    terms = np.where(support, phat * (np.log(np.where(support, phat, 1.0)) - log_p), 0.0)
    return float(np.sum(lam[:, None] * terms))


def _o2_gradient(U, C, lam, phat):
    logits = U @ C.T
    log_p = logits - _logsumexp(logits, axis=1)[:, None]
    m = lam[:, None] * (np.exp(log_p) - phat)
    return m @ C, m.T @ U


def second_order_objective(graph: WeightedGraph, vertex_table: EmbeddingTable,
                           context_table: EmbeddingTable) -> float:
    """Degree-weighted sum over vertices of the KL divergence of the
    empirical neighbor distribution from the full-softmax context model."""
    _require_no_isolated(graph)
    U = _matrix_from_table(vertex_table, graph.order, "vertex table")
    C = _matrix_from_table(context_table, graph.order, "context table")
    if vertex_table.dim != context_table.dim:
        raise EmbeddingError("vertex and context tables must share dim")
    return _o2_value(U, C, graph.degree,
                     _neighbor_distribution(graph.ei, graph.ej, graph.w, graph.degree))


def _require_no_isolated(graph: WeightedGraph) -> None:
    isolated = graph.isolated_vertices()
    if isolated:
        ids = ", ".join(str(v.id) for v in isolated[:10])
        raise GraphError(f"graph has isolated vertices (ids: {ids})")


def train_second_order(graph: WeightedGraph, config: EmbedConfig):
    """Train second-order embeddings; returns (vertex_table, context_table)."""
    _require_no_isolated(graph)
    if graph.num_edges == 0:
        raise GraphError("graph has no edges")
    ei, ej, w, degree = graph.ei, graph.ej, graph.w, graph.degree
    rng = np.random.RandomState(config.seed)
    U = _init_matrix(rng, len(graph.order), config)
    C = _init_matrix(rng, len(graph.order), config)

    if config.mode == "exact":
        phat = _neighbor_distribution(ei, ej, w, degree)
        [U, C], history = _descend(
            [U, C],
            lambda ps: _o2_value(ps[0], ps[1], degree, phat),
            lambda ps: list(_o2_gradient(ps[0], ps[1], degree, phat)),
            config,
        )
    else:
        # each undirected edge becomes two directed edges with the same weight
        history = _sampled_epochs(_kernels.second_order_epoch, (U, C), np.concatenate([ei, ej]),
                                  np.concatenate([ej, ei]), np.concatenate([w, w]),
                                  _noise_distribution(degree), rng, config)

    return (
        EmbeddingTable(config.dim, "second_order_vertex", graph.order, U, history=history),
        EmbeddingTable(config.dim, "second_order_context", graph.order, C),
    )


def concat_embeddings(first: EmbeddingTable, second_vertex: EmbeddingTable) -> EmbeddingTable:
    """Concatenate per-entity vectors, first-order components first."""
    if set(first.vectors) != set(second_vertex.vectors):
        raise EmbeddingError("tables cover different entity sets")
    entities = list(first.vectors)
    matrix = np.hstack([_matrix_from_table(first, entities, "first-order table"),
                        _matrix_from_table(second_vertex, entities, "second-order table")])
    return EmbeddingTable(first.dim + second_vertex.dim, "concat", entities, matrix)


def pool_postings(postings: dict, sizes, table: EmbeddingTable) -> tuple:
    """Mean-pool many bags at once: bag r holds each key whose `postings`
    rows include r (a key's rows are distinct) and has size sizes[r].

    Returns ((n, d) vectors, (n,) coverage), where coverage is the fraction
    of a bag present in the table and a bag with nothing found pools to the
    zero vector. Key by key in EntityId order, the key's vector is added
    into its rows, starting from -0.0, which adds nothing (-0.0 + x is x
    for every x, signed zeros included); each row is then divided by its
    number of keys found. No array larger than the result is built.
    """
    n = len(sizes)
    total = np.full((n, table.dim), -0.0)
    found = np.zeros(n, dtype=np.int64)
    for key in sorted(key for key in postings if key in table):
        rows = postings[key]
        total[rows] += table.vectors[key]
        found[rows] += 1
    hit = found > 0
    total[~hit] = 0.0
    np.divide(total, found[:, None], out=total, where=hit[:, None])
    return total, np.divide(found, sizes, out=np.zeros(n), where=hit)


_ONE_ROW = np.zeros(1, dtype=np.intp)


def pool(bag, table: EmbeddingTable):
    """(vector, coverage) of one bag: pool_postings with the bag as row 0."""
    vectors, coverage = pool_postings(dict.fromkeys(bag, _ONE_ROW), [len(bag)], table)
    return vectors[0], float(coverage[0])


def similarity(m: np.ndarray, q: np.ndarray, measure: str) -> np.ndarray:
    """Similarity between pooled member vectors and a query vector.

    `m` is one vector (d,) or a block of rows (n, d). dot and cosine return
    one value per row in a trailing axis of length 1; hadamard returns the
    element-wise product. Cosine of a zero vector is 0 by convention. The
    reductions run in a fixed order, so a row's value does not depend on
    the other rows in the block.
    """
    m = np.asarray(m, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or m.shape[-1:] != q.shape:
        raise EmbeddingError(f"vector length mismatch: {m.shape} vs {q.shape}")
    if measure == "hadamard":
        return m * q
    if measure not in ("dot", "cosine"):
        raise EmbeddingError(f"unknown similarity measure {measure!r}")
    dots = np.einsum("...j,j->...", m, q)[..., None]
    if measure == "dot":
        return dots
    denom = np.sqrt(np.einsum("...j,...j->...", m, m))[..., None] * np.sqrt(np.einsum("j,j->", q, q))
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
