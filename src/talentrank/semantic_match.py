"""Supervised two-arm semantic matching: character-trigram word hashing
plus entity-id indicators feed separate query and member projection arms
that meet in a shared space; similarity there scores the pair, and trained
arms export per-entity embedding dictionaries.

Training minimizes softmax cross-entropy of the positive member against
sampled negatives from the same session (corpus-random fallback), with a
similarity smoothing factor gamma.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import NAMESPACES, EntityId, ProfileStore, Query, SessionStore
from .evaluation import query_runs
from .fileio import atomic_write, fmt_float, keyed, read_lines
from .graph_embed import EmbeddingTable, similarity
from .neural import (
    init_layers,
    layers_backward,
    layers_forward,
    layers_from_lines,
    layers_sgd_step,
    layers_to_lines,
)

SIMILARITIES = ("dot", "cosine")


class SemanticError(ValueError):
    """Invalid semantic-model configuration or input."""


def word_hash(text: str) -> Counter:
    """Multiset of boundary-padded character trigrams per whitespace token."""
    grams: Counter = Counter()
    for token in text.lower().split():
        padded = f"#{token}#"
        for i in range(len(padded) - 2):
            grams[padded[i : i + 3]] += 1
    return grams


@dataclass(frozen=True)
class TrigramVocabulary:
    index: dict  # trigram -> dense index 0..size-1

    @property
    def size(self) -> int:
        return len(self.index)

    @classmethod
    def build(cls, texts) -> "TrigramVocabulary":
        grams = set()
        for text in texts:
            grams.update(word_hash(text))
        return cls({g: i for i, g in enumerate(sorted(grams))})


def build_entity_vocabs(profiles: ProfileStore, sessions: SessionStore) -> dict:
    """Dense per-namespace entity indices from profiles and session facets."""
    seen = {ns: set() for ns in NAMESPACES}
    for profile in profiles:
        for ns in NAMESPACES:
            seen[ns].update(profile.entities(ns))
    for session in sessions:
        for ns in NAMESPACES:
            seen[ns].update(session.query.facet(ns))
    return {ns: {e: i for i, e in enumerate(sorted(seen[ns]))} for ns in NAMESPACES}


def input_width(trigram_vocab: TrigramVocabulary, entity_vocabs: dict) -> int:
    return trigram_vocab.size + sum(len(entity_vocabs.get(ns, {})) for ns in NAMESPACES)


def build_input(keywords: str, bags: dict, trigram_vocab: TrigramVocabulary,
                entity_vocabs: dict) -> np.ndarray:
    """Sparse-as-dense input: trigram counts, then per-namespace entity
    indicators in skill, title, company order. Unknown trigrams and entity
    ids contribute nothing."""
    x = np.zeros(input_width(trigram_vocab, entity_vocabs), dtype=np.float64)
    for gram, count in word_hash(keywords).items():
        idx = trigram_vocab.index.get(gram)
        if idx is not None:
            x[idx] = count
    offset = trigram_vocab.size
    for ns in NAMESPACES:
        vocab = entity_vocabs.get(ns, {})
        for e in bags.get(ns, ()):
            idx = vocab.get(e)
            if idx is not None:
                x[offset + idx] = 1.0
        offset += len(vocab)
    return x


def query_input(query: Query, trigram_vocab, entity_vocabs) -> np.ndarray:
    bags = {ns: query.facet(ns) for ns in NAMESPACES}
    return build_input(query.keywords, bags, trigram_vocab, entity_vocabs)


def member_input(profile, trigram_vocab, entity_vocabs) -> np.ndarray:
    bags = {ns: profile.entities(ns) for ns in NAMESPACES}
    return build_input(profile.headline_text, bags, trigram_vocab, entity_vocabs)


@dataclass(frozen=True)
class DssmConfig:
    hidden_layers: tuple = (200, 100)
    output_dim: int = 50
    similarity: str = "cosine"
    gamma: float = 10.0
    negatives: int = 4
    learning_rate: float = 0.05
    epochs: int = 5
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.output_dim < 1:
            raise SemanticError("output_dim must be >= 1")
        if self.similarity not in SIMILARITIES:
            raise SemanticError(
                f"similarity must be one of {SIMILARITIES}, got {self.similarity!r}")
        if any(width < 1 for width in self.hidden_layers):
            raise SemanticError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        if self.negatives < 1:
            raise SemanticError("negatives must be >= 1 (the softmax loss is vacuous without them)")
        if not (0 < self.gamma < np.inf and 0 < self.learning_rate < np.inf):
            raise SemanticError("gamma and learning_rate must be finite and > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise SemanticError("epochs must be >= 0 and batch_size >= 1")


@dataclass
class DssmModel:
    trigram_vocab: TrigramVocabulary
    entity_vocabs: dict
    query_arm: list  # tanh layers
    doc_arm: list
    similarity: str
    gamma: float
    history: list | None = None  # per-epoch mean training loss

    @property
    def input_width(self) -> int:
        return input_width(self.trigram_vocab, self.entity_vocabs)

    @property
    def output_dim(self) -> int:
        return self.query_arm[-1].weight.shape[0]

    def save(self, path: str) -> None:
        lines = [
            "talentrank-dssm v1",
            f"similarity {self.similarity}",
            f"gamma {fmt_float(self.gamma)}",
            "trigram_vocab " + json.dumps(_ordered_trigrams(self.trigram_vocab)),
        ]
        for ns in NAMESPACES:
            ids = [e.id for e in _ordered_entities(self.entity_vocabs.get(ns, {}))]
            lines.append(f"entity_vocab {ns} " + json.dumps(ids))
        lines.append("query_arm")
        lines.extend(layers_to_lines(self.query_arm))
        lines.append("doc_arm")
        lines.extend(layers_to_lines(self.doc_arm))
        with atomic_write(path) as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "DssmModel":
        lines = [line.rstrip("\n") for line in read_lines(path, SemanticError)]
        if not lines or lines[0] != "talentrank-dssm v1":
            raise SemanticError(f"unrecognized model file header: {lines[:1]!r}")
        try:
            similarity = keyed(lines[1], "similarity")
            gamma = float(keyed(lines[2], "gamma"))
            grams = json.loads(keyed(lines[3], "trigram_vocab"))
            trigram_vocab = TrigramVocabulary({g: i for i, g in enumerate(grams)})
            entity_vocabs = {}
            pos = 4
            for ns in NAMESPACES:
                ids = json.loads(keyed(lines[pos], f"entity_vocab {ns}"))
                entity_vocabs[ns] = {EntityId(ns, i): idx for idx, i in enumerate(ids)}
                pos += 1
            if lines[pos] != "query_arm":
                raise SemanticError("expected query_arm section")
        except (IndexError, TypeError, ValueError, RecursionError) as e:
            raise SemanticError(f"malformed model file {path}: {e}") from None
        if similarity not in SIMILARITIES:
            raise SemanticError(f"model file {path}: similarity must be one of {SIMILARITIES}, "
                                f"got {similarity!r}")
        if not 0 < gamma < np.inf:
            raise SemanticError(f"model file {path}: gamma must be finite and > 0, got {gamma}")
        query_arm, pos = layers_from_lines(lines, pos + 1)
        if pos >= len(lines) or lines[pos] != "doc_arm":
            raise SemanticError(f"malformed model file {path}: expected doc_arm section")
        doc_arm, pos = layers_from_lines(lines, pos + 1)
        return cls(trigram_vocab, entity_vocabs, query_arm, doc_arm, similarity, gamma)


def _ordered_trigrams(vocab: TrigramVocabulary) -> list:
    return [g for g, _ in sorted(vocab.index.items(), key=lambda kv: kv[1])]


def _ordered_entities(vocab: dict) -> list:
    return [e for e, _ in sorted(vocab.items(), key=lambda kv: kv[1])]


def init_dssm(trigram_vocab: TrigramVocabulary, entity_vocabs: dict,
              config: DssmConfig) -> DssmModel:
    """Glorot-initialized two-arm model; query arm drawn first."""
    rng = np.random.RandomState(config.seed)
    width = input_width(trigram_vocab, entity_vocabs)
    widths = list(config.hidden_layers) + [config.output_dim]
    return DssmModel(trigram_vocab, entity_vocabs, init_layers(rng, width, widths, "tanh"),
                     init_layers(rng, width, widths, "tanh"), config.similarity, config.gamma)


def _sim_and_grads(q_vecs: np.ndarray, d_vecs: np.ndarray, measure: str):
    """Similarity of each query (B, k) to each doc of its group (B, G, k),
    with gradients w.r.t. both; returns sims (B, G), dq (B, G, k) and
    dd (B, G, k). Cosine with a zero vector is 0, with zero gradients."""
    dots = np.einsum("bk,bgk->bg", q_vecs, d_vecs)
    q = q_vecs[:, None, :]
    if measure == "dot":
        return dots, d_vecs, np.broadcast_to(q, d_vecs.shape)
    nq = np.sqrt(np.einsum("bk,bk->b", q_vecs, q_vecs))[:, None]
    nd = np.sqrt(np.einsum("bgk,bgk->bg", d_vecs, d_vecs))
    denom = nq * nd
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = dots / denom
        dq = d_vecs / denom[..., None] - (sims / (nq * nq))[..., None] * q
        dd = q / denom[..., None] - (sims / (nd * nd))[..., None] * d_vecs
    dead = denom == 0.0
    sims[dead], dq[dead], dd[dead] = 0.0, 0.0, 0.0
    return sims, dq, dd


def _vector_loss_and_grads(q_vecs: np.ndarray, d_vecs: np.ndarray, measure: str, gamma: float):
    """Softmax cross-entropy of each group's positive (doc 0) against its
    group, summed over the batch, from arm outputs: queries (B, k), docs
    (B, G, k). Returns (loss, dL/dq_vecs, dL/dd_vecs)."""
    sims, dq, dd = _sim_and_grads(q_vecs, d_vecs, measure)
    z = gamma * sims
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    dsims = gamma * p
    dsims[:, 0] -= gamma
    loss = -float(np.log(np.maximum(p[:, 0], 1e-300)).sum())
    return loss, np.einsum("bg,bgk->bk", dsims, dq), dsims[..., None] * dd


def dssm_forward(model: DssmModel, q_input: np.ndarray, d_input: np.ndarray):
    """Project both inputs to the shared space; returns (q_vec, d_vec, sim)."""
    q_input = np.asarray(q_input, dtype=np.float64)
    d_input = np.asarray(d_input, dtype=np.float64)
    if q_input.shape != (model.input_width,) or d_input.shape != (model.input_width,):
        raise SemanticError(
            f"inputs must have shape ({model.input_width},), got {q_input.shape} and {d_input.shape}"
        )
    q_vec = layers_forward(model.query_arm, q_input[None, :])[0]
    d_vec = layers_forward(model.doc_arm, d_input[None, :])[0]
    return q_vec, d_vec, float(similarity(d_vec, q_vec, model.similarity)[0])


def _group_loss_and_grads(model: DssmModel, q_rows: np.ndarray, doc_rows: np.ndarray,
                          gamma: float):
    """Group loss of queries (B, w) and docs (B, G, w), or of one group,
    (w,) and (G, w); returns (loss, query-arm grads, doc-arm grads)."""
    if q_rows.ndim == 1:
        q_rows, doc_rows = q_rows[None, :], doc_rows[None, :, :]
    n, size, width = doc_rows.shape
    q_cache, d_cache = {}, {}
    q_vecs = layers_forward(model.query_arm, q_rows, q_cache)
    d_vecs = layers_forward(model.doc_arm, doc_rows.reshape(n * size, width), d_cache)
    loss, dq_vecs, dd_vecs = _vector_loss_and_grads(
        q_vecs, d_vecs.reshape(n, size, -1), model.similarity, gamma)
    return (loss, layers_backward(model.query_arm, q_cache, dq_vecs),
            layers_backward(model.doc_arm, d_cache, dd_vecs.reshape(n * size, -1)))


def _group_loss(model: DssmModel, q_rows, doc_rows, gamma: float) -> float:
    return _group_loss_and_grads(model, q_rows, doc_rows, gamma)[0]


def _build_groups(sessions: SessionStore, profiles: ProfileStore, config: DssmConfig,
                  rng: np.random.RandomState):
    """One group per positive impression: the session's row in `sessions`
    and [positive, N negatives] member ids.

    In-session negatives are preferred; the shortfall is filled with
    corpus-random members distinct from the group.
    """
    member_ids = profiles.member_ids()
    if len(member_ids) <= config.negatives:
        raise SemanticError("profile store too small for the configured negative count")
    groups = []
    for row, session in enumerate(sessions):
        positives = [i for i in session.impressions if i.label == 1]
        negatives = [i.member_id for i in sorted(
            (i for i in session.impressions if i.label == 0), key=lambda i: i.position)]
        for pos in sorted(positives, key=lambda i: i.position):
            if len(negatives) >= config.negatives:
                chosen_idx = rng.choice(len(negatives), size=config.negatives, replace=False)
                chosen = [negatives[i] for i in chosen_idx]
            else:
                chosen = list(negatives)
                taken = set(chosen) | {pos.member_id}
                while len(chosen) < config.negatives:
                    mid = member_ids[rng.randint(len(member_ids))]
                    if mid not in taken:
                        chosen.append(mid)
                        taken.add(mid)
            groups.append((row, [pos.member_id] + chosen))
    if not groups:
        raise SemanticError("no positive impressions in the training sessions")
    return groups


def train_dssm(sessions: SessionStore, profiles: ProfileStore, config: DssmConfig) -> DssmModel:
    """Train the two-arm model on positive impressions; seed-deterministic.
    Each epoch's loss runs each arm once over its distinct inputs."""
    trigram_vocab = TrigramVocabulary.build(
        [s.query.keywords for s in sessions] + [p.headline_text for p in profiles]
    )
    entity_vocabs = build_entity_vocabs(profiles, sessions)
    model = init_dssm(trigram_vocab, entity_vocabs, config)
    rng = np.random.RandomState(config.seed)
    groups = _build_groups(sessions, profiles, config, rng)

    query_rows = np.array([query_input(s.query, trigram_vocab, entity_vocabs) for s in sessions])
    member_row = {mid: row for row, mid in enumerate(sorted({m for _, mids in groups for m in mids}))}
    member_rows = np.zeros((len(member_row), model.input_width))
    for mid, row in member_row.items():
        if mid not in profiles:
            raise SemanticError(f"member {mid} not in profile store")
        member_rows[row] = member_input(profiles[mid], trigram_vocab, entity_vocabs)
    group_q = np.array([row for row, _ in groups])
    group_d = np.array([[member_row[mid] for mid in mids] for _, mids in groups])

    chunks = [slice(start, start + config.batch_size)
              for start in range(0, len(groups), config.batch_size)]
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(len(groups))
        for chunk in chunks:
            batch = perm[chunk]
            _, q_grads, d_grads = _group_loss_and_grads(
                model, query_rows[group_q[batch]], member_rows[group_d[batch]], config.gamma)
            layers_sgd_step(model.query_arm, q_grads, config.learning_rate / len(batch))
            layers_sgd_step(model.doc_arm, d_grads, config.learning_rate / len(batch))
        q_vecs = layers_forward(model.query_arm, query_rows)
        m_vecs = layers_forward(model.doc_arm, member_rows)
        history.append(sum(_vector_loss_and_grads(q_vecs[group_q[chunk]], m_vecs[group_d[chunk]],
                                                  model.similarity, config.gamma)[0]
                           for chunk in chunks) / len(groups))
    model.history = history
    return model


def dssm_scorer(model: DssmModel):
    """Adapt a trained model to the replay scorer contract: `scorer(queries,
    profiles)` scores row-aligned lists and returns (n,) similarities.

    Each arm runs once per distinct input, in chunks of one run of rows
    sharing a query (a replayed session): the query arm on the run's query
    when it is new, the doc arm on the run's members not yet seen. The arm
    forward and similarity are batch-invariant, so every score equals the
    one-row score."""

    def scorer(queries, profiles) -> np.ndarray:
        q_vecs, d_vecs = {}, {}
        scores = np.empty(len(queries))
        for start, end in query_runs(queries):
            query, run = queries[start], profiles[start:end]
            if query not in q_vecs:
                q = query_input(query, model.trigram_vocab, model.entity_vocabs)
                q_vecs[query] = layers_forward(model.query_arm, q[None, :])[0]
            new = {p.member_id: p for p in run if p.member_id not in d_vecs}
            if new:
                inputs = [member_input(p, model.trigram_vocab, model.entity_vocabs)
                          for p in new.values()]
                d_vecs.update(zip(new, layers_forward(model.doc_arm, np.array(inputs))))
            docs = np.array([d_vecs[p.member_id] for p in run])
            scores[start:end] = similarity(docs, q_vecs[query], model.similarity)[:, 0]
        return scores

    return scorer


def export_embeddings(model: DssmModel) -> dict:
    """Per-namespace supervised embedding tables: the query-arm output on
    the one-hot input that sets only the entity's indicator, by one
    batch-invariant forward per namespace (so bit-identical to one row)."""
    offset = model.trigram_vocab.size
    tables = {}
    for ns in NAMESPACES:
        known = model.entity_vocabs.get(ns, {})
        entities = _ordered_entities(known)
        X = np.zeros((len(entities), model.input_width))
        for row, e in enumerate(entities):
            X[row, offset + known[e]] = 1.0
        tables[ns] = EmbeddingTable(model.output_dim, "supervised", entities,
                                    layers_forward(model.query_arm, X))
        offset += len(known)
    return tables
