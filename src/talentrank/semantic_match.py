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
from .evaluation import SessionBlock, query_groups
from .fileio import format_row, load_artifact, write_lines
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


def _check_similarity(name: str) -> str:
    if name not in SIMILARITIES:
        raise SemanticError(f"similarity must be one of {SIMILARITIES}, got {name!r}")
    return name


def _check_positive(name: str, value: float) -> float:
    if not 0 < value < np.inf:
        raise SemanticError(f"{name} must be finite and > 0, got {value}")
    return value


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
        _check_similarity(self.similarity)
        if any(width < 1 for width in self.hidden_layers):
            raise SemanticError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        if self.negatives < 1:
            raise SemanticError("negatives must be >= 1 (the softmax loss is vacuous without them)")
        _check_positive("gamma", self.gamma)
        _check_positive("learning_rate", self.learning_rate)
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

    def __post_init__(self):
        _check_similarity(self.similarity)
        _check_positive("gamma", self.gamma)
        ends = [(arm[0].weight.shape[1], arm[-1].weight.shape[0]) if arm else None
                for arm in (self.query_arm, self.doc_arm)]
        if ends[0] != ends[1] or ends[0] is None or ends[0][0] != self.input_width:
            raise SemanticError(f"both arms must map the input width {self.input_width} to one "
                                f"output dim; (in, out) per arm: {ends}")

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
            f"gamma {format_row([self.gamma])}",
            "trigram_vocab " + json.dumps(_by_index(self.trigram_vocab.index)),
        ]
        for ns in NAMESPACES:
            ids = [e.id for e in _by_index(self.entity_vocabs.get(ns, {}))]
            lines.append(f"entity_vocab {ns} " + json.dumps(ids))
        write_lines(path, [*lines, "query_arm", *layers_to_lines(self.query_arm),
                           "doc_arm", *layers_to_lines(self.doc_arm)])

    @classmethod
    def load(cls, path: str) -> "DssmModel":
        def parse(lines):
            similarity = _check_similarity(lines.take("similarity"))
            gamma = _check_positive("gamma", float(lines.take("gamma")))
            grams = json.loads(lines.take("trigram_vocab"))
            if not isinstance(grams, list) or not all(isinstance(g, str) for g in grams):
                raise SemanticError("trigram_vocab must be a list of strings")
            trigram_vocab = TrigramVocabulary({g: i for i, g in enumerate(grams)})
            entity_vocabs = {ns: {EntityId(ns, e): i for i, e in enumerate(json.loads(
                lines.take(f"entity_vocab {ns}")))} for ns in NAMESPACES}
            width = input_width(trigram_vocab, entity_vocabs)
            arms = []
            for name in ("query_arm", "doc_arm"):
                if lines.take() != name:
                    raise SemanticError(f"expected the {name} section")
                arms.append(layers_from_lines(lines, width)[0])
            return cls(trigram_vocab, entity_vocabs, *arms, similarity, gamma)

        return load_artifact(path, "model", SemanticError, parse, "talentrank-dssm v1")


def _by_index(vocab: dict) -> list:
    """A vocabulary's entries in index order."""
    return sorted(vocab, key=vocab.get)


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


def _build_groups(block: SessionBlock, member_ids: list, config: DssmConfig,
                  rng: np.random.RandomState):
    """(queries, groups): per positive row p of `block`, in positive_runs
    order, its session block.session[p] and [positive, N negatives] member
    ids: N drawn from the session's run of negatives when it holds N, else
    the run filled with random `member_ids` distinct from the group."""
    if len(member_ids) <= config.negatives:
        raise SemanticError("profile store too small for the configured negative count")
    mids = [profile.member_id for profile in block.members]
    pos, neg, start, count = block.positive_runs()
    groups = []
    for p, first, n in zip(pos.tolist(), start.tolist(), count.tolist()):
        run = [mids[row] for row in neg[first:first + n].tolist()]
        if n >= config.negatives:
            run = [run[i] for i in rng.choice(n, size=config.negatives, replace=False)]
        group = [mids[p]] + run
        while len(group) <= config.negatives:
            mid = member_ids[rng.randint(len(member_ids))]
            if mid not in group:
                group.append(mid)
        groups.append(group)
    if not groups:
        raise SemanticError("no positive impressions in the training sessions")
    return block.session[pos], groups


def train_dssm(sessions: SessionStore, profiles: ProfileStore, config: DssmConfig) -> DssmModel:
    """Train the two-arm model on positive impressions; seed-deterministic.
    Each epoch's loss runs each arm once over its distinct inputs. A
    session member missing from `profiles` is an EvaluationError."""
    block = SessionBlock(sessions, profiles)
    trigram_vocab = TrigramVocabulary.build(
        [s.query.keywords for s in sessions] + [p.headline_text for p in profiles])
    entity_vocabs = build_entity_vocabs(profiles, sessions)
    model = init_dssm(trigram_vocab, entity_vocabs, config)
    rng = np.random.RandomState(config.seed)
    group_q, groups = _build_groups(block, profiles.member_ids(), config, rng)

    query_rows = np.array([query_input(s.query, trigram_vocab, entity_vocabs) for s in sessions])
    member_row = {mid: row for row, mid in enumerate(sorted({m for group in groups for m in group}))}
    member_rows = np.array([member_input(profiles[mid], trigram_vocab, entity_vocabs)
                            for mid in member_row])
    group_d = np.array([[member_row[mid] for mid in group] for group in groups])

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

    The doc arm runs once over the distinct members and the query arm once
    per distinct query (query_groups); both arms and the similarity are
    batch-invariant, so every score equals the one-row score."""

    def scorer(queries, profiles) -> np.ndarray:
        distinct, member_of, groups = query_groups(queries, profiles)
        inputs = [member_input(p, model.trigram_vocab, model.entity_vocabs) for p in distinct]
        docs = layers_forward(model.doc_arm,
                              np.array(inputs).reshape(len(inputs), model.input_width))
        scores = np.empty(len(queries))
        for query, rows in groups.items():
            q = query_input(query, model.trigram_vocab, model.entity_vocabs)
            q_vec = layers_forward(model.query_arm, q[None, :])[0]
            scores[rows] = similarity(docs[member_of[rows]], q_vec, model.similarity)[:, 0]
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
        entities = _by_index(known)
        X = np.zeros((len(entities), model.input_width))
        for row, e in enumerate(entities):
            X[row, offset + known[e]] = 1.0
        tables[ns] = EmbeddingTable(model.output_dim, "supervised", entities,
                                    layers_forward(model.query_arm, X))
        offset += len(known)
    return tables
