"""Feature assembly, session pair mining, and end-to-end ranker training.

Features combine syntactic facet overlap (jaccard, keyword trigram
overlap) with similarity between pooled query and member embedding
vectors; the scoring network trains under a pointwise or pairwise
objective with session-based pair mining.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .corpus import NAMESPACES, CorpusError, ProfileStore, Query, Session, SessionStore
from .evaluation import precision_at_k, query_runs
from .fileio import atomic_write, read_lines
from .graph_embed import pool, similarity
from .neural import (
    MlpModel,
    TrainConfig,
    add_grads,
    init_mlp,
    mlp_forward,
    mlp_forward_batch,
    mlp_backward,
    mlp_from_lines,
    mlp_to_lines,
    pairwise_loss,
    pointwise_loss,
    sgd_step,
)
from .semantic_match import word_hash

EMBEDDING_MEASURES = ("dot", "cosine")


class RankerError(ValueError):
    """Invalid schema, missing data, or bad training configuration."""


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed, ordered feature layout shared by training and scoring."""

    jaccard_namespaces: tuple = ("skill", "title", "company")
    use_keyword_trigrams: bool = True
    embedding_namespaces: tuple = ()
    embedding_measures: tuple = ("dot",)
    include_hadamard: bool = False
    embedding_dim: int = 0  # required for the hadamard block width
    include_coverage: bool = True

    def __post_init__(self):
        for m in self.embedding_measures:
            if m not in EMBEDDING_MEASURES:
                raise RankerError(f"unknown embedding measure {m!r}")
        if self.include_hadamard and self.embedding_dim < 1:
            raise RankerError("include_hadamard requires embedding_dim >= 1")
        if self.embedding_namespaces and not (
            self.embedding_measures or self.include_hadamard
        ):
            raise RankerError("embedding namespaces given but no measures selected")

    def feature_names(self) -> list:
        names = [f"{ns}_jaccard" for ns in self.jaccard_namespaces]
        if self.use_keyword_trigrams:
            names.append("keyword_trigram_overlap")
        for ns in self.embedding_namespaces:
            for m in self.embedding_measures:
                names.append(f"emb_{m}_{ns}")
            if self.include_hadamard:
                names.extend(f"emb_hadamard_{ns}_{i}" for i in range(self.embedding_dim))
            if self.include_coverage:
                names.append(f"coverage_member_{ns}")
                names.append(f"coverage_query_{ns}")
        return names

    @property
    def width(self) -> int:
        return len(self.feature_names())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        obj = json.loads(text)
        for key in ("jaccard_namespaces", "embedding_namespaces", "embedding_measures"):
            obj[key] = tuple(obj[key])
        return cls(**obj)


@lru_cache(maxsize=65536)
def _trigram_set(text: str) -> frozenset:
    return frozenset(word_hash(text))


def query_pools(query: Query, tables: dict, schema: FeatureSchema) -> dict:
    """Pooled (vector, coverage) per embedding namespace for a query facet."""
    return {ns: pool(query.facet(ns), table) for ns, table in _schema_tables(tables, schema).items()}


TRIGRAM = "trigram"  # the key space of headline trigram sets
SPACES = (*NAMESPACES, TRIGRAM)


class MemberBlock:
    """Columnar member block: one row per profile, in the order given.

    For each key space in SPACES, `postings[space]` maps each key (the
    EntityId, or the trigram string, itself, so any id works) to the
    ascending block rows whose bag holds it, and row SPACES.index(space) of
    the (len(SPACES), n) `sizes` holds the bag sizes. `pools[ns]` holds
    the rows' pooled embeddings for each table, ((n, d) vectors, (n,)
    coverage), each row equal to graph_embed.pool of its bag. Set sizes and
    intersections come from these integer counts, never from per-profile
    sets.
    """

    def __init__(self, profiles, tables: dict):
        profiles = list(profiles)
        self.member_ids = [p.member_id for p in profiles]
        self.row_of = {mid: row for row, mid in enumerate(self.member_ids)}
        self.postings = {}
        self.sizes = np.zeros((len(SPACES), len(profiles)), dtype=np.int64)
        for space, sizes in zip(SPACES, self.sizes):
            rows_of: dict = {}
            for row, profile in enumerate(profiles):
                bag = (_trigram_set(profile.headline_text) if space == TRIGRAM
                       else profile.entities(space))
                sizes[row] = len(bag)
                for key in bag:
                    rows_of.setdefault(key, []).append(row)
            self.postings[space] = {key: np.array(rows, dtype=np.intp)
                                    for key, rows in rows_of.items()}
        self.pools = {ns: self._pool(ns, table) for ns, table in tables.items()}

    def __len__(self) -> int:
        return len(self.member_ids)

    def _pool(self, ns: str, table) -> tuple:
        """graph_embed.pool of every row's `ns` bag, by scatter over the
        postings: key by key in EntityId order, the key's vector is added
        into its rows, starting from -0.0, and each row is divided by its
        number of keys found, as pool does. A posting holds a row at most
        once, so one fancy-index add per key is exact, and no array larger
        than the result is built."""
        if ns not in self.postings:
            raise CorpusError(f"unknown namespace {ns!r}")
        postings = self.postings[ns]
        total = np.full((len(self), table.dim), -0.0)
        found = np.zeros(len(self), dtype=np.int64)
        for key in sorted(key for key in postings if key in table):
            rows = postings[key]
            total[rows] += table.vectors[key]
            found[rows] += 1
        hit = found > 0
        total[~hit] = 0.0  # pool's zero vector when no key is found
        np.divide(total, found[:, None], out=total, where=hit[:, None])
        return total, np.divide(found, self.sizes[SPACES.index(ns)], out=np.zeros(len(self)),
                                where=hit)

    def counts(self, space: str, keys) -> np.ndarray:
        """(n,) int counts: for each row, how many of `keys` its bag holds."""
        postings = self.postings[space]
        hits = [postings[key] for key in keys if key in postings]
        if not hits:
            return np.zeros(len(self), dtype=np.int64)
        return np.bincount(np.concatenate(hits), minlength=len(self))


def _schema_tables(tables: dict, schema: FeatureSchema) -> dict:
    """The tables of the schema's embedding namespaces, checked against it."""
    for ns in schema.embedding_namespaces:
        if ns not in tables:
            raise RankerError(f"no embedding table for namespace {ns!r}")
        if schema.include_hadamard and tables[ns].dim != schema.embedding_dim:
            raise RankerError(
                f"table for {ns!r} has dim {tables[ns].dim}, schema expects {schema.embedding_dim}"
            )
    return {ns: tables[ns] for ns in schema.embedding_namespaces}


def build_features(query: Query, block: MemberBlock, rows, pools_q: dict,
                   schema: FeatureSchema) -> np.ndarray:
    """The (n, width) feature rows of `query` against the members at block
    `rows`.

    Every Jaccard column and the keyword trigram overlap is
    |q & m| / (|q| + |m| - |q & m|), 0 when both bags are empty: integer
    counts and one IEEE division, the same float as set arithmetic gives.
    `pools_q` comes from query_pools. Embedding columns are computed over
    the whole block by `similarity`, whose reductions run in a fixed order,
    so a row does not depend on the other rows in the batch.
    """
    rows = np.asarray(rows, dtype=np.intp)
    spaces = [*schema.jaccard_namespaces, *([TRIGRAM] if schema.use_keyword_trigrams else [])]
    cols = []
    if spaces:
        bags = [_trigram_set(query.keywords) if space == TRIGRAM else query.facet(space)
                for space in spaces]
        inter = np.array([block.counts(space, bag) for space, bag in zip(spaces, bags)])[:, rows]
        union = (block.sizes[:, rows][[SPACES.index(space) for space in spaces]]
                 + [[len(bag)] for bag in bags] - inter)
        cols.extend(np.divide(inter, union, out=np.zeros(inter.shape), where=union != 0))
    for ns in schema.embedding_namespaces:
        q_vec, q_cov = pools_q[ns]
        m_vecs, m_cov = block.pools[ns]
        m_vecs, m_cov = m_vecs[rows], m_cov[rows]
        cols.extend(similarity(m_vecs, q_vec, m)[:, 0] for m in schema.embedding_measures)
        if schema.include_hadamard:
            cols.extend(similarity(m_vecs, q_vec, "hadamard").T)
        if schema.include_coverage:
            cols.extend([m_cov, np.full(len(rows), q_cov)])
    return np.ascontiguousarray(np.array(cols).T)


def score_batch(model: RankingModel, query: Query, block: MemberBlock, rows,
                pools_q: dict) -> np.ndarray:
    """Score the members at block `rows` for one query, dropout off;
    returns (n,) scores.

    A row's score is bit-identical whether it is scored alone or in any
    batch, in any order: the feature builder and mlp_forward both reduce
    in a fixed order per row.
    """
    X = build_features(query, block, rows, pools_q, model.schema)
    return mlp_forward(model.net, X)


def mine_pairs(session: Session) -> list:
    """All (positive, negative) impression pairs within a session, ordered
    by (positive position, negative position)."""
    pos = sorted((i for i in session.impressions if i.label == 1), key=lambda i: i.position)
    neg = sorted((i for i in session.impressions if i.label == 0), key=lambda i: i.position)
    return [(p, n) for p in pos for n in neg]


@dataclass
class RankingModel:
    schema: FeatureSchema
    net: MlpModel
    objective: str
    seed: int
    epochs_run: int

    def save(self, path: str) -> None:
        lines = [
            "talentrank-ranker v1",
            f"objective {self.objective}",
            f"seed {self.seed}",
            f"epochs_run {self.epochs_run}",
            "schema " + self.schema.to_json(),
        ]
        lines.extend(mlp_to_lines(self.net))
        with atomic_write(path) as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "RankingModel":
        lines = [line.rstrip("\n") for line in read_lines(path, RankerError)]
        if not lines or lines[0] != "talentrank-ranker v1":
            raise RankerError(f"unrecognized model file header: {lines[:1]!r}")
        try:
            objective = lines[1].split(" ", 1)[1]
            seed = int(lines[2].split(" ", 1)[1])
            epochs_run = int(lines[3].split(" ", 1)[1])
            schema = FeatureSchema.from_json(lines[4].split(" ", 1)[1])
            net, _ = mlp_from_lines(lines, 5)
        except (IndexError, KeyError, TypeError, ValueError) as e:
            raise RankerError(f"malformed model file {path}: {e}") from None
        if net.input_width != schema.width:
            raise RankerError(
                f"model input width {net.input_width} does not match schema width {schema.width}"
            )
        return cls(schema, net, objective, seed, epochs_run)


@dataclass
class _Dataset:
    X: np.ndarray
    y: np.ndarray
    rows: np.ndarray  # block row per example; row order is member-id order
    session_slices: list  # (start, end) per session, session_id ascending
    pairs: np.ndarray  # (m, 2) example indices (positive, negative)


def _build_dataset(sessions: SessionStore, profiles: ProfileStore, tables: dict,
                   schema: FeatureSchema) -> _Dataset:
    for session in sessions:
        for imp in session.impressions:
            if imp.member_id not in profiles:
                raise RankerError(
                    f"session {session.session_id}: member {imp.member_id} not in profile store"
                )
    ids = sorted({imp.member_id for session in sessions for imp in session.impressions})
    block = MemberBlock([profiles[mid] for mid in ids], _schema_tables(tables, schema))
    blocks, labels, rows, slices, pairs = [], [], [], [], []
    for session in sessions:
        mids = [imp.member_id for imp in session.impressions]
        session_rows = [block.row_of[mid] for mid in mids]
        blocks.append(build_features(session.query, block, session_rows,
                                     query_pools(session.query, tables, schema), schema))
        labels.extend(imp.label for imp in session.impressions)
        index_of = {mid: len(rows) + i for i, mid in enumerate(mids)}
        slices.append((len(rows), len(rows) + len(mids)))
        rows.extend(session_rows)
        for p, n in mine_pairs(session):
            pairs.append((index_of[p.member_id], index_of[n.member_id]))
    X = np.concatenate(blocks) if blocks else np.zeros((0, schema.width))
    return _Dataset(
        X=X,
        y=np.array(labels, dtype=np.float64),
        rows=np.array(rows, dtype=np.intp),
        session_slices=slices,
        pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2),
    )


def _pointwise_epoch(net, ds, config, rng):
    perm = rng.permutation(len(ds.y))
    for start in range(0, len(perm), config.batch_size):
        idx = perm[start : start + config.batch_size]
        scores, cache = mlp_forward_batch(net, ds.X[idx], training=True,
                                          dropout_rate=config.dropout_rate, rng=rng)
        _, grads = pointwise_loss(scores, ds.y[idx])
        sgd_step(net, mlp_backward(net, cache, grads / len(idx)),
                 config.learning_rate, config.l2_penalty)


def _pairwise_epoch(net, ds, config, rng, kind):
    perm = rng.permutation(ds.pairs.shape[0])
    for start in range(0, len(perm), config.batch_size):
        batch = ds.pairs[perm[start : start + config.batch_size]]
        sp, cache_p = mlp_forward_batch(net, ds.X[batch[:, 0]], training=True,
                                        dropout_rate=config.dropout_rate, rng=rng)
        sn, cache_n = mlp_forward_batch(net, ds.X[batch[:, 1]], training=True,
                                        dropout_rate=config.dropout_rate, rng=rng)
        _, df = pairwise_loss(sp - sn, kind)
        df = df / len(batch)
        grads = add_grads(
            mlp_backward(net, cache_p, df), mlp_backward(net, cache_n, -df)
        )
        sgd_step(net, grads, config.learning_rate, config.l2_penalty)


def _mean_precision(net, ds, k: int) -> float:
    scores = mlp_forward(net, ds.X)
    vals = []
    for start, end in ds.session_slices:
        order = sorted(range(start, end), key=lambda i: (-scores[i], ds.rows[i]))
        vals.append(precision_at_k([int(ds.y[i]) for i in order], k))
    return float(np.mean(vals))


def _mean_loss(net, ds, kind) -> float:
    scores = mlp_forward(net, ds.X)
    if kind is None or ds.pairs.shape[0] == 0:
        total, _ = pointwise_loss(scores, ds.y)
        return total / len(ds.y)
    f, _ = pairwise_loss(scores[ds.pairs[:, 0]] - scores[ds.pairs[:, 1]], kind)
    return float(np.mean(f))


def train_ranker(train: SessionStore, valid: SessionStore, profiles: ProfileStore,
                 tables: dict, schema: FeatureSchema, config: TrainConfig) -> RankingModel:
    """Train a ranking model; returns the best-on-validation parameters.

    Early stopping monitors validation Prec@25 when the validation split
    has at least 10 sessions, otherwise the validation loss; with an empty
    validation split the final-epoch parameters are returned.
    """
    if len(train) == 0:
        raise RankerError("train split is empty")
    ds_train = _build_dataset(train, profiles, tables, schema)
    kind = config.pairwise_kind
    if kind is not None and ds_train.pairs.shape[0] == 0:
        raise RankerError("pairwise objective requires at least one positive-negative pair")

    net = init_mlp(schema.width, config.hidden_layers, config.activation, config.seed)
    rng = np.random.RandomState(config.seed)
    ds_valid = _build_dataset(valid, profiles, tables, schema) if len(valid) else None
    monitor = None
    if ds_valid is not None:
        monitor = "prec" if len(valid) >= 10 else "loss"

    best_metric = None
    best_net = None
    best_epoch = 0
    stale = 0
    epochs_run = 0
    for epoch in range(config.epochs):
        if kind is None:
            _pointwise_epoch(net, ds_train, config, rng)
        else:
            _pairwise_epoch(net, ds_train, config, rng, kind)
        epochs_run = epoch + 1
        if monitor is None:
            continue
        # ties count as improvement (keep the latest), so a plateaued
        # metric lets training run on instead of freezing epoch 1
        if monitor == "prec":
            metric = _mean_precision(net, ds_valid, 25)
            improved = best_metric is None or metric >= best_metric
        else:
            metric = _mean_loss(net, ds_valid, kind)
            improved = best_metric is None or metric <= best_metric
        if improved:
            best_metric, best_net, best_epoch = metric, net.copy(), epochs_run
            stale = 0
        else:
            stale += 1
            if stale > config.early_stop_patience:
                break
    if best_net is not None:
        net = best_net
        epochs_run = best_epoch
    return RankingModel(schema=schema, net=net, objective=config.objective,
                        seed=config.seed, epochs_run=epochs_run)


def make_scorer(model: RankingModel, tables: dict):
    """Adapt a RankingModel to the replay scorer contract: `scorer(queries,
    profiles)` scores row-aligned lists and returns (n,) scores.

    A call builds one MemberBlock over its distinct members, in member-id
    order, pools each distinct query once, and runs one score_batch per run
    of rows that share a query (a replayed session), so no forward spans
    more than a session. A lone `scorer(query, profile)` returns one float,
    scored as a one-row batch; score_batch makes every row of a batch
    bit-identical to it.
    """
    schema_tables = _schema_tables(tables, model.schema)

    def score_rows(queries: list, profiles: list) -> np.ndarray:
        distinct = {p.member_id: p for p in profiles}
        block = MemberBlock([distinct[mid] for mid in sorted(distinct)], schema_tables)
        rows = np.array([block.row_of[p.member_id] for p in profiles], dtype=np.intp)
        pools_of: dict = {}
        scores = np.empty(len(rows))
        for start, end in query_runs(queries):
            query = queries[start]
            if query not in pools_of:
                pools_of[query] = query_pools(query, tables, model.schema)
            scores[start:end] = score_batch(model, query, block, rows[start:end], pools_of[query])
        return scores

    def scorer(queries, profiles):
        if isinstance(queries, Query):
            return float(score_rows([queries], [profiles])[0])
        return score_rows(queries, profiles)

    return scorer
