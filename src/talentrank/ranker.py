"""Feature assembly, session pair mining, and end-to-end ranker training.

Features combine syntactic facet overlap (jaccard, keyword trigram
overlap) with similarity between pooled query and member embedding
vectors; the scoring network trains under a pointwise or pairwise
objective with session-based pair mining.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import NAMESPACES, CorpusError, ProfileStore, Query, SessionStore
from .evaluation import SessionBlock, query_groups, rank_sessions
from .fileio import load_artifact, write_lines
from .graph_embed import pool, pool_postings, similarity
from .neural import (
    OBJECTIVES,
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
    """Fixed, ordered feature layout shared by training and scoring: a
    Jaccard column per namespace and the keyword trigram overlap, in
    SPACES order, then for each embedding namespace its measures, its
    hadamard block when included, and the member and query coverage."""

    embedding_namespaces: tuple = ()
    embedding_measures: tuple = ("dot",)
    include_hadamard: bool = False
    embedding_dim: int = 0  # required for the hadamard block width

    def __post_init__(self):
        for values, allowed in ((self.embedding_namespaces, NAMESPACES),
                                (self.embedding_measures, EMBEDDING_MEASURES)):
            if not all(v in allowed for v in values) or len(set(values)) < len(values):
                raise RankerError(f"expected distinct values of {allowed}, got {values!r}")
        if not isinstance(self.include_hadamard, bool):
            raise RankerError(f"include_hadamard must be a bool, got {self.include_hadamard!r}")
        dim = self.embedding_dim
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < self.include_hadamard:
            raise RankerError(f"embedding_dim must be an int >= 0, and >= 1 with "
                              f"include_hadamard; got {dim!r}")
        if self.embedding_namespaces and not (self.embedding_measures or self.include_hadamard):
            raise RankerError("embedding namespaces given but no measures selected")

    @property
    def width(self) -> int:
        per_namespace = (len(self.embedding_measures) + 2
                         + (self.embedding_dim if self.include_hadamard else 0))
        return len(NAMESPACES) + 1 + len(self.embedding_namespaces) * per_namespace

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        obj = json.loads(text)
        names = sorted(field.name for field in fields(cls))
        if not isinstance(obj, dict) or sorted(obj) != names:
            raise RankerError(f"schema must set exactly the fields {names}")
        for key in ("embedding_namespaces", "embedding_measures"):
            if not isinstance(obj[key], list):
                raise RankerError(f"{key} must be a list, got {obj[key]!r}")
            obj[key] = tuple(obj[key])
        return cls(**obj)


def query_pools(query: Query, tables: dict, schema: FeatureSchema) -> dict:
    """Pooled (vector, coverage) per embedding namespace for a query facet."""
    return {ns: pool(query.facet(ns), table) for ns, table in _schema_tables(tables, schema).items()}


TRIGRAM = "trigram"  # the key space of headline trigram sets
SPACES = (*NAMESPACES, TRIGRAM)


class MemberBlock:
    """Columnar member block: one row per profile, rows in member_id order
    whatever the order of the profiles given.

    For each key space in SPACES, `postings[space]` maps each key (the
    EntityId, or the trigram string, itself, so any id works) to the
    ascending block rows whose bag holds it, and row SPACES.index(space) of
    the (len(SPACES), n) `sizes` holds the bag sizes. `pools[ns]` holds
    the rows' pooled embeddings for each table, graph_embed.pool_postings
    of the namespace's postings, and `tables` the tables pooled, for query
    embeddings. Set sizes and intersections come from these integer
    counts, never from per-profile sets.
    """

    def __init__(self, profiles, tables: dict):
        """Reads `profiles`, any iterable, once, holding no profile past its
        turn; a repeated member_id is a CorpusError. Headline trigram sets
        are memoized by text for this build only."""
        for ns in tables:
            if ns not in NAMESPACES:
                raise CorpusError(f"unknown namespace {ns!r}")
        index_of: dict = {}  # member_id -> its place in the input
        trigrams: dict = {}  # headline text -> its trigram set
        sizes = [array("q") for _ in SPACES]
        places_of = [{} for _ in SPACES]  # per space: key -> input places, ascending
        for place, profile in enumerate(profiles):
            if profile.member_id in index_of:
                raise CorpusError(f"duplicate member_id {profile.member_id}")
            index_of[profile.member_id] = place
            for space, space_sizes, space_places in zip(SPACES, sizes, places_of):
                if space == TRIGRAM:
                    bag = trigrams.get(profile.headline_text)
                    if bag is None:
                        bag = trigrams[profile.headline_text] = frozenset(
                            word_hash(profile.headline_text))
                else:
                    bag = profile.entities(space)
                space_sizes.append(len(bag))
                for key in bag:
                    places = space_places.get(key)
                    if places is None:
                        places = space_places[key] = array("q")
                    places.append(place)
        self.member_ids = sorted(index_of)
        order = np.array([index_of[mid] for mid in self.member_ids], dtype=np.intp)
        row_at = np.empty(len(order), dtype=np.intp)  # input place -> block row
        row_at[order] = np.arange(len(order))
        self.sizes = np.array(sizes, dtype=np.int64)[:, order]
        self.postings = {}
        for space, space_places in zip(SPACES, places_of):
            self.postings[space] = {key: np.sort(row_at[np.frombuffer(places, dtype=np.int64)])
                                    for key, places in space_places.items()}
            space_places.clear()  # frees the space's arrays before the next converts
        self.tables = tables
        self.pools = {ns: pool_postings(self.postings[ns], self.sizes[SPACES.index(ns)], table)
                      for ns, table in tables.items()}

    def __len__(self) -> int:
        return len(self.member_ids)

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
    bags = [word_hash(query.keywords).keys() if space == TRIGRAM else query.facet(space)
            for space in SPACES]
    inter = np.array([block.counts(space, bag) for space, bag in zip(SPACES, bags)])[:, rows]
    union = block.sizes[:, rows] + [[len(bag)] for bag in bags] - inter
    cols = list(np.divide(inter, union, out=np.zeros(inter.shape), where=union != 0))
    for ns in schema.embedding_namespaces:
        q_vec, q_cov = pools_q[ns]
        m_vecs, m_cov = block.pools[ns]
        m_vecs, m_cov = m_vecs[rows], m_cov[rows]
        cols.extend(similarity(m_vecs, q_vec, m)[:, 0] for m in schema.embedding_measures)
        if schema.include_hadamard:
            cols.extend(similarity(m_vecs, q_vec, "hadamard").T)
        cols.extend([m_cov, np.full(len(rows), q_cov)])
    return np.ascontiguousarray(np.array(cols).T)


@dataclass
class RankingModel:
    schema: FeatureSchema
    net: MlpModel
    objective: str
    seed: int
    epochs_run: int

    def save(self, path: str) -> None:
        write_lines(path, [
            "talentrank-ranker v1",
            f"objective {self.objective}",
            f"seed {self.seed}",
            f"epochs_run {self.epochs_run}",
            "schema " + self.schema.to_json(),
            *mlp_to_lines(self.net),
        ])

    @classmethod
    def load(cls, path: str) -> "RankingModel":
        def parse(lines):
            objective = lines.take("objective")
            if objective not in OBJECTIVES:
                raise RankerError(f"unknown objective {objective!r}")
            seed = int(lines.take("seed"))
            epochs_run = int(lines.take("epochs_run"))
            if epochs_run < 0:
                raise RankerError(f"epochs_run must be >= 0, got {epochs_run}")
            schema = FeatureSchema.from_json(lines.take("schema"))
            return cls(schema, mlp_from_lines(lines, schema.width), objective, seed, epochs_run)

        return load_artifact(path, "model", RankerError, parse, "talentrank-ranker v1")


@dataclass
class _Dataset:
    block: SessionBlock
    X: np.ndarray
    pairs: np.ndarray  # (m, 2) example indices (positive, negative)


def _features(queries: list, profiles: list, tables: dict, schema: FeatureSchema):
    """(rows, X) per distinct query of row-aligned (query, profile) lists,
    grouped by query_groups: the query's rows and their features, over one
    MemberBlock of the distinct members, with the query pooled once. Both
    list the distinct members in member_id order, so a row's block row is
    its distinct index."""
    distinct, member_of, groups = query_groups(queries, profiles)
    block = MemberBlock(distinct, _schema_tables(tables, schema))
    for query, rows in groups.items():
        pools_q = query_pools(query, block.tables, schema)
        yield rows, build_features(query, block, member_of[rows], pools_q, schema)


def _build_dataset(sessions: SessionStore, profiles: ProfileStore, tables: dict,
                   schema: FeatureSchema, pairwise: bool) -> _Dataset:
    """One example per row of the sessions' SessionBlock, with its label
    and, for a pairwise objective only, every (positive, negative) example
    pair within a session, in block.positive_runs order."""
    block = SessionBlock(sessions, profiles)
    X = np.empty((len(block.labels), schema.width))
    for rows, X_rows in _features(block.queries, block.members, tables, schema):
        X[rows] = X_rows
    pairs = np.empty((0, 2), dtype=np.int64)
    if pairwise:
        pos, neg, start, count = block.positive_runs()
        first = np.repeat(start - (np.cumsum(count) - count), count)
        pairs = np.stack([np.repeat(pos, count), neg[first + np.arange(count.sum())]], axis=1)
    return _Dataset(block=block, X=X, pairs=pairs)


def _pointwise_epoch(net, ds, config, rng):
    perm = rng.permutation(len(ds.X))
    for start in range(0, len(perm), config.batch_size):
        idx = perm[start : start + config.batch_size]
        scores, cache = mlp_forward_batch(net, ds.X[idx], training=True,
                                          dropout_rate=config.dropout_rate, rng=rng)
        _, grads = pointwise_loss(scores, ds.block.labels[idx])
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


def train_ranker(train: SessionStore, valid: SessionStore, profiles: ProfileStore,
                 tables: dict, schema: FeatureSchema, config: TrainConfig) -> RankingModel:
    """Train a ranking model; returns the best-on-validation parameters.

    Early stopping monitors validation Prec@25, replay's: rank_sessions
    on the validation scores. With an empty validation split the
    final-epoch parameters are returned.
    """
    if len(train) == 0:
        raise RankerError("train split is empty")
    kind = config.pairwise_kind
    ds_train = _build_dataset(train, profiles, tables, schema, kind is not None)
    if kind is not None and ds_train.pairs.shape[0] == 0:
        raise RankerError("pairwise objective requires at least one positive-negative pair")

    net = init_mlp(schema.width, config.hidden_layers, config.activation, config.seed)
    rng = np.random.RandomState(config.seed)
    ds_valid = _build_dataset(valid, profiles, tables, schema, False) if len(valid) else None

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
        if ds_valid is None:
            continue
        # ties count as improvement (keep the latest), so a plateaued
        # metric lets training run on instead of freezing epoch 1
        metric = rank_sessions(mlp_forward(net, ds_valid.X), ds_valid.block, [25]).prec_at[25]
        if best_metric is None or metric >= best_metric:
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

    A call builds features and runs one mlp_forward per distinct query,
    over that query's rows (_features): one forward over a whole replay
    would hold (n, hidden) temporaries for every row at once. A lone
    `scorer(query, profile)` returns one float, scored as a one-row batch;
    build_features and mlp_forward make every row of a batch bit-identical
    to it.
    """
    _schema_tables(tables, model.schema)

    def scorer(queries, profiles):
        if isinstance(queries, Query):
            return float(scorer([queries], [profiles])[0])
        scores = np.empty(len(queries))
        for rows, X in _features(queries, profiles, tables, model.schema):
            scores[rows] = mlp_forward(model.net, X)
        return scores

    return scorer
