"""Feature assembly, session pair mining, and end-to-end ranker training.

Features combine syntactic facet overlap (jaccard, keyword trigram
overlap) with similarity between pooled query and member embedding
vectors; the scoring network trains under a pointwise or pairwise
objective with session-based pair mining.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import NAMESPACES, CorpusError, ProfileStore, Query, Session, SessionStore
from .evaluation import query_runs, rank_sessions, session_rows
from .fileio import atomic_write, keyed, read_lines
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
        self.row_of = {mid: row for row, mid in enumerate(self.member_ids)}
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
    spaces = [*schema.jaccard_namespaces, *([TRIGRAM] if schema.use_keyword_trigrams else [])]
    cols = []
    if spaces:
        bags = [word_hash(query.keywords).keys() if space == TRIGRAM else query.facet(space)
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
            objective = keyed(lines[1], "objective")
            seed = int(keyed(lines[2], "seed"))
            epochs_run = int(keyed(lines[3], "epochs_run"))
            schema = FeatureSchema.from_json(keyed(lines[4], "schema"))
            net, _ = mlp_from_lines(lines, 5)
        except (IndexError, KeyError, TypeError, ValueError, RecursionError) as e:
            raise RankerError(f"malformed model file {path}: {e}") from None
        if objective not in OBJECTIVES:
            raise RankerError(f"model file {path}: unknown objective {objective!r}")
        if net.input_width != schema.width:
            raise RankerError(
                f"model input width {net.input_width} does not match schema width {schema.width}"
            )
        return cls(schema, net, objective, seed, epochs_run)


@dataclass
class _Dataset:
    X: np.ndarray
    y: np.ndarray
    pairs: np.ndarray  # (m, 2) example indices (positive, negative)


def _features(queries: list, profiles: list, tables: dict, schema: FeatureSchema) -> np.ndarray:
    """The feature rows of row-aligned (query, profile) lists, built over
    one MemberBlock of their distinct members, in member-id order. Each
    distinct query is pooled once, and build_features runs once per run of
    rows that share a query (query_runs)."""
    distinct = {p.member_id: p for p in profiles}
    block = MemberBlock(distinct.values(), _schema_tables(tables, schema))
    rows = np.array([block.row_of[p.member_id] for p in profiles], dtype=np.intp)
    pools_of: dict = {}
    X = np.empty((len(rows), schema.width))
    for start, end in query_runs(queries):
        query = queries[start]
        if query not in pools_of:
            pools_of[query] = query_pools(query, block.tables, schema)
        X[start:end] = build_features(query, block, rows[start:end], pools_of[query], schema)
    return X


def _build_dataset(sessions: SessionStore, profiles: ProfileStore, tables: dict,
                   schema: FeatureSchema, pairwise: bool) -> _Dataset:
    """One example per row of session_rows, with its label and, for a
    pairwise objective only, each session's mined (positive, negative)
    example pairs."""
    X = _features(*session_rows(sessions, profiles), tables, schema)
    labels, pairs = [], []
    for session in sessions:
        if pairwise:
            index_of = {imp.member_id: len(labels) + i for i, imp in enumerate(session.impressions)}
            pairs.extend((index_of[p.member_id], index_of[n.member_id])
                         for p, n in mine_pairs(session))
        labels.extend(imp.label for imp in session.impressions)
    return _Dataset(X=X, y=np.array(labels, dtype=np.float64),
                    pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2))


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
    X_valid = _features(*session_rows(valid, profiles), tables, schema) if len(valid) else None

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
        if X_valid is None:
            continue
        # ties count as improvement (keep the latest), so a plateaued
        # metric lets training run on instead of freezing epoch 1
        metric = rank_sessions(mlp_forward(net, X_valid), valid, [25]).prec_at[25]
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

    A call scores the rows of _features with one mlp_forward per run of
    rows that share a query (a replayed session): one forward over a whole
    replay would hold (n, hidden) temporaries for every row at once. A lone
    `scorer(query, profile)` returns one float, scored as a one-row batch;
    build_features and mlp_forward make every row of a batch bit-identical
    to it.
    """
    _schema_tables(tables, model.schema)

    def scorer(queries, profiles):
        if isinstance(queries, Query):
            return float(scorer([queries], [profiles])[0])
        X = _features(queries, profiles, tables, model.schema)
        scores = np.empty(len(X))
        for start, end in query_runs(queries):
            scores[start:end] = mlp_forward(model.net, X[start:end])
        return scores

    return scorer
