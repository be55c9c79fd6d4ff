import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from talentrank.corpus import EntityId
from talentrank.entity_graph import GraphError, WeightedGraph, empirical_first_order
from talentrank.graph_embed import (
    EmbedConfig,
    EmbeddingError,
    EmbeddingTable,
    MAX_EXACT_VERTICES,
    concat_embeddings,
    pool,
    similarity,
    train_first_order,
    train_second_order,
    _edge_arrays,
    _logsumexp,
    _o1_value,
    _o2_value,
    _second_order_state,
    _vertex_order,
)
from talentrank import _kernels
from helpers import _epoch_loop, call_within, mutate, reference_pool, run_bounds, run_kernel


def ent(i, ns="skill"):
    return EntityId(ns, i)


def graph_from(weights, ns="skill"):
    verts = set()
    edges = {}
    for (a, b), w in weights.items():
        va, vb = ent(a, ns), ent(b, ns)
        verts.update((va, vb))
        edges[(va, vb)] = w
    return WeightedGraph(ns, verts, edges)


def table_of(vectors, kind="first_order"):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, kind, [ent(i) for i in vectors], list(vectors.values()))


def barbell_graph():
    verts = [ent(i) for i in range(8)]
    edges = {}
    for a, b in combinations(range(4), 2):
        edges[(verts[a], verts[b])] = 10
    for a, b in combinations(range(4, 8), 2):
        edges[(verts[a], verts[b])] = 10
    edges[(verts[3], verts[4])] = 1
    return WeightedGraph("skill", verts, edges)


def cosine(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return float(u @ v / (nu * nv)) if nu and nv else 0.0


def predicted_context_rows(graph, vertex_table, context_table):
    verts, _ = _vertex_order(graph)
    U = np.array([vertex_table[v] for v in verts])
    C = np.array([context_table[v] for v in verts])
    logits = U @ C.T
    return np.exp(logits - _logsumexp(logits, axis=1)[:, None]), verts


def rows_of(graph, vectors):
    """The (n, d) matrix of `vectors` (id -> vector) in the graph's vertex order."""
    verts, _ = _vertex_order(graph)
    return np.array([vectors[v.id] for v in verts], dtype=np.float64)


def o1_inputs(graph):
    """(ei, ej, phat) of _o1_value, as c02 builds them."""
    verts, index = _vertex_order(graph)
    ei, ej, w = _edge_arrays(graph, index)
    return ei, ej, w / graph.total_weight


def o2_inputs(graph):
    """(lam, phat) of _o2_value."""
    return _second_order_state(graph, *_vertex_order(graph))


def neighbors_of(graph):
    """vertex -> {neighbor: exact integer weight}, from edges()."""
    nbrs = {v: {} for v in graph.vertices}
    for a, b, w in graph.edges():
        nbrs[a][b] = nbrs[b][a] = w
    return nbrs


class TestFirstOrderObjective:
    def test_zero_when_model_matches_uniform_empirical(self):
        g = graph_from({(0, 1): 3, (1, 2): 3})
        vectors = {0: [0.0, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0]}
        assert abs(_o1_value(rows_of(g, vectors), *o1_inputs(g))) <= 1e-12

    def test_matches_independent_scalar_evaluation(self):
        # two unit edges with dot products 0 and ln 3
        g = graph_from({(0, 1): 1, (1, 2): 1})
        vectors = {0: [0.0], 1: [1.0], 2: [math.log(3.0)]}
        s1 = 1.0 / (1.0 + math.exp(0.0))
        s2 = 1.0 / (1.0 + math.exp(-math.log(3.0)))
        z = s1 + s2
        expected = 0.5 * math.log(0.5 / (s1 / z)) + 0.5 * math.log(0.5 / (s2 / z))
        assert abs(_o1_value(rows_of(g, vectors), *o1_inputs(g)) - expected) <= 1e-12

    def test_invariant_under_vertex_relabeling(self):
        g1 = graph_from({(0, 1): 2, (1, 2): 5})
        v1 = {0: [0.3, -0.1], 1: [0.2, 0.4], 2: [-0.5, 0.1]}
        g2 = graph_from({(7, 9): 2, (9, 11): 5})
        v2 = {7: [0.3, -0.1], 9: [0.2, 0.4], 11: [-0.5, 0.1]}
        assert _o1_value(rows_of(g1, v1), *o1_inputs(g1)) == pytest.approx(
            _o1_value(rows_of(g2, v2), *o1_inputs(g2)), abs=1e-14)

    def test_nonnegative_at_random_points(self):
        rng = np.random.RandomState(0)
        g = graph_from({(0, 1): 2, (1, 2): 1, (0, 2): 4})
        for _ in range(20):
            emb = rng.randn(3, 3)
            assert _o1_value(emb, *o1_inputs(g)) >= -1e-12


class TestSecondOrderObjective:
    def test_matches_bruteforce_on_star(self):
        # hand-sized star: brute-force softmax evaluation as the oracle
        g = graph_from({(0, 1): 1, (0, 2): 2, (0, 3): 3})
        rng = np.random.RandomState(4)
        vt = {i: rng.randn(3) for i in range(4)}
        ct = {i: rng.randn(3) for i in range(4)}
        verts = sorted(g.vertices)
        nbrs = neighbors_of(g)
        expected = 0.0
        for vi in verts:
            lam = sum(nbrs[vi].values())
            exps = [math.exp(float(np.dot(ct[vk.id], vt[vi.id]))) for vk in verts]
            denom = sum(exps)
            for vj, w in nbrs[vi].items():
                phat = w / lam
                p2 = exps[verts.index(vj)] / denom
                expected += lam * phat * math.log(phat / p2)
        got = _o2_value(rows_of(g, vt), rows_of(g, ct), *o2_inputs(g))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scaling_weights_scales_objective(self):
        # p-hat is weight-scale invariant, so O2 scales with the degrees
        g1 = graph_from({(0, 1): 1, (1, 2): 2, (0, 2): 3})
        g3 = graph_from({(0, 1): 3, (1, 2): 6, (0, 2): 9})
        rng = np.random.RandomState(1)
        vt = {i: rng.randn(2) for i in range(3)}
        ct = {i: rng.randn(2) for i in range(3)}
        assert _o2_value(rows_of(g3, vt), rows_of(g3, ct), *o2_inputs(g3)) == pytest.approx(
            3.0 * _o2_value(rows_of(g1, vt), rows_of(g1, ct), *o2_inputs(g1)), rel=1e-12)

    def test_near_zero_when_model_matches_empirical(self):
        # logits constructed to realize p-hat (self logit pushed far down)
        g = graph_from({(0, 1): 1, (1, 2): 3, (0, 2): 2})
        verts = sorted(g.vertices)
        n = len(verts)
        nbrs = neighbors_of(g)
        logits = np.full((n, n), -60.0)
        for i, vi in enumerate(verts):
            for vj, w in nbrs[vi].items():
                logits[i, verts.index(vj)] = math.log(w / sum(nbrs[vi].values()))
        vt = {v.id: row for v, row in zip(verts, logits)}
        ct = {v.id: row for v, row in zip(verts, np.eye(n))}
        assert 0.0 <= _o2_value(rows_of(g, vt), rows_of(g, ct), *o2_inputs(g)) <= 1e-10


def finite_difference_check(value_fn, grad_arrays, params, step=1e-5):
    """Max relative error between analytic grads and central differences."""
    max_rel = 0.0
    for arr, grad in zip(params, grad_arrays):
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            f_plus = value_fn()
            arr.flat[idx] = orig - step
            f_minus = value_fn()
            arr.flat[idx] = orig
            numeric = (f_plus - f_minus) / (2 * step)
            analytic = grad.flat[idx]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel


class TestGradients:
    def test_first_order_gradient_matches_finite_differences(self):
        from talentrank.graph_embed import _edge_arrays, _o1_gradient, _o1_value

        g = graph_from({(0, 1): 2, (1, 2): 1, (0, 2): 4, (2, 3): 3})
        verts, index = _vertex_order(g)
        ei, ej, w = _edge_arrays(g, index)
        phat = w / g.total_weight
        emb = np.random.RandomState(7).randn(len(verts), 5) * 0.3
        grad = _o1_gradient(emb, ei, ej, phat)
        err = finite_difference_check(lambda: _o1_value(emb, ei, ej, phat), [grad], [emb])
        assert err < 1e-4

    def test_second_order_gradient_matches_finite_differences(self):
        from talentrank.graph_embed import _o2_gradient, _o2_value, _second_order_state

        g = graph_from({(0, 1): 2, (1, 2): 1, (0, 2): 4, (2, 3): 3})
        verts, index = _vertex_order(g)
        lam, phat = _second_order_state(g, verts, index)
        rng = np.random.RandomState(8)
        U = rng.randn(len(verts), 4) * 0.3
        C = rng.randn(len(verts), 4) * 0.3
        gu, gc = _o2_gradient(U, C, lam, phat)
        err = finite_difference_check(lambda: _o2_value(U, C, lam, phat), [gu, gc], [U, C])
        assert err < 1e-4


class TestTrainFirstOrder:
    def test_degenerate_single_edge_graph(self):
        # one edge: Z absorbs the sigmoid, so O1 is identically 0
        g = graph_from({(0, 1): 5})
        table = train_first_order(g, EmbedConfig(dim=4, epochs=10, seed=2))
        assert all(abs(v) <= 1e-15 for v in table.history)

    def test_barbell_structure_recovery(self):
        table = train_first_order(barbell_graph(), EmbedConfig(seed=1))
        intra, inter = [], []
        for a, b in combinations(range(8), 2):
            c = cosine(table[ent(a)], table[ent(b)])
            (intra if (a < 4) == (b < 4) else inter).append(c)
        assert np.mean(intra) - np.mean(inter) >= 0.2

    def test_objective_history_nonincreasing(self):
        table = train_first_order(barbell_graph(), EmbedConfig(learning_rate=0.05, epochs=5, seed=1))
        hist = table.history
        assert len(hist) >= 2
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_deterministic(self):
        g = barbell_graph()
        cfg = EmbedConfig(epochs=20, seed=9)
        assert train_first_order(g, cfg) == train_first_order(g, cfg)

    def test_edgeless_graph_errors(self):
        g = WeightedGraph("skill", [ent(0)], {})
        with pytest.raises(GraphError):
            train_first_order(g, EmbedConfig())

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, mode, value):
        with pytest.raises(EmbeddingError, match="learning_rate must be finite"):
            EmbedConfig(mode=mode, learning_rate=value)


class TestTrainSecondOrder:
    def test_identical_neighborhoods_converge_together(self):
        # vertices 0 and 1 share the same weighted neighborhood
        g = graph_from({
            (0, 2): 3, (1, 2): 3, (0, 3): 1, (1, 3): 1,
            (4, 5): 2, (2, 4): 1, (3, 5): 1,
        })
        vt, ct = train_second_order(g, EmbedConfig(seed=1))
        rows, verts = predicted_context_rows(g, vt, ct)
        tv = 0.5 * np.abs(rows[0] - rows[1]).sum()
        assert tv <= 0.05

    def test_single_directed_pair_concentrates(self):
        g = graph_from({(0, 1): 1})
        vt, ct = train_second_order(g, EmbedConfig(epochs=400, seed=1))
        rows, verts = predicted_context_rows(g, vt, ct)
        assert rows[0, 1] >= 0.99
        assert rows[1, 0] >= 0.99

    def test_deterministic(self):
        g = graph_from({(0, 1): 2, (1, 2): 1, (0, 2): 1})
        cfg = EmbedConfig(epochs=15, seed=5)
        a_vt, a_ct = train_second_order(g, cfg)
        b_vt, b_ct = train_second_order(g, cfg)
        assert a_vt == b_vt and a_ct == b_ct

    def test_isolated_vertices_named_in_error(self):
        g = WeightedGraph("skill", [ent(0), ent(1), ent(9)], {(ent(0), ent(1)): 1})
        with pytest.raises(GraphError, match="9"):
            train_second_order(g, EmbedConfig())

    def test_exact_mode_refuses_graph_above_vertex_bound(self):
        n = MAX_EXACT_VERTICES + 1
        g = graph_from({(v, v + 1): 1 for v in range(n - 1)})
        with pytest.raises(EmbeddingError, match="sampled mode"):
            train_second_order(g, EmbedConfig(dim=2, epochs=1))
        vt, ct = train_second_order(g, EmbedConfig(dim=2, epochs=0, mode="sampled"))
        assert len(vt) == len(ct) == n


def tie_ranks(x):
    x = np.asarray(x, float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    xs = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2
        i = j + 1
    return ranks


def spearman(a, b):
    ra, rb = tie_ranks(a), tie_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


class TestSampledMode:
    def test_first_order_concordant_with_empirical(self):
        # degree-regular K4 so the sampled fixed point orders like w/W
        g = graph_from({
            (0, 1): 10, (2, 3): 10, (0, 2): 4, (1, 3): 4, (0, 3): 1, (1, 2): 1,
        })
        cfg = EmbedConfig(dim=16, learning_rate=0.05, epochs=300, mode="sampled",
                          negatives_per_edge=5, seed=0)
        t = train_first_order(g, cfg)
        sims, targets = [], []
        for (a, b), p in sorted(empirical_first_order(g).items()):
            sims.append(1.0 / (1.0 + math.exp(-float(t[a] @ t[b]))))
            targets.append(p)
        assert spearman(sims, targets) >= 0.8

    def test_sampled_deterministic(self):
        g = graph_from({(0, 1): 3, (1, 2): 1, (0, 2): 2})
        cfg = EmbedConfig(dim=8, epochs=10, mode="sampled", seed=4, learning_rate=0.05)
        assert train_first_order(g, cfg) == train_first_order(g, cfg)
        a = train_second_order(g, cfg)
        b = train_second_order(g, cfg)
        assert a[0] == b[0] and a[1] == b[1]

    def test_kernel_paths_agree(self):
        # the scalar loop, one sample at a time, against the level kernel:
        # same update sequence, dots summed and sigmoids computed another
        # way, so vectors agree within 1e-12 absolute and the summed losses
        # within 1e-9
        rng = np.random.RandomState(0)
        n, m = 7, 40
        src = rng.randint(0, n, size=m).astype(np.int64)
        dst = (src + 1 + rng.randint(0, n - 1, size=m)) % n
        dst[::9] = src[::9]  # a pair i -> i, which tied updates one row twice
        # negatives 0 and 1 equal i and j, the rest are random
        neg = np.column_stack([src, dst, rng.randint(0, n, size=(m, 3))]).astype(np.int64)
        for tied in (True, False):
            results = []
            for fn in (_epoch_loop, _kernels._epoch_runs):
                vert = np.random.RandomState(1).uniform(-0.5, 0.5, (n, 8))
                ctx = vert if tied else vert[::-1].copy()
                loss = fn(vert, ctx, src, dst, neg, 0.05, tied)
                results.append((loss, vert, ctx))
            (loss_a, vert_a, ctx_a), (loss_b, vert_b, ctx_b) = results
            assert abs(loss_a - loss_b) <= 1e-9, tied
            assert np.max(np.abs(vert_a - vert_b)) <= 1e-12, tied
            assert np.max(np.abs(ctx_a - ctx_b)) <= 1e-12, tied

    @pytest.mark.parametrize("tied", [True, False])
    def test_any_conflict_free_split_gives_identical_tables(self, tied):
        # every sample in its own run, the greedy runs over the whole
        # stream, greedy runs within blocks of 7 samples, the levels (each
        # level's samples in sample order) and the kernel, all through the
        # one group step: the same tables, bit for bit
        rng = np.random.RandomState(2)
        n, m = 40, 2 * _kernels.RUN_CHUNK + 300
        src = rng.randint(0, n, size=m).astype(np.int64)
        dst = (src + 1 + rng.randint(0, n - 1, size=m)) % n
        neg = rng.randint(0, n, size=(m, 3)).astype(np.int64)
        neg[::5, 0] = dst[::5]
        neg[::7, 1] = src[::7]

        def greedy(a, b):
            rows = _kernels._touched_rows(src[a:b], dst[a:b], neg[a:b], n, tied)
            return [a + t for t in run_bounds(rows)]

        blocks = sorted({t for a in range(0, m, 7) for t in greedy(a, min(a + 7, m))})
        levels = _kernels._levels(src, dst, neg, n, tied)
        in_order = np.arange(m)
        splits = {"single": (in_order, list(range(m + 1))), "greedy": (in_order, greedy(0, m)),
                  "blocks": (in_order, blocks),
                  "levels": (np.argsort(levels, kind="stable"),
                             [0, *np.cumsum(np.bincount(levels)).tolist()])}
        assert len(splits["levels"][1]) < len(splits["greedy"][1]) < len(blocks) < m + 1
        keep = _kernels._kept(src, dst, neg, tied)
        results = {}
        for name, (order, bounds) in [*splits.items(), ("kernel", (None, None))]:
            vert = np.random.RandomState(3).uniform(-0.5, 0.5, (n, 6))
            ctx = vert if tied else vert[::-1].copy()
            if bounds is None:
                loss = _kernels._epoch_runs(vert, ctx, src, dst, neg, 0.05, tied)
            else:
                groups = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
                loss = _kernels._apply_groups(vert, ctx, src, dst, neg, 0.05, keep, groups)
            results[name] = (loss, vert.tobytes(), ctx.tobytes())
        for name in ("greedy", "blocks", "levels", "kernel"):
            assert results[name][1:] == results["single"][1:], name
        # every step's loss is the same whatever the split; the kernel adds
        # its blocks' sums
        losses = results["single"][0]
        for name in ("greedy", "blocks", "levels"):
            assert results[name][0].tobytes() == losses.tobytes(), name
        assert results["kernel"][0] == pytest.approx(losses[0].sum() + losses[1:][keep.T].sum(),
                                                     abs=1e-9)

    @staticmethod
    def level_case(rng, case):
        """(n, src, dst, neg) of one stream shape, with k = 5 negatives."""
        k = 5
        if case == "repeats":
            n, m = 7, 60
            src = rng.randint(0, n, size=m)
            dst = (src + 1 + rng.randint(0, n - 1, size=m)) % n
            dst[::9] = src[::9]  # a pair i -> i
            neg = np.column_stack([src, dst, rng.randint(0, n, size=(m, k - 2))])
            neg[::4, 3] = neg[::4, 2]  # a repeated negative
        elif case == "hub":
            n, m = 60, 400
            src, dst = rng.randint(1, n, size=m), rng.randint(1, n, size=m)
            src[rng.rand(m) < 0.95] = 0
            neg = rng.randint(1, n, size=(m, k))
        elif case == "one_level":
            # every sample touches rows no other sample touches
            m = 300
            n = m * (k + 2)
            rows = rng.permutation(n).reshape(m, k + 2)
            src, dst, neg = rows[:, 0], rows[:, 1], rows[:, 2:]
        else:  # "blocks"
            n, m = 300, 2 * _kernels.RUN_CHUNK + 500
            src, dst = rng.randint(0, n, size=m), rng.randint(0, n, size=m)
            neg = rng.randint(0, n, size=(m, k))
        return n, *(np.ascontiguousarray(x, dtype=np.int64) for x in (src, dst, neg))

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("case", ["repeats", "hub", "one_level", "blocks"])
    def test_level_kernel_matches_run_kernel_bit_for_bit(self, case, tied):
        # the level schedule against the run schedule it replaced, from the
        # same tables: the same tables and the same summed loss, bit for bit
        n, src, dst, neg = self.level_case(np.random.RandomState(5), case)
        levels = _kernels._levels(src, dst, neg, n, tied)
        m = len(src)
        if case == "hub":
            assert levels.max() + 1 >= 0.9 * m
        elif case == "one_level":
            assert levels.max() == 0
        elif case == "blocks":
            # levels, and so the permuted stream, cross the blocks the loss
            # is summed in
            chunk = _kernels.RUN_CHUNK
            assert m > 2 * chunk
            assert set(levels[:chunk].tolist()) & set(levels[chunk:2 * chunk].tolist())
        results = []
        for epoch in (run_kernel, _kernels._epoch_runs):
            vert = np.random.RandomState(6).uniform(-0.5, 0.5, (n, 8))
            ctx = vert if tied else vert[::-1].copy()
            loss = epoch(vert, ctx, src, dst, neg, 0.05, tied)
            results.append((loss, vert.tobytes(), ctx.tobytes()))
        assert results[0][1:] == results[1][1:]
        assert results[0][0] == results[1][0]

    def test_level_finder_matches_plain_scan(self):
        # the level finder against a plain scan that keeps each row's last
        # level: 200 seeded inputs, mostly tiny graphs where samples collide
        # often, with duplicate negatives and negatives equal to i or j;
        # then the schedule's invariants on the row keys (tied, one
        # keyspace; untied, context row v keyed n + v)
        def plain_scan(src, dst, neg, tied):
            last, levels = {}, []
            for t in range(len(src)):
                rows = {("ctx", int(v)) for v in (dst[t], *neg[t])} | {("vert", int(src[t]))}
                if tied:
                    rows = {v for _, v in rows}
                level = 1 + max(last.get(row, -1) for row in rows)
                last.update(dict.fromkeys(rows, level))
                levels.append(level)
            return levels

        for seed in range(200):
            rng = np.random.RandomState(seed)
            n = int(rng.randint(3, 8)) if seed % 4 else int(rng.randint(8, 200))
            m, k = int(rng.randint(1, 300)), int(rng.randint(1, 6))
            src = rng.randint(0, n, size=m)
            dst = rng.randint(0, n, size=m)
            neg = rng.randint(0, n, size=(m, k))
            hit = rng.rand(m, k)
            neg = np.where(hit < 0.2, src[:, None], np.where(hit < 0.4, dst[:, None], neg))
            if k > 1:
                neg[::3, 1] = neg[::3, 0]
            for tied in (True, False):
                levels = _kernels._levels(src, dst, neg, n, tied).tolist()
                assert levels == plain_scan(src, dst, neg, tied), (seed, tied)
                shift = 0 if tied else n
                seen, touched = {}, {}
                for t, level in enumerate(levels):
                    for key in {int(src[t]), *(int(v) + shift for v in (dst[t], *neg[t]))}:
                        # disjoint within a level, rising along each row
                        assert seen.setdefault((level, key), t) == t, (seed, tied, t)
                        assert touched.get(key, -1) < level, (seed, tied, t)
                        touched[key] = level

    @pytest.mark.parametrize("tied", [True, False])
    def test_level_finder_memory_is_per_block(self, tied):
        # the finder boxes one RUN_CHUNK block of row keys at a time: its
        # traced peak on 16 blocks stays below twice its peak on one block,
        # where boxing the whole stream would cost ~16 blocks' keys
        def peak(blocks):
            rng = np.random.RandomState(0)
            n, m = 500, blocks * _kernels.RUN_CHUNK
            src, dst = rng.randint(0, n, size=m), rng.randint(0, n, size=m)
            neg = rng.randint(0, n, size=(m, 5))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _kernels._levels(src, dst, neg, n, tied)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        one, many = peak(1), peak(16)
        assert many < 2 * one, (one, many)

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("n", [500, 8237])
    def test_kernel_memory_is_one_loss_array(self, n, tied):
        # an epoch holds one (k + 1, m) float loss array, in sample order,
        # beside the keep mask and the level order: its traced peak stays
        # below 2.5 loss arrays, where permuted copies of the stream and a
        # second loss array for the scatter back to sample order read ~4.6
        rng = np.random.RandomState(0)
        k, m = 5, 16 * _kernels.RUN_CHUNK
        src, dst = rng.randint(0, n, size=m), rng.randint(0, n, size=m)
        neg = rng.randint(0, n, size=(m, k))
        vert = rng.uniform(-0.5, 0.5, (n, 50))
        ctx = vert if tied else vert[::-1].copy()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _kernels._epoch_runs(vert, ctx, src, dst, neg, 0.05, tied)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (k + 1) * m * 8, peak

    @pytest.mark.parametrize("epoch", [_epoch_loop, _kernels._epoch_runs])
    def test_tied_step_skips_negative_equal_to_source(self, epoch):
        # one pair 0 -> 1 with negative 0, d=1, emb = [[1], [0]], lr = 0.5.
        # Positive step: dot = 0, loss log 2, g = -1/2, so row 1 (the
        # context side) moves by 0.5 * 0.5 * 1 = 0.25 and row 0 stays.
        src, dst, neg = (np.array(a, dtype=np.int64) for a in ([0], [1], [[0]]))
        emb = np.array([[1.0], [0.0]])
        loss = epoch(emb, emb, src, dst, neg, 0.5, True)
        # tied: the negative equals i and is skipped
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        assert np.array_equal(emb, [[1.0], [0.25]])
        # untied: the negative is context row 0, dot = 1, so the loss gains
        # -log sigmoid(-1) = log(1 + e) and vert[0], ctx[0] both drop by
        # 0.5 * sigmoid(1)
        vert = np.array([[1.0], [0.0]])
        ctx = vert.copy()
        loss = epoch(vert, ctx, src, dst, neg, 0.5, False)
        assert loss == pytest.approx(math.log(2.0) + math.log1p(math.e), abs=1e-15)
        step = 0.5 / (1.0 + math.exp(-1.0))
        assert vert[:, 0] == pytest.approx([1.0 - step, 0.0], abs=1e-15)
        assert ctx[:, 0] == pytest.approx([1.0 - step, 0.25], abs=1e-15)


def random_graph(rng, shift=0, isolated=True):
    """A seeded random graph over sparse ids (each plus `shift`), with one
    to three isolated vertices when `isolated`."""
    n = int(rng.randint(2, 40))
    extra = int(rng.randint(1, 4)) if isolated else 0
    ids = [int(i) + shift for i in rng.choice(10**6, size=n + extra, replace=False)]
    verts = [ent(i) for i in ids]
    edges = {}
    for a, b in combinations(range(n), 2):
        if rng.rand() < 0.2:
            edges[(verts[a], verts[b])] = int(rng.randint(1, 50))
    if not isolated:
        for a in range(n - 1):  # a path through every vertex
            edges.setdefault((verts[a], verts[a + 1]), 1)
    if not edges:
        edges[(verts[0], verts[1])] = 1
    return WeightedGraph("skill", verts, edges)


def reference_graph_arrays(graph):
    """The graph's (order, ei, ej, w, degree), entity by entity from
    graph.edges(): sorted vertices, edge positions and weights, and degrees
    summed edge by edge."""
    verts = sorted(graph.vertices, key=lambda v: (v.namespace, v.id))
    index = {v: i for i, v in enumerate(verts)}
    edges = graph.edges()
    degree = [0] * len(verts)
    for a, b, w in edges:
        degree[index[a]] += w
        degree[index[b]] += w
    return (tuple(verts),
            np.array([index[a] for a, _, _ in edges], dtype=np.int64),
            np.array([index[b] for _, b, _ in edges], dtype=np.int64),
            np.array([w for _, _, w in edges], dtype=np.float64),
            np.array(degree, dtype=np.float64))


class TestGraphArrays:
    def test_equal_per_entity_reference(self):
        for seed in range(50):
            g = random_graph(np.random.RandomState(seed))
            got, expected = (g.order, g.ei, g.ej, g.w, g.degree), reference_graph_arrays(g)
            assert got[0] == expected[0], seed
            for a, b in zip(got[1:], expected[1:]):
                assert a.dtype == b.dtype and np.array_equal(a, b), seed
                assert not a.flags.writeable, seed

    def test_ids_beyond_int64_train_bit_identical_tables(self):
        # each graph's ids shifted by 2**64 against the unshifted graph:
        # the same tables and histories, bit for bit, in both modes and
        # orders
        def tables(g):
            out = []
            for mode in ("sampled", "exact"):
                cfg = EmbedConfig(dim=4, epochs=3, mode=mode, learning_rate=0.05, seed=6)
                out += [train_first_order(g, cfg), *train_second_order(g, cfg)]
            return out

        def keyed(table, shift):
            return {v.id - shift: table[v].tobytes() for v in table.vectors}

        for seed in range(5):
            plain = random_graph(np.random.RandomState(seed), isolated=False)
            shifted = random_graph(np.random.RandomState(seed), shift=2**64, isolated=False)
            for a, b in zip(tables(shifted), tables(plain)):
                assert keyed(a, 2**64) == keyed(b, 0), (seed, a.kind)
                assert a.history == b.history, (seed, a.kind)


class TestTableConstructor:
    def test_rows_of_a_private_copy(self):
        matrix = np.array([[1.0, 2.0], [3.0, -0.0]])
        table = EmbeddingTable(2, "concat", [ent(5), ent(1)], matrix, history=[0.5])
        matrix[:] = 9.0
        assert table.vectors.keys() == {ent(5), ent(1)}
        assert table[ent(5)].tolist() == [1.0, 2.0] and table[ent(1)].tolist() == [3.0, 0.0]
        assert table.history == [0.5] and np.signbit(table[ent(1)][1])

    def test_checks_shape_and_finiteness(self):
        with pytest.raises(EmbeddingError, match=r"shape \(2, 3\), expected \(2, 2\)"):
            EmbeddingTable(2, "concat", [ent(0), ent(1)], np.zeros((2, 3)))
        with pytest.raises(EmbeddingError, match=r"shape \(2,\), expected \(2, 1\)"):
            EmbeddingTable(1, "concat", [ent(0), ent(1)], [0.0, 1.0])
        with pytest.raises(EmbeddingError, match="^entity 7: vector has non-finite entries$"):
            EmbeddingTable(1, "concat", [ent(3), ent(7), ent(9)], [[0.0], [np.inf], [np.nan]])
        assert len(EmbeddingTable(4, "concat", [], np.zeros((0, 4)))) == 0

    def test_refuses_a_repeated_entity(self):
        with pytest.raises(EmbeddingError, match="^duplicate entity 3$"):
            EmbeddingTable(1, "concat", [ent(3), ent(8), ent(3)], [[0.0], [1.0], [2.0]])

    def test_checks_dim_and_kind(self):
        with pytest.raises(EmbeddingError, match="dim must be >= 1, got 0"):
            EmbeddingTable(0, "concat", [], np.zeros((0, 0)))
        with pytest.raises(EmbeddingError, match="unknown table kind 'bogus'"):
            EmbeddingTable(1, "bogus", [ent(0)], [[0.0]])


class TestConcat:
    def test_components_ordered_first_then_second(self):
        first = table_of({0: [1.0, 0.0]}, kind="first_order")
        second = table_of({0: [0.0, 2.0]}, kind="second_order_vertex")
        combined = concat_embeddings(first, second)
        assert combined.dim == 4
        assert np.array_equal(combined[ent(0)], [1.0, 0.0, 0.0, 2.0])

    def test_empty_tables(self):
        first = EmbeddingTable(2, "first_order", [], np.zeros((0, 2)))
        second = EmbeddingTable(3, "second_order_vertex", [], np.zeros((0, 3)))
        combined = concat_embeddings(first, second)
        assert combined.dim == 5 and len(combined) == 0

    def test_vertex_set_mismatch_errors(self):
        first = table_of({0: [1.0]}, kind="first_order")
        second = table_of({1: [1.0]}, kind="second_order_vertex")
        with pytest.raises(EmbeddingError):
            concat_embeddings(first, second)


class TestPool:
    def test_mean(self):
        t = table_of({0: [1.0, 0.0], 1: [0.0, 1.0]})
        vec, cov = pool({ent(0), ent(1)}, t)
        assert np.array_equal(vec, [0.5, 0.5]) and cov == 1.0

    def test_unknown_bag_gives_zero_vector(self):
        t = table_of({0: [1.0, 2.0]})
        vec, cov = pool({ent(5), ent(6)}, t)
        assert np.array_equal(vec, [0.0, 0.0]) and cov == 0.0

    def test_empty_bag(self):
        t = table_of({0: [1.0, 2.0]})
        vec, cov = pool(set(), t)
        assert np.array_equal(vec, [0.0, 0.0]) and cov == 0.0

    def test_singleton_mean_is_identity(self):
        t = table_of({3: [0.4, -0.2, 0.9]})
        vec, cov = pool({ent(3)}, t)
        assert np.array_equal(vec, t[ent(3)]) and cov == 1.0

    def test_partial_coverage_fraction(self):
        t = table_of({0: [2.0]})
        vec, cov = pool({ent(0), ent(9)}, t)
        assert cov == 0.5 and np.array_equal(vec, [2.0])

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_bit_identical_to_scalar_reference(self, dim):
        rng = np.random.RandomState(dim)
        ids = [0, 1, 2, 3, 4, 2**70]
        vectors = {i: rng.randn(dim) for i in ids[:-2]}
        vectors[4] = np.full(dim, -0.0)  # sums of -0.0 stay -0.0
        vectors[2**70] = rng.randn(dim) * 1e300
        t = table_of(vectors)
        bags = [set(), {ent(4)}, {ent(4), ent(9)}, {ent(9)}, {ent(2**70), ent(1)}]
        choices = ids + [7, 9]  # 7 and 9 are not in the table
        bags += [{ent(choices[k]) for k in rng.choice(len(choices), size=rng.randint(1, 8),
                                                      replace=False)} for _ in range(50)]
        for bag in bags:
            (vec, cov), (ref_vec, ref_cov) = pool(bag, t), reference_pool(bag, t)
            assert vec.shape == (dim,) and vec.tobytes() == ref_vec.tobytes(), bag
            assert type(cov) is float and cov == ref_cov, bag
            assert np.signbit(cov) == np.signbit(ref_cov), bag


class TestSimilarity:
    def test_dot(self):
        assert similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "dot")[0] == 11.0

    def test_cosine_self(self):
        v = np.array([0.3, -0.7, 0.1])
        assert similarity(v, v, "cosine")[0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_convention(self):
        assert similarity(np.zeros(3), np.ones(3), "cosine")[0] == 0.0

    def test_hadamard(self):
        out = similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "hadamard")
        assert np.array_equal(out, [3.0, 8.0])

    def test_dot_bilinear(self):
        rng = np.random.RandomState(3)
        for _ in range(10):
            m, q = rng.randn(4), rng.randn(4)
            alpha = rng.randn()
            assert abs(similarity(alpha * m, q, "dot")[0]
                       - alpha * similarity(m, q, "dot")[0]) <= 1e-12

    def test_length_mismatch_errors(self):
        with pytest.raises(EmbeddingError):
            similarity(np.zeros(2), np.zeros(3), "dot")


class TestInterchangeFormat:
    def test_round_trip_idempotent(self, tmp_path):
        g = barbell_graph()
        table = train_first_order(g, EmbedConfig(dim=5, epochs=30, seed=3))
        p1 = tmp_path / "a.emb"
        table.save(str(p1))
        loaded = EmbeddingTable.load(str(p1), "skill")
        assert loaded.dim == 5 and loaded.kind == "first_order"
        assert set(loaded.vectors) == set(table.vectors)
        p2 = tmp_path / "b.emb"
        loaded.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_sorting(self, tmp_path):
        t = table_of({5: [1.5], 1: [0.25]})
        path = tmp_path / "t.emb"
        t.save(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "dim=1 kind=first_order"
        assert [int(l.split()[0]) for l in lines[1:]] == [1, 5]

    @pytest.mark.parametrize("text, error", [
        (b"dim=1 kind=first_order\n1 0.5\n2 0.5\n1 0.25\n", "line 4: duplicate entity 1"),
        (b"dim=1 kind=first_order\n1 0.5\n2 \xff\n", "not UTF-8 text: byte 0xff"),
    ])
    def test_load_rejects_duplicate_entity_and_non_utf8(self, tmp_path, text, error):
        path = tmp_path / "t.emb"
        path.write_bytes(text)
        with pytest.raises(EmbeddingError, match=error):
            EmbeddingTable.load(str(path), "skill")

    @pytest.mark.parametrize("header", ["1 first_order", "dim=1 kind=first_order junk=1",
                                        "kind=first_order dim=1", "dim=01 kind=first_order",
                                        "dim=1 kind=bogus", "dim=1  kind=first_order"])
    def test_header_is_refused_unless_as_written(self, tmp_path, header):
        path = tmp_path / "t.emb"
        path.write_text(f"{header}\n1 0.5\n")
        with pytest.raises(EmbeddingError, match="line 1: expected a 'dim=<d> kind=<kind>'"):
            EmbeddingTable.load(str(path), "skill")

    def test_reload_is_a_fixed_point(self, tmp_path):
        """load(save(load(x))) holds load(x)'s vectors, bit for bit."""
        path, again = tmp_path / "a.emb", tmp_path / "b.emb"
        train_first_order(barbell_graph(), EmbedConfig(dim=5, epochs=30, seed=3)).save(str(path))
        loaded = EmbeddingTable.load(str(path), "skill")
        loaded.save(str(again))
        reloaded = EmbeddingTable.load(str(again), "skill")
        assert reloaded == loaded
        assert all(reloaded[e].tobytes() == loaded[e].tobytes() for e in loaded.entity_ids())

    def test_fuzzed_files_load_or_raise_embedding_error(self, tmp_path):
        # 100 seeded mutations of a trained table's file: each loads or
        # raises EmbeddingError (CLI exit 2), within 5 s
        path = tmp_path / "t.emb"
        train_first_order(barbell_graph(), EmbedConfig(dim=3, epochs=5, seed=1)).save(str(path))
        original = path.read_bytes()
        for seed in range(100):
            path.write_bytes(mutate(original, np.random.RandomState(seed)))
            error = call_within(lambda: EmbeddingTable.load(str(path), "skill"), 5.0)
            assert error is None or isinstance(error, EmbeddingError), (seed, repr(error))
