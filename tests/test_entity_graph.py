from itertools import combinations

import numpy as np
import pytest

from talentrank.corpus import EntityId, MemberProfile, ProfileStore, SynthConfig, synth_corpus
from talentrank.entity_graph import (
    GraphError,
    WeightedGraph,
    build_graph,
    empirical_first_order,
    empirical_second_order,
    load_graph,
    save_graph,
)
from helpers import call_within, mutate


def company(i):
    return EntityId("company", i)


def profile(mid, companies):
    return MemberProfile(member_id=mid, skills=frozenset(), titles=frozenset(),
                         companies=frozenset(company(c) for c in companies))


A, B, C = 0, 1, 2


def weights(g):
    """(a id, b id) -> weight, from edges()."""
    return {(a.id, b.id): w for a, b, w in g.edges()}


class TestBuildGraph:
    def test_cooccurrence_counts(self):
        store = ProfileStore([profile(1, [A, B]), profile(2, [A, B]), profile(3, [B, C])])
        g = build_graph(store, "company")
        assert weights(g) == {(A, B): 2, (B, C): 1}
        assert all(type(w) is int for w in weights(g).values())

    def test_single_entity_contributes_no_edges(self):
        g = build_graph(ProfileStore([profile(1, [A])]), "company")
        assert g.num_edges == 0
        assert company(A) in g.vertices

    def test_empty_store(self):
        g = build_graph(ProfileStore([]), "company")
        assert g.num_edges == 0 and not g.vertices

    def test_symmetry(self):
        store = ProfileStore([profile(1, [A, B, C]), profile(2, [A, C])])
        assert weights(build_graph(store, "company")) == {(A, B): 1, (A, C): 2, (B, C): 1}
        # an edge given as (b, a) is stored once, as (a, b)
        g = WeightedGraph("company", [company(A), company(B)], {(company(B), company(A)): 3})
        assert g.edges() == [(company(A), company(B), 3)]

    def test_min_weight_prunes(self):
        store = ProfileStore([profile(1, [A, B]), profile(2, [A, B]), profile(3, [B, C])])
        g = build_graph(store, "company", min_weight=2)
        assert weights(g) == {(A, B): 2}

    def test_matches_bruteforce_on_random_corpora(self):
        # oracle: exhaustive count over member x pair
        for seed in range(5):
            profiles, _, _ = synth_corpus(
                SynthConfig(members=40, sessions=5, entities_per_cluster=6), seed=seed
            )
            for ns in ("skill", "title", "company"):
                g = build_graph(profiles, ns)
                counts = {}
                for p in profiles:
                    for a, b in combinations(sorted(p.entities(ns)), 2):
                        counts[(a, b)] = counts.get((a, b), 0) + 1
                assert dict(((a, b), w) for a, b, w in g.edges()) == counts


def chain_graph(weights):
    """Path graph 0-1-2-... with the given edge weights."""
    verts = [company(i) for i in range(len(weights) + 1)]
    edges = {(verts[i], verts[i + 1]): w for i, w in enumerate(weights)}
    return WeightedGraph("company", verts, edges)


class TestEmpiricalDistributions:
    def test_first_order_fixture(self):
        g = chain_graph([2, 3, 5])
        probs = empirical_first_order(g)
        assert sorted(probs.values()) == [0.2, 0.3, 0.5]
        assert abs(sum(probs.values()) - 1.0) <= 1e-12

    def test_first_order_single_edge(self):
        probs = empirical_first_order(chain_graph([4]))
        assert list(probs.values()) == [1.0]

    def test_first_order_uniform(self):
        probs = empirical_first_order(chain_graph([3, 3, 3, 3]))
        assert all(abs(v - 0.25) <= 1e-12 for v in probs.values())

    def test_first_order_edgeless_errors(self):
        with pytest.raises(GraphError):
            empirical_first_order(WeightedGraph("company", [company(0)], {}))

    def test_second_order_fixture(self):
        g = chain_graph([1, 3])
        probs = empirical_second_order(g, company(1))
        assert probs == {company(0): 0.25, company(2): 0.75}
        assert abs(sum(probs.values()) - 1.0) <= 1e-12

    def test_second_order_single_neighbor(self):
        g = chain_graph([7])
        assert empirical_second_order(g, company(0)) == {company(1): 1.0}

    def test_second_order_star_uniform(self):
        center = company(0)
        spokes = [company(i) for i in range(1, 6)]
        g = WeightedGraph("company", [center] + spokes, {(center, s): 1 for s in spokes})
        probs = empirical_second_order(g, center)
        assert all(abs(v - 0.2) <= 1e-12 for v in probs.values())

    def test_second_order_isolated_errors(self):
        g = WeightedGraph("company", [company(0), company(1), company(2)],
                          {(company(0), company(1)): 1})
        with pytest.raises(GraphError, match="^vertex 2 is isolated$"):
            empirical_second_order(g, company(2))

    def test_second_order_sums_to_one_everywhere(self):
        profiles, _, _ = synth_corpus(SynthConfig(members=60, sessions=5), seed=2)
        g = build_graph(profiles, "skill")
        isolated = set(g.isolated_vertices())
        for v in g.vertices - isolated:
            assert abs(sum(empirical_second_order(g, v).values()) - 1.0) <= 1e-12

    def test_second_order_matches_edges_reference(self):
        # reference: each vertex's neighbors and exact integer degree from edges()
        profiles, _, _ = synth_corpus(SynthConfig(members=60, sessions=5), seed=3)
        g = build_graph(profiles, "skill")
        nbrs = {v: {} for v in g.vertices}
        for a, b, w in g.edges():
            nbrs[a][b] = nbrs[b][a] = w
        for v in sorted(g.vertices - set(g.isolated_vertices())):
            degree = sum(nbrs[v].values())
            got = empirical_second_order(g, v)
            assert list(got) == sorted(nbrs[v])
            assert got == {u: w / degree for u, w in nbrs[v].items()}
            assert all(type(p) is float for p in got.values())


class TestVertexImportance:
    """The weighted degree, the vertex importance that weights the
    second-order objective, is the graph's `degree` array."""

    def degree_of(self, g, v):
        return g.degree[g.order.index(v)]

    def test_weighted_degree(self):
        g = chain_graph([1, 3])
        assert self.degree_of(g, company(1)) == 4.0

    def test_isolated_zero(self):
        g = WeightedGraph("company", [company(0), company(1), company(2)],
                          {(company(0), company(1)): 1})
        assert self.degree_of(g, company(2)) == 0.0
        assert g.isolated_vertices() == [company(2)]

    def test_unit_triangle(self):
        verts = [company(i) for i in range(3)]
        g = WeightedGraph("company", verts, {
            (verts[0], verts[1]): 1, (verts[1], verts[2]): 1, (verts[0], verts[2]): 1})
        assert g.degree.tolist() == [2.0, 2.0, 2.0]

    def test_unknown_vertex_errors(self):
        g = chain_graph([1])
        assert company(99) not in g.order
        with pytest.raises(GraphError, match="unknown vertex 99"):
            empirical_second_order(g, company(99))

    def test_degree_sum_is_twice_total_weight(self):
        profiles, _, _ = synth_corpus(SynthConfig(members=60, sessions=5), seed=4)
        g = build_graph(profiles, "title")
        assert g.degree.sum() == 2 * g.total_weight
        assert type(g.total_weight) is int and type(g.num_edges) is int


class TestGraphInvariants:
    def test_no_self_loops(self):
        with pytest.raises(GraphError):
            WeightedGraph("company", [company(0)], {(company(0), company(0)): 1})

    def test_weights_positive_integers(self):
        with pytest.raises(GraphError):
            WeightedGraph("company", [company(0), company(1)], {(company(0), company(1)): 0})

    def test_weight_must_fit_a_float_exactly(self):
        pair = (company(0), company(1))
        assert WeightedGraph("company", pair, {pair: 2**53 - 1}).edges()[0][2] == 2**53 - 1
        with pytest.raises(GraphError, match=r"\[1, 2\*\*53\)"):
            WeightedGraph("company", pair, {pair: 2**53})


class TestExport:
    def test_round_trip(self, tmp_path):
        profiles, _, _ = synth_corpus(SynthConfig(members=50, sessions=5), seed=9)
        g = build_graph(profiles, "company")
        path = tmp_path / "g.txt"
        save_graph(g, str(path))
        g2 = load_graph(str(path), "company")
        assert g2.edges() == g.edges()
        # deterministic bytes
        path2 = tmp_path / "g2.txt"
        save_graph(g2, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("text", ["0 1 3\n0 1 5\n", "0 1 3\n1 0 3\n", "0 1 3\n0 b 1\n",
                                      "0 1 3\n0 2 1.0\n", "0 1 3\n0 2 1 1\n", "0 1 3\n-1 2 1\n"])
    def test_load_rejects_duplicate_and_non_integer_lines(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match="line 2"):
            load_graph(str(path), "company")

    def test_fuzzed_files_load_or_raise_graph_error(self, tmp_path):
        # 100 seeded mutations of a saved graph: each loads or raises
        # GraphError (CLI exit 2), within 5 s
        profiles, _, _ = synth_corpus(SynthConfig(members=20, sessions=2), seed=9)
        path = tmp_path / "g.txt"
        save_graph(build_graph(profiles, "company"), str(path))
        original = path.read_bytes()
        for seed in range(100):
            path.write_bytes(mutate(original, np.random.RandomState(seed)))
            error = call_within(lambda: load_graph(str(path), "company"), 5.0)
            assert error is None or isinstance(error, GraphError), (seed, repr(error))

    def test_sorted_lines(self, tmp_path):
        store = ProfileStore([profile(1, [2, 0]), profile(2, [0, 1])])
        g = build_graph(store, "company")
        path = tmp_path / "g.txt"
        save_graph(g, str(path))
        lines = path.read_text().splitlines()
        assert lines == sorted(lines, key=lambda l: tuple(map(int, l.split()[:2])))
