"""Necessary-condition filters: verdicts, certificates, applicability gating."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest

from framescale.corpus import load, named_graph, onb
from framescale.exactnum import QuadExt
from framescale import filters
from framescale.filters import (
    INCONCLUSIVE,
    NOT_SCALABLE,
    NOT_STRICTLY_SCALABLE,
    FilterReport,
    filter_adjacent_dependence,
    filter_alpha,
    filter_bipartite_balance,
    filter_complete_codim1,
    filter_cycle,
    filter_diameter_codim2,
    filter_induced_path,
    filter_leaf_bridge,
    filter_orthogonal_set_codim2,
    filter_square_nonempty,
    filter_tree,
    filter_unique_common_neighbor,
    run_all_filters,
    strongest,
)
from framescale.frames import Frame
from framescale.graphs import (
    FrameGraph,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    compute_stats,
    cycle_graph,
    graph_union,
    path_graph,
)
from framescale.scaler import build_lp, solve_gram, solve_strict

M1 = load("paper/M1").frame
M2 = load("paper/M2").frame


def run_one(fn, g, n):
    """The report of the battery's row for test fn on g alone."""
    row = next(row for row in filters._GRAPH_FILTERS if row[2] is fn)
    return filters._graph_report(row, fn(g, g.vertex_count, n,
                                         compute_stats(g)))


class TestVerdictLattice:
    def test_strongest(self):
        assert strongest([INCONCLUSIVE, NOT_STRICTLY_SCALABLE]) == \
            NOT_STRICTLY_SCALABLE
        assert strongest([NOT_STRICTLY_SCALABLE, NOT_SCALABLE]) == NOT_SCALABLE
        assert strongest([]) == INCONCLUSIVE

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            FilterReport("x", "c", applicable=False, verdict=NOT_SCALABLE,
                         certificate={"e": 1})
        with pytest.raises(ValueError):
            FilterReport("x", "c", applicable=True, verdict=NOT_SCALABLE,
                         certificate={})


class TestSquareNonempty:
    def test_m1_fires(self):
        rep = run_one(filter_square_nonempty, build_graph(M1, 0), 4)
        assert rep.verdict == NOT_SCALABLE
        assert rep.certificate["edge"] == [1, 2]

    def test_onb_inconclusive(self):
        rep = run_one(filter_square_nonempty, build_graph(onb(4), 0), 4)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_m2_fires(self):
        rep = run_one(filter_square_nonempty, build_graph(M2, 0), 4)
        assert rep.verdict == NOT_SCALABLE

    def test_not_square_inapplicable(self):
        rep = run_one(filter_square_nonempty, cycle_graph(5), 4)
        assert not rep.applicable


class TestCompleteCodim1:
    def test_missing_edge_fires(self):
        g = FrameGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)
                           if (i, j) != (0, 1)])
        rep = run_one(filter_complete_codim1, g, 4)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert rep.certificate["missing_edge"] == [1, 2]

    def test_complete_inconclusive(self):
        rep = run_one(filter_complete_codim1, complete_graph(3), 2)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_wrong_codim_inapplicable(self):
        assert not run_one(filter_complete_codim1, complete_graph(4), 2).applicable


class TestAlpha:
    def test_star_dim3(self):
        rep = run_one(filter_alpha, complete_bipartite_graph(1, 3), 3)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert rep.certificate["alpha"] == 3

    def test_c5_dim2_inconclusive(self):
        rep = run_one(filter_alpha, cycle_graph(5), 2)
        assert rep.verdict == INCONCLUSIVE

    def test_half_bound(self):
        # alpha > m/2 fires even when m = n
        g = complete_bipartite_graph(1, 4)
        rep = run_one(filter_alpha, g, 5)
        assert rep.verdict == NOT_STRICTLY_SCALABLE


class TestDiameterCodim2:
    def test_p4_in_r2(self):
        rep = run_one(filter_diameter_codim2, path_graph(4), 2)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        pair = rep.certificate["distant_pair"]
        assert rep.certificate["diameter"] >= 3 and len(pair) == 2

    def test_c5_in_r3_inconclusive(self):
        rep = run_one(filter_diameter_codim2, cycle_graph(5), 3)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_disconnected_inapplicable(self):
        g = graph_union(complete_graph(2), complete_graph(2))
        assert not run_one(filter_diameter_codim2, g, 2).applicable

    @staticmethod
    def reference_far_pair(g: FrameGraph):
        """All-pairs distances by Floyd-Warshall; the smallest s with a
        vertex at distance 3, then the smallest such vertex t."""
        m = g.vertex_count
        dist = [[0 if i == j else 1 if g.has_edge(i, j) else m
                 for j in range(m)] for i in range(m)]
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        return next((s, t) for s in range(m) for t in range(m)
                    if dist[s][t] == 3)

    def check_far_pair(self, g: FrameGraph):
        pair = self.reference_far_pair(g)
        assert filters._far_pair(g) == pair
        rep = run_one(filter_diameter_codim2, g, g.vertex_count - 2)
        assert rep.certificate["distant_pair"] == [pair[0] + 1, pair[1] + 1]

    def test_far_pair_named(self):
        for m in range(4, 12):
            self.check_far_pair(path_graph(m))
        for m in range(6, 14):
            self.check_far_pair(cycle_graph(m))

    def test_far_pair_random_connected(self):
        rng = random.Random("far-pair")
        checked = 0
        while checked < 200:
            m = rng.randint(4, 14)
            # a random spanning tree, then a few more edges
            order = list(range(m))
            rng.shuffle(order)
            edges = [(order[k], order[rng.randrange(k)]) for k in range(1, m)]
            edges += [(i, j) for i in range(m) for j in range(i + 1, m)
                      if rng.random() < 0.1]
            g = FrameGraph(m, edges)
            if compute_stats(g).diameter >= 3:
                self.check_far_pair(g)
                checked += 1


class TestOrthogonalSetCodim2:
    def test_alpha3_fires(self):
        g = FrameGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        rep = run_one(filter_orthogonal_set_codim2, g, 3)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert len(rep.certificate["orthogonal_triple"]) == 3

    def test_k5_inconclusive(self):
        rep = run_one(filter_orthogonal_set_codim2, complete_graph(5), 3)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_wrong_codim_inapplicable(self):
        assert not run_one(filter_orthogonal_set_codim2,
                           complete_graph(5), 4).applicable

    def test_vertex_cap_exceeded_warns(self):
        rep = run_one(filter_orthogonal_set_codim2, complete_graph(34), 32)
        assert not rep.applicable and rep.verdict == INCONCLUSIVE
        assert rep.warnings == (
            "independence number skipped: vertex cap exceeded",)


class TestBipartiteBalance:
    def test_star_fires(self):
        rep = run_one(filter_bipartite_balance,
                      complete_bipartite_graph(1, 3), 3)
        assert rep.verdict == NOT_STRICTLY_SCALABLE

    def test_k2_union_k2_inconclusive(self):
        g = graph_union(complete_graph(2), complete_graph(2))
        rep = run_one(filter_bipartite_balance, g, 3)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_odd_count_fires(self):
        rep = run_one(filter_bipartite_balance, path_graph(5), 4)
        assert rep.verdict == NOT_STRICTLY_SCALABLE

    def test_non_bipartite_vacuous(self):
        # the condition constrains bipartite graphs only
        rep = run_one(filter_bipartite_balance, complete_graph(3), 2)
        assert rep.verdict == INCONCLUSIVE


class TestUniqueCommonNeighbor:
    def test_star_certificate(self):
        rep = run_one(filter_unique_common_neighbor,
                      complete_bipartite_graph(1, 3), 3)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert rep.certificate["pair"] == [2, 3]
        assert rep.certificate["common_neighbor"] == 1

    def test_c4_inconclusive(self):
        rep = run_one(filter_unique_common_neighbor, cycle_graph(4), 3)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_c5_fires(self):
        rep = run_one(filter_unique_common_neighbor, cycle_graph(5), 4)
        assert rep.verdict == NOT_STRICTLY_SCALABLE


class TestLeafBridge:
    def test_p3_fires(self):
        rep = run_one(filter_leaf_bridge, path_graph(3), 2)
        assert rep.verdict == NOT_STRICTLY_SCALABLE

    def test_bowtie_inconclusive(self):
        # two triangles sharing a vertex: no leaf, no bridge
        g = FrameGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        rep = run_one(filter_leaf_bridge, g, 3)
        assert rep.applicable and rep.verdict == INCONCLUSIVE

    def test_small_components_inapplicable(self):
        g = graph_union(complete_graph(2), complete_graph(2))
        assert not run_one(filter_leaf_bridge, g, 3).applicable

    def test_bridge_between_triangles_fires(self):
        # no leaf, one bridge: the edge v3-v4 joining two triangles
        g = FrameGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                           (4, 5)])
        rep = run_one(filter_leaf_bridge, g, 4)
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert rep.certificate == {"bridge": [3, 4]}


class TestTree:
    def test_p4_fires(self):
        assert run_one(filter_tree, path_graph(4), 3).verdict == \
            NOT_STRICTLY_SCALABLE

    def test_star_fires(self):
        assert run_one(filter_tree, complete_bipartite_graph(1, 3), 3).verdict \
            == NOT_STRICTLY_SCALABLE

    def test_c4_inconclusive(self):
        rep = run_one(filter_tree, cycle_graph(4), 3)
        assert rep.verdict == INCONCLUSIVE


class TestInducedPath:
    """Fires when the longest induced path has more than min(n, m - n) + 1
    vertices; inapplicable when m < n."""

    def test_long_path_fires(self):
        rep = run_one(filter_induced_path, path_graph(6), 4)
        assert not rep.experimental
        assert rep.verdict == NOT_STRICTLY_SCALABLE
        assert rep.certificate == {"witness_path": [1, 2, 3, 4, 5, 6],
                                   "vertices": 6,
                                   "threshold_vertices": min(4, 6 - 4) + 1}

    def test_short_path_inconclusive(self):
        rep = run_one(filter_induced_path, path_graph(3), 4)
        assert not rep.experimental and not rep.applicable
        assert rep.verdict == INCONCLUSIVE

    def test_complete_inconclusive(self):
        rep = run_one(filter_induced_path, complete_graph(6), 2)
        assert not rep.experimental and rep.applicable
        assert rep.verdict == INCONCLUSIVE

    @pytest.mark.parametrize("m", range(2, 9))
    def test_threshold_on_paths(self, m):
        for n in range(1, m + 1):
            rep = run_one(filter_induced_path, path_graph(m), n)
            fires = m > min(n, m - n) + 1
            assert rep.verdict == (NOT_STRICTLY_SCALABLE if fires
                                   else INCONCLUSIVE)
            if fires:
                assert rep.certificate["threshold_vertices"] == \
                    min(n, m - n) + 1


class TestCycle:
    def test_c7_all_supported_dims(self):
        for n in (5, 6, 7):
            rep = run_one(filter_cycle, cycle_graph(7), n)
            assert rep.verdict == NOT_SCALABLE
            assert rep.certificate["cycle"][0] == 1

    def test_c5_inapplicable(self):
        assert not run_one(filter_cycle, cycle_graph(5), 5).applicable

    def test_c7_low_dim_inapplicable(self):
        assert not run_one(filter_cycle, cycle_graph(7), 4).applicable

    def test_non_cycle_inapplicable(self):
        assert not run_one(filter_cycle, path_graph(7), 7).applicable

    def test_relabelled_cycles_walk_to_the_lower_neighbour(self):
        rng = random.Random("cycle-order")
        for m in (7, 8, 13, 31):
            for _ in range(5):
                label = list(range(m))
                rng.shuffle(label)
                g = FrameGraph(m, [(label[k], label[(k + 1) % m])
                                   for k in range(m)])
                order = [v - 1 for v in
                         run_one(filter_cycle, g, m).certificate["cycle"]]
                assert order[0] == 0 and sorted(order) == list(range(m))
                assert all(g.has_edge(a, b)
                           for a, b in zip(order, order[1:] + order[:1]))
                # the first step goes to the lower of vertex 0's neighbours
                assert order[1] < order[-1]


class TestRunAll:
    def test_m1_combined(self):
        bat = run_all_filters(build_graph(M1, 0), 4, frame=M1)
        assert bat.combined_verdict == NOT_SCALABLE
        fired = {r.filter_id for r in bat.reports if r.verdict != INCONCLUSIVE}
        assert "square_nonempty" in fired

    def test_m2_fires_four_filters(self):
        bat = run_all_filters(build_graph(M2, 0), 4, frame=M2)
        fired = {r.filter_id for r in bat.reports
                 if r.verdict != INCONCLUSIVE and not r.experimental}
        assert {"square_nonempty", "bipartite_balance",
                "unique_common_neighbor", "tree"} <= fired

    def test_onb_inconclusive_with_gating(self):
        g = build_graph(onb(4), 0)
        bat = run_all_filters(g, 4, frame=onb(4))
        assert bat.combined_verdict == INCONCLUSIVE
        assert all(not r.applicable for r in bat.reports
                   if not r.experimental)
        assert bat.warnings

    def test_isolated_vertex_disables_alpha(self):
        # e1,e2,e3,e3 in R^3 is strictly scalable but alpha = 3 > m - n = 1;
        # the degree >= 1 standing assumption must gate the filter
        fr = Frame.from_vectors(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]], exact=True
        )
        g = build_graph(fr, 0)
        bat = run_all_filters(g, 3, frame=fr)
        assert bat.combined_verdict == INCONCLUSIVE

    def test_experimental_excluded_by_default(self):
        # no filter that decides a verdict is experimental any more, so the
        # default battery is the whole battery: induced_path runs, counts,
        # and there is no flag left to switch a tier on
        g = path_graph(6)
        bat = run_all_filters(g, 4)
        by_id = {r.filter_id: r for r in bat.reports}
        assert "induced_path" in by_id
        assert not by_id["induced_path"].experimental
        assert by_id["induced_path"].verdict == NOT_STRICTLY_SCALABLE
        assert bat.combined_verdict == NOT_STRICTLY_SCALABLE
        with pytest.raises(TypeError):
            run_all_filters(g, 4, enable_experimental=True)

    def test_experimental_only_verdict_needs_flag(self):
        # cube graph Q3: balanced bipartite, no bridges, distance-2 pairs
        # share two neighbors, alpha = 4; its longest induced path has 5
        # vertices.  In R^4 that equals min(4, 4) + 1 and nothing fires; in
        # R^3 it exceeds min(3, 5) + 1 and induced_path alone decides the
        # combined verdict, with no flag needed.
        g = FrameGraph(8, [
            (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
            (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
        ])
        assert run_all_filters(g, 4).combined_verdict == INCONCLUSIVE
        bat = run_all_filters(g, 3)
        fired = [r.filter_id for r in bat.reports if r.verdict != INCONCLUSIVE]
        assert fired == ["induced_path"]
        assert bat.combined_verdict == NOT_STRICTLY_SCALABLE

    def test_fixed_filter_order(self):
        ids = [r.filter_id for r in run_all_filters(cycle_graph(4), 3).reports]
        assert ids == [
            "square_nonempty", "complete_codim1", "alpha",
            "diameter_codim2", "orthogonal_set_codim2", "bipartite_balance",
            "unique_common_neighbor", "leaf_bridge", "tree", "cycle",
            "induced_path",
        ]

    def test_disabled_battery_keeps_the_order(self):
        # C4 plus an isolated vertex: every graph filter is reported, in
        # the order of the enabled battery, and none applies
        g = graph_union(cycle_graph(4), FrameGraph(1, []))
        disabled = run_all_filters(g, 3).reports
        enabled = run_all_filters(cycle_graph(4), 3).reports
        assert [r.filter_id for r in disabled] == \
            [r.filter_id for r in enabled]
        assert len(disabled) == 11
        assert not any(r.applicable for r in disabled)


# (premise, consequence): every graph and dimension on which the premise
# fires, the consequence fires too; each premise's docstring has the proof
IMPLICATIONS = [
    ("bipartite_balance", "alpha"),
    ("complete_codim1", "alpha"),
    ("orthogonal_set_codim2", "alpha"),
    ("diameter_codim2", "induced_path"),
    ("tree", "leaf_bridge"),
    ("leaf_bridge", "unique_common_neighbor"),
]


def lattice_graphs():
    """Every atlas graph on at most 7 vertices and 300 seeded G(m, p) draws
    with m = 8..14, all without an isolated vertex and so under the cap."""
    for nxg in nx.graph_atlas_g()[1:]:
        m = nxg.number_of_nodes()
        if m <= 7 and min(d for _, d in nxg.degree()) > 0:
            yield FrameGraph(m, nxg.edges())
    rng = random.Random(15)
    drawn = 0
    while drawn < 300:
        m = rng.randint(8, 14)
        p = rng.choice([0.15, 0.25, 0.35, 0.5, 0.7])
        g = FrameGraph(m, [(i, j) for i in range(m) for j in range(i + 1, m)
                           if rng.random() < p])
        if all(g.masks):
            drawn += 1
            yield g


def test_implication_lattice():
    """Six filters never fire without the filter their proof implies, at
    any dimension n from 1 to m; each premise fires somewhere."""
    fired_premises = set()
    violations = []
    pairs = 0
    for g in lattice_graphs():
        stats = compute_stats(g)
        for n in range(1, g.vertex_count + 1):
            pairs += 1
            fired = {r.filter_id for r in run_all_filters(g, n, stats=stats)
                     .reports if r.verdict != INCONCLUSIVE}
            for premise, consequence in IMPLICATIONS:
                if premise in fired:
                    fired_premises.add(premise)
                    if consequence not in fired:
                        violations.append((g.masks, n, premise, consequence))
    assert pairs > 10_000
    assert violations == []
    assert fired_premises == {premise for premise, _ in IMPLICATIONS}


def ldl_frame(rng: random.Random):
    """A strictly scalable exact frame in R^n with a prescribed sub-pattern:
    k <= n sparse integer core vectors f, then the n columns of L from the
    rational LDL^t factorisation of I - c*S, where S = sum f f^t and
    c = 1/(tr S + 1).  I - c*S is positive definite, so every D_jj > 0, and
    the weights c on the core and D_jj on the columns give the identity."""
    n = rng.randint(2, 7)
    core = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, n))]
    c = Fraction(1, sum(x * x for f in core for x in f) + 1)
    a = [[(i == j) - c * sum(f[i] * f[j] for f in core) for j in range(n)]
         for i in range(n)]
    low = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    d = []
    for j in range(n):
        d.append(a[j][j] - sum(low[j][t] ** 2 * d[t] for t in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][t] * low[j][t] * d[t]
                                       for t in range(j))) / d[j]
    columns = [[low[i][j] for i in range(n)] for j in range(n)]
    return Frame.from_vectors(core + columns, exact=True)


def test_battery_quiet_on_strictly_scalable_ldl_frames():
    """No filter fires on a frame the oracle proves strictly scalable, and
    the induced-path bound min(n, m - n) + 1 is reached.  The oracle is
    asked as the report asks it: the Gram solve first, then the tableau."""
    rng = random.Random("ldl-frames")
    ran = tight = 0
    for _ in range(300):
        fr = ldl_frame(rng)
        m, n = fr.count, fr.dim
        strict = solve_gram(fr) or solve_strict(build_lp(fr))
        assert strict.status == "strictly_feasible"
        g = build_graph(fr, 0)
        stats = compute_stats(g)
        bat = run_all_filters(g, n, frame=fr, stats=stats)
        assert [r.filter_id for r in bat.reports
                if r.verdict != INCONCLUSIVE] == []
        if not g.has_flagged_vertices():
            ran += 1
            tight += stats.induced_path_vertices == min(n, m - n) + 1
    assert ran >= 100 and tight >= 1


def reference_parallel(frame: Frame, i: int, j: int) -> bool:
    """All 2x2 minors of f_i, f_j vanish: exactly on the frame's own
    entries, or within 1e-12 * max|f_i| * max|f_j| in float."""
    u, v = frame.vectors[i], frame.vectors[j]
    minors = [u[p] * v[q] - u[q] * v[p]
              for p in range(len(u)) for q in range(p + 1, len(u))]
    if frame.is_exact:
        return not any(minors)
    scale = max(map(abs, u)) * max(map(abs, v))
    return all(abs(x) <= 1e-12 * scale for x in minors)


def reference_adjacent_warnings(frame: Frame, g: FrameGraph):
    """Every sorted edge tested for parallelism first, then for equal closed
    neighbourhoods."""
    closed = [{v} for v in range(g.vertex_count)]
    for (i, j) in g.edges:
        closed[i].add(j)
        closed[j].add(i)
    out = []
    for (i, j) in g.edges:
        if reference_parallel(frame, i, j) and closed[i] != closed[j]:
            out.append(
                f"parallel adjacent vectors v{i + 1}, v{j + 1} have different "
                f"closed neighborhoods; check tol_zero"
            )
    return tuple(out)


_RATIONAL_FACTORS = (-2, 3, Fraction(1, 2), Fraction(-2, 3))
_SQRT2 = QuadExt(2, 0, 1)
_QUADRATIC_FACTORS = _RATIONAL_FACTORS + (_SQRT2, -_SQRT2, 1 + _SQRT2,
                                          _SQRT2 / 3)


def _frame_with_parallels(rng: random.Random, exact: bool,
                          factors=_RATIONAL_FACTORS) -> Frame:
    """Small integer vectors, about half of them multiples (by one of
    ``factors``) of an earlier one, plus near-zero perturbations in float
    mode."""
    n = rng.randint(2, 4)
    vectors = []
    for _ in range(rng.randint(n, 14)):
        if vectors and rng.random() < 0.5:
            factor = rng.choice(factors)
            vectors.append([factor * x for x in rng.choice(vectors)])
        else:
            vectors.append([rng.randint(-1, 1) for _ in range(n)])
        if not exact and rng.random() < 0.3:
            vectors[-1][rng.randrange(n)] += 6e-11
    return Frame.from_vectors(vectors, exact=exact)


class TestAdjacentDependence:
    """Closed neighbourhoods are compared before parallelism is tested; the
    warnings are those of the parallelism-first reference, in its order.
    Exact frames, rational or over Q(sqrt 2), never warn."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_matches_reference(self, exact):
        runs = [(f"adjacent-dependence:{exact}", _RATIONAL_FACTORS)]
        if exact:
            runs.append(("adjacent-dependence:sqrt2", _QUADRATIC_FACTORS))
        for seed, factors in runs:
            rng = random.Random(seed)
            parallel = warned = 0
            for _ in range(150):
                fr = _frame_with_parallels(rng, exact, factors)
                g = build_graph(fr, 0 if exact else 1e-10)
                expected = reference_adjacent_warnings(fr, g)
                assert filter_adjacent_dependence(fr, g).warnings == expected
                parallel += any(reference_parallel(fr, i, j)
                                for i, j in g.sorted_edges())
                warned += bool(expected)
            # exact adjacency cannot split parallel vectors; float can
            assert parallel >= 50
            assert (warned == 0) if exact else (warned >= 10)

    def test_quadratic_frames_leave_the_rationals(self):
        rng = random.Random("adjacent-dependence:sqrt2")
        frames = [_frame_with_parallels(rng, True, _QUADRATIC_FACTORS)
                  for _ in range(150)]
        assert sum(fr.integer_image is None for fr in frames) >= 50

    def test_tolerance_scales_with_both_vectors(self):
        # v1 is 1e13 times longer than v2 and v3, which are orthogonal: a
        # tolerance on the larger vector alone called v1 parallel to both
        fr = Frame.from_vectors([[1e13, 1.0], [1.0, 1.0], [1.0, -1.0]])
        g = build_graph(fr, 1e-10)
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not reference_parallel(fr, 0, 1)
        assert not filter_adjacent_dependence(fr, g).warnings

    def test_parallel_at_different_scales(self):
        # v3 meets v2 below tol_zero and v1 = 1e150 * v2 above it
        fr = Frame.from_vectors([[1e150, 2e150], [1.0, 2.0],
                                 [2.0, -1.0 + 1e-11]])
        g = build_graph(fr, 1e-10)
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)
        assert reference_parallel(fr, 0, 1)
        assert filter_adjacent_dependence(fr, g).warnings == (
            "parallel adjacent vectors v1, v2 have different closed "
            "neighborhoods; check tol_zero",)

    def test_equal_neighbourhoods_no_warning(self):
        fr = Frame.from_vectors([[1, 0], [2, 0], [1, 1], [-1, 1]])
        g = build_graph(fr, 1e-10)
        assert g.has_edge(0, 1) and reference_parallel(fr, 0, 1)
        assert not filter_adjacent_dependence(fr, g).warnings


class TestNamedGraphSpecs:
    def test_parse(self):
        assert named_graph("K4").vertex_count == 4
        assert named_graph("C7").sorted_edges() == cycle_graph(7).sorted_edges()
        assert named_graph("K_{1,3}").sorted_edges() == \
            complete_bipartite_graph(1, 3).sorted_edges()
        assert not named_graph("E3").edges
        assert named_graph("P5").sorted_edges() == path_graph(5).sorted_edges()
