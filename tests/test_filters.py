"""Necessary-condition filters: verdicts, certificates, applicability gating."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from framescale.corpus import load, named_graph, onb
from framescale.filters import (
    INCONCLUSIVE,
    NOT_SCALABLE,
    NOT_STRICTLY_SCALABLE,
    FilterConfig,
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

M1 = load("paper/M1").frame
M2 = load("paper/M2").frame


def run_one(fn, g, n, **kw):
    return fn(g, g.vertex_count, n, compute_stats(g), **kw)


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
    def test_long_path_fires(self):
        rep = run_one(filter_induced_path, path_graph(6), 4)
        assert rep.experimental
        assert rep.verdict == NOT_STRICTLY_SCALABLE

    def test_short_path_inconclusive(self):
        rep = run_one(filter_induced_path, path_graph(3), 4)
        assert rep.verdict == INCONCLUSIVE

    def test_complete_inconclusive(self):
        rep = run_one(filter_induced_path, complete_graph(6), 2)
        assert rep.verdict == INCONCLUSIVE


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
        g = path_graph(6)
        bat = run_all_filters(g, 4)
        # tree/leaf filters fire not_strictly; induced_path would too but
        # must not raise the combined verdict on its own
        bat2 = run_all_filters(
            g, 4, config=FilterConfig(enable_experimental=True)
        )
        ids_default = {r.filter_id for r in bat.reports}
        assert "induced_path" in ids_default
        assert bat.combined_verdict == bat2.combined_verdict == \
            NOT_STRICTLY_SCALABLE

    def test_experimental_only_verdict_needs_flag(self):
        # cube graph Q3 in R^4: induced path of 5 vertices > 4 while every
        # non-experimental filter stays quiet (balanced bipartite, no
        # bridges, distance-2 pairs share two neighbors, alpha = 4 = m - n)
        g = FrameGraph(8, [
            (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
            (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
        ])
        bat = run_all_filters(g, 4)
        assert bat.combined_verdict == INCONCLUSIVE
        bat2 = run_all_filters(
            g, 4, config=FilterConfig(enable_experimental=True)
        )
        assert bat2.combined_verdict == NOT_STRICTLY_SCALABLE

    def test_fixed_filter_order(self):
        ids = [r.filter_id for r in run_all_filters(cycle_graph(4), 3).reports]
        assert ids == [
            "square_nonempty", "complete_codim1", "alpha",
            "diameter_codim2", "orthogonal_set_codim2", "bipartite_balance",
            "unique_common_neighbor", "leaf_bridge", "tree", "cycle",
            "induced_path",
        ]


def reference_parallel(frame: Frame, i: int, j: int) -> bool:
    """All 2x2 minors of f_i, f_j vanish: exactly on the frame's own
    entries, or within 1e-12 * (largest |entry|, at least 1)^2 in float."""
    u, v = frame.vectors[i], frame.vectors[j]
    minors = [u[p] * v[q] - u[q] * v[p]
              for p in range(len(u)) for q in range(p + 1, len(u))]
    if frame.is_exact:
        return not any(minors)
    scale = max(max(map(abs, u)), max(map(abs, v)), 1.0)
    return all(abs(x) <= 1e-12 * scale * scale for x in minors)


def reference_adjacent_warnings(frame: Frame, g: FrameGraph):
    """Every sorted edge tested for parallelism first, then for equal closed
    neighbourhoods."""
    out = []
    for (i, j) in sorted(g.edges):
        if reference_parallel(frame, i, j) and \
                g.neighbors(i) | {i} != g.neighbors(j) | {j}:
            out.append(
                f"parallel adjacent vectors v{i + 1}, v{j + 1} have different "
                f"closed neighborhoods; check tol_zero"
            )
    return tuple(out)


def _frame_with_parallels(rng: random.Random, exact: bool) -> Frame:
    """Small integer vectors, about half of them integer or fractional
    multiples of an earlier one, plus near-zero perturbations in float
    mode."""
    n = rng.randint(2, 4)
    vectors = []
    for _ in range(rng.randint(n, 14)):
        if vectors and rng.random() < 0.5:
            factor = rng.choice((-2, 3, Fraction(1, 2), Fraction(-2, 3)))
            vectors.append([factor * x for x in rng.choice(vectors)])
        else:
            vectors.append([rng.randint(-1, 1) for _ in range(n)])
        if not exact and rng.random() < 0.3:
            vectors[-1][rng.randrange(n)] += 6e-11
    return Frame.from_vectors(vectors, exact=exact)


class TestAdjacentDependence:
    """Closed neighbourhoods are compared before parallelism is tested; the
    warnings are those of the parallelism-first reference, in its order."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_matches_reference(self, exact):
        rng = random.Random(f"adjacent-dependence:{exact}")
        parallel = warned = 0
        for _ in range(150):
            fr = _frame_with_parallels(rng, exact)
            g = build_graph(fr, 0 if exact else 1e-10)
            expected = reference_adjacent_warnings(fr, g)
            assert filter_adjacent_dependence(fr, g).warnings == expected
            parallel += any(reference_parallel(fr, i, j)
                            for i, j in g.sorted_edges())
            warned += bool(expected)
        # exact adjacency cannot split parallel vectors; float can
        assert parallel >= 50
        assert (warned == 0) if exact else (warned >= 10)

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
