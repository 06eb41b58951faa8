"""Frame graphs: construction, statistics, exact combinatorial searches."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from framescale.corpus import load, onb
from framescale.exactnum import QuadExt, sign
from framescale.frames import Frame, random_parseval
from framescale.graphs import (
    FrameGraph,
    GraphError,
    balanced_bipartition_exists,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    compute_stats,
    cycle_graph,
    empty_graph,
    export_dot,
    graph_join,
    graph_union,
    path_graph,
    unique_common_neighbor_pairs,
    zero_pattern_equal,
)

M1 = load("paper/M1").frame
M2 = load("paper/M2").frame
M = load("paper/M").frame


def brute_alpha(g: FrameGraph) -> int:
    best = 0
    for r in range(g.vertex_count, 0, -1):
        for sub in itertools.combinations(range(g.vertex_count), r):
            if all(not g.has_edge(i, j)
                   for i, j in itertools.combinations(sub, 2)):
                return r
    return best


def brute_longest_induced_path(g: FrameGraph) -> int:
    m = g.vertex_count
    best = 1 if m else 0
    for r in range(2, m + 1):
        found = False
        for sub in itertools.combinations(range(m), r):
            for perm in itertools.permutations(sub):
                ok = True
                for a in range(r):
                    for b in range(a + 1, r):
                        adjacent = g.has_edge(perm[a], perm[b])
                        if adjacent != (b == a + 1):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found = True
                    break
            if found:
                break
        if found:
            best = r
    return best


def induced_subgraph(g: FrameGraph, keep) -> FrameGraph:
    """Subgraph on the kept vertices, re-indexed in sorted order."""
    index = {v: k for k, v in enumerate(sorted(set(keep)))}
    edges = [
        (index[i], index[j]) for (i, j) in g.edges if i in index and j in index
    ]
    return FrameGraph(len(index), edges)


def reference_mis_mask(g: FrameGraph) -> int:
    """Maximum independent set by popcount-bounded branch and bound, in the
    branching order of the library search: the lowest-index candidate of
    maximum degree, include branch first.  Both keep the first maximum."""
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(g.vertex_count)]
    best = {"mask": 0, "size": 0}

    def grow(candidates, chosen, size):
        if size + candidates.bit_count() <= best["size"]:
            return
        if candidates == 0:
            best["size"], best["mask"] = size, chosen
            return
        pick, pick_deg = -1, -1
        c = candidates
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = (adj[v] & candidates).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        bit = 1 << pick
        grow(candidates & ~(bit | adj[pick]), chosen | bit, size + 1)
        grow(candidates & ~bit, chosen, size)

    grow((1 << g.vertex_count) - 1, 0, 0)
    return best["mask"]


def reference_longest_induced_path(g: FrameGraph):
    """Unbounded DFS over every induced path, starts in ascending order,
    then neighbours in ascending order; keeps the first longest path."""
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(g.vertex_count)]
    best = {"len": 1, "path": (0,)}

    def extend(path, endpoint, blocked):
        if len(path) > best["len"]:
            best["len"], best["path"] = len(path), tuple(path)
        cand = adj[endpoint] & ~blocked
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            path.append(v)
            # the old endpoint's other neighbours would become chords
            extend(path, v, blocked | (1 << v) | (adj[endpoint] & ~(1 << v)))
            path.pop()

    for start in range(g.vertex_count):
        extend([start], start, 1 << start)
    return best["len"], best["path"]


def reference_components(g: FrameGraph):
    """Depth-first components over neighbour sets, sorted vertex tuples in
    order of their smallest vertex."""
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_diameter(g: FrameGraph, connected: bool):
    """A dict BFS from every vertex; None when disconnected."""
    if not connected:
        return None
    best = 0
    for src in range(g.vertex_count):
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def reference_part_sizes(g: FrameGraph, comps):
    """Per-component colour class sizes of a 2-colouring that gives each
    component's smallest vertex colour 0, or None on an odd cycle."""
    color = {}
    sizes = []
    for comp in comps:
        color[comp[0]] = 0
        queue = [comp[0]]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
        x = sum(1 for v in comp if color[v] == 0)
        sizes.append((x, len(comp) - x))
    return tuple(sizes)


def reference_bridges(g: FrameGraph):
    """Bridge edges by iterative DFS low-link over sorted neighbour sets."""
    disc = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    out = []
    timer = 0
    for root in range(g.vertex_count):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(sorted(g.neighbors(root))))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(sorted(g.neighbors(w)))))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append((min(pv, v), max(pv, v)))
    return tuple(sorted(out))


def reference_unique_common_neighbor_pairs(g: FrameGraph):
    out = []
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        if (u, v) in g.edges:
            continue
        common = g.neighbors(u) & g.neighbors(v)
        if len(common) == 1:
            out.append((u, v, min(common)))
    return out


def gnp(rng: random.Random, m: int, p: float) -> FrameGraph:
    return FrameGraph(m, [(i, j) for i in range(m) for j in range(i + 1, m)
                          if rng.random() < p])


class TestFrameGraph:
    def test_edges_canonicalized(self):
        g = FrameGraph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            FrameGraph(2, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            FrameGraph(2, [(1, 1)])

    def test_isolated_flagging(self):
        g = FrameGraph(3, [(0, 1)])
        assert "isolated" in g.vertex_flags.get(2, frozenset())
        assert g.has_flagged_vertices()

    def test_neighbour_sets_iterate_as_built_from_given_edges(self):
        # the diameter filter's distant pair follows this iteration order
        rng = random.Random("mask-stats:order")
        for m in (9, 20, 40):
            edges = [(j, i) if rng.random() < 0.5 else (i, j)
                     for i in range(m) for j in range(i + 1, m)
                     if rng.random() < 0.3]
            rng.shuffle(edges)
            canon = set()
            for (i, j) in edges:
                canon.add((min(i, j), max(i, j)))
            adj = [set() for _ in range(m)]
            for (i, j) in canon:
                adj[i].add(j)
                adj[j].add(i)
            g = FrameGraph(m, edges)
            assert list(g.edges) == list(frozenset(canon))
            assert [list(g.neighbors(v)) for v in range(m)] == \
                [list(frozenset(s)) for s in adj]

    def test_from_masks_matches_edge_list(self):
        rng = random.Random("mask-stats:from-masks")
        for m in (1, 5, 17, 40):
            g = gnp(rng, m, 0.3)
            h = FrameGraph.from_masks(g.masks)
            assert h == g and h.edges == g.edges
            assert all(h.neighbors(v) == g.neighbors(v) for v in range(m))


class TestBuildGraph:
    def test_m1_two_disjoint_edges(self):
        g = build_graph(M1, 0)
        assert g.sorted_edges() == [(0, 1), (2, 3)]

    def test_m2_star(self):
        g = build_graph(M2, 0)
        assert g.sorted_edges() == [(0, 1), (0, 2), (0, 3)]

    def test_onb_edgeless(self):
        assert not build_graph(onb(5), 0).edges

    def test_m_join_pattern(self):
        g = build_graph(M, 0)
        expected = graph_join(
            graph_union(complete_graph(2), complete_graph(2)),
            complete_bipartite_graph(1, 3),
        )
        assert zero_pattern_equal(g, expected)

    def test_zero_vector_flagged(self):
        fr = Frame.from_vectors([[1, 0], [0, 0]], exact=True)
        g = build_graph(fr, 0)
        assert "zero_vector" in g.vertex_flags.get(1, frozenset())

    def test_exact_mode_requires_zero_tol(self):
        with pytest.raises(GraphError):
            build_graph(M1, 1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_edges_are_nonzero_inner_products(self, seed):
        # rational entries are cleared to integers first; Q(sqrt 2) entries
        # keep their exact sign test
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        entries = [0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
        if seed % 4 == 0:
            entries.append(QuadExt(2, Fraction(1, 3), -1))
        vectors = [[rng.choice(entries) for _ in range(n)]
                   for _ in range(rng.randint(1, 12))]
        fr = Frame.from_vectors(vectors, exact=True)
        vs = fr.vectors
        dot = [[sign(sum((a * b for a, b in zip(u, v)), Fraction(0)))
                for v in vs] for u in vs]
        g = build_graph(fr, 0)
        assert g.sorted_edges() == [(i, j) for i in range(len(vs))
                                    for j in range(i + 1, len(vs)) if dot[i][j]]
        assert [v for v in range(len(vs)) if "zero_vector" in g.vertex_flags[v]] \
            == [v for v in range(len(vs)) if not dot[v][v]]

    def test_float_threshold(self):
        fr = Frame.from_vectors([[1.0, 0.0], [1e-12, 1.0]])
        g = build_graph(fr, 1e-10)
        assert not g.edges
        g = build_graph(fr, 1e-14)
        assert g.sorted_edges() == [(0, 1)]


class TestStats:
    def test_k2_union_k2(self):
        g = graph_union(complete_graph(2), complete_graph(2))
        st = compute_stats(g)
        assert len(st.components) == 2
        assert st.alpha == 2
        assert sorted(st.bridges) == [(0, 1), (2, 3)]
        assert st.is_bipartite
        assert st.component_part_sizes == ((1, 1), (1, 1))
        assert st.diameter is None

    def test_star_k13(self):
        st = compute_stats(complete_bipartite_graph(1, 3))
        assert st.is_connected
        assert st.diameter == 2
        assert st.alpha == 3
        assert sorted(st.leaves) == [1, 2, 3]
        assert st.component_part_sizes == ((1, 3),)

    def test_c7(self):
        st = compute_stats(cycle_graph(7))
        assert st.is_cycle
        assert st.alpha == 3
        assert st.diameter == 3
        assert not st.bridges
        assert st.induced_path_vertices == 6

    def test_complete_graph(self):
        st = compute_stats(complete_graph(5))
        assert st.is_complete and st.alpha == 1
        assert st.induced_path_vertices == 2
        assert not st.is_bipartite

    def test_empty_graph(self):
        st = compute_stats(empty_graph(3))
        assert st.is_empty and st.alpha == 3
        assert st.induced_path_vertices == 1

    def test_cap_skips_exponential_fields(self):
        st = compute_stats(cycle_graph(40), vertex_cap=32)
        assert st.cap_exceeded
        assert st.alpha is None and st.induced_path_vertices is None
        assert st.is_cycle and st.diameter == 20

    @pytest.mark.parametrize("seed", range(25))
    def test_alpha_and_path_against_brute_force(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 8)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if rng.random() < 0.4]
        g = FrameGraph(m, edges)
        st = compute_stats(g)
        assert st.alpha == brute_alpha(g)
        assert st.induced_path_vertices == brute_longest_induced_path(g)
        # independent-set witness really is independent and max-size
        wit = st.max_independent_set
        assert len(wit) == st.alpha
        assert all(not g.has_edge(i, j)
                   for i, j in itertools.combinations(wit, 2))


class TestSearchesMatchReference:
    """The bounded searches return the reference searches' witnesses, not
    only their sizes, and the statistics read off the adjacency bitmasks
    equal those of the neighbour-set references, disconnected graphs
    included, so reports stay byte-identical."""

    @staticmethod
    def check(g: FrameGraph):
        st = compute_stats(g)
        mask = reference_mis_mask(g)
        assert st.max_independent_set == tuple(
            v for v in range(g.vertex_count) if mask >> v & 1)
        length, witness = reference_longest_induced_path(g)
        assert (st.induced_path_vertices, st.induced_path_witness) == \
            (length, witness)
        assert not induced_subgraph(g, st.max_independent_set).edges
        path = induced_subgraph(g, witness)
        assert len(path.edges) == length - 1
        assert all(g.has_edge(a, b) for a, b in zip(witness, witness[1:]))

    @pytest.mark.parametrize("m", range(1, 19))
    def test_small(self, m):
        rng = random.Random(f"reference:{m}")
        for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
            for _ in range(3):
                self.check(gnp(rng, m, p))

    @pytest.mark.parametrize("m, p", [(24, 0.3), (28, 0.2), (32, 0.1),
                                      (32, 0.3), (32, 0.5)])
    def test_large(self, m, p):
        self.check(gnp(random.Random(f"reference:{m}:{p}"), m, p))

    @staticmethod
    def check_stats(g: FrameGraph):
        m = g.vertex_count
        st = compute_stats(g, vertex_cap=0)  # the searches are checked above
        comps = reference_components(g)
        connected = len(comps) == 1
        parts = reference_part_sizes(g, comps)
        assert st.components == comps
        assert st.is_connected == connected
        assert st.diameter == reference_diameter(g, connected)
        assert st.is_bipartite == (parts is not None)
        assert st.component_part_sizes == parts
        assert st.bridges == reference_bridges(g)
        degrees = [len(g.neighbors(v)) for v in range(m)]
        assert [g.degree(v) for v in range(m)] == degrees
        assert st.leaves == tuple(v for v in range(m) if degrees[v] == 1)
        assert st.is_complete == (len(g.edges) == m * (m - 1) // 2)
        assert st.is_empty == (not g.edges)
        assert st.is_cycle == (connected and m >= 3 and set(degrees) == {2})
        assert g.edge_count() == len(g.edges)
        assert g.sorted_edges() == sorted(g.edges)
        assert unique_common_neighbor_pairs(g) == \
            reference_unique_common_neighbor_pairs(g)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_stats_gnp(self, m):
        rng = random.Random(f"mask-stats:{m}")
        for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
            for _ in range(2):
                self.check_stats(gnp(rng, m, p))

    def test_stats_named_and_disconnected(self):
        rng = random.Random("mask-stats:unions")
        for g in (complete_graph(40), cycle_graph(40), path_graph(40),
                  empty_graph(40), complete_bipartite_graph(7, 12),
                  graph_union(cycle_graph(9), complete_graph(4)),
                  graph_union(gnp(rng, 20, 0.3), gnp(rng, 20, 0.5)),
                  graph_join(cycle_graph(5), empty_graph(3))):
            self.check_stats(g)


class TestBalancedBipartition:
    def test_k2_union_k2_true(self):
        g = graph_union(complete_graph(2), complete_graph(2))
        assert balanced_bipartition_exists(g)

    def test_star_false(self):
        assert not balanced_bipartition_exists(complete_bipartite_graph(1, 3))

    def test_differences_cancel(self):
        # parts (1,2), (1,3), (1,4): diffs 1,2,3 and 1+2-3 = 0
        g = graph_union(
            graph_union(complete_bipartite_graph(1, 2),
                        complete_bipartite_graph(1, 3)),
            complete_bipartite_graph(1, 4),
        )
        assert balanced_bipartition_exists(g)

    def test_odd_vertex_count_false(self):
        assert not balanced_bipartition_exists(path_graph(5))

    def test_non_bipartite_raises(self):
        with pytest.raises(GraphError):
            balanced_bipartition_exists(complete_graph(3))


class TestUniqueCommonNeighbor:
    def test_star_pairs(self):
        pairs = unique_common_neighbor_pairs(complete_bipartite_graph(1, 3))
        assert set(pairs) == {(1, 2, 0), (1, 3, 0), (2, 3, 0)}

    def test_c4_empty(self):
        assert not unique_common_neighbor_pairs(cycle_graph(4))

    def test_p3(self):
        assert unique_common_neighbor_pairs(path_graph(3)) == [(0, 2, 1)]

    def test_c5_all_pairs(self):
        # in C5 every non-adjacent pair has exactly one common neighbor
        assert len(unique_common_neighbor_pairs(cycle_graph(5))) == 5


class TestPatternAndSubgraph:
    def test_self_equal(self):
        g = cycle_graph(6)
        assert zero_pattern_equal(g, g)

    def test_different_patterns(self):
        assert not zero_pattern_equal(
            graph_union(complete_graph(2), complete_graph(2)),
            complete_bipartite_graph(1, 3),
        )

    def test_naimark_pattern(self):
        fr = random_parseval(6, 2, 9)
        from framescale.frames import naimark_complement

        comp = naimark_complement(fr)
        assert zero_pattern_equal(build_graph(fr, 1e-8),
                                  build_graph(comp, 1e-8))

    def test_star_minus_center(self):
        sub = induced_subgraph(complete_bipartite_graph(1, 3), [1, 2, 3])
        assert sub.vertex_count == 3 and not sub.edges

    def test_c5_minus_vertex_is_p4(self):
        sub = induced_subgraph(cycle_graph(5), [1, 2, 3, 4])
        assert zero_pattern_equal(sub, path_graph(4))

    def test_keep_all_identity(self):
        g = cycle_graph(5)
        assert zero_pattern_equal(induced_subgraph(g, range(5)), g)


class TestDot:
    def test_empty_two_vertices(self):
        text = export_dot(empty_graph(2))
        assert "v1;" in text and "v2;" in text and "--" not in text

    def test_k2_edge(self):
        assert "v1 -- v2;" in export_dot(complete_graph(2))

    def test_m2_star_edges(self):
        text = export_dot(build_graph(M2, 0))
        assert text.count("v1 --") == 3

    def test_deterministic(self):
        g = cycle_graph(6)
        assert export_dot(g) == export_dot(g)
