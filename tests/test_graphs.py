"""Frame graphs: construction, statistics, exact combinatorial searches."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul

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
from framescale.linalg import ordered_sum

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


def neighbour_sets(g: FrameGraph) -> list:
    """The neighbour set of every vertex, built once from the edge list."""
    adj = [set() for _ in range(g.vertex_count)]
    for (i, j) in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def neighbour_masks(g: FrameGraph) -> list:
    """The neighbourhoods as bitmasks, rebuilt from the edge list."""
    return [sum(1 << w for w in nbrs) for nbrs in neighbour_sets(g)]


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
    adj = neighbour_masks(g)
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
    """Every induced path, without cuts, met once from its lowest-ranked
    vertex (the root), vertices ranked by (degree, index).  Roots go in rank
    order, and each path grows an arm A from the root.  At each end of A
    the path itself comes first, then every second arm B, whose head is a
    neighbour of the root ranked above A's head, then the longer A arms;
    every choice goes in rank order.  Keeps the first longest path, written
    from its end of smaller index."""
    adj = neighbour_sets(g)
    ranked = sorted(range(g.vertex_count), key=lambda v: (len(adj[v]), v))
    rank = {v: k for k, v in enumerate(ranked)}
    # neighbourhoods over ranks: bit k is the vertex ranked k
    nbr = [sum(1 << rank[w] for w in adj[v]) for v in ranked]
    best = [0]

    def meet(path):
        if len(path) > len(best):
            best[:] = path

    def steps(end, blocked):
        """The ranks that may follow end, in rank order."""
        cand = nbr[end] & ~blocked
        while cand:
            low = cand & -cand
            cand ^= low
            yield low.bit_length() - 1

    # blocked: the ranks at or below the root, and the path vertices and
    # their neighbours, except the neighbours of the end being grown
    def grow_b(b_path, a_path, blocked):
        meet(b_path[::-1] + a_path)
        end = b_path[-1]
        for x in steps(end, blocked):
            grow_b(b_path + [x], a_path, blocked | nbr[end] | 1 << end)

    # arm: the vertices of A and their neighbours
    def grow_a(a_path, blocked, arm):
        root, head, end = a_path[0], a_path[1], a_path[-1]
        meet(a_path)
        for b in steps(root, arm | (2 << head) - 1):
            grow_b([b], a_path, blocked | arm)
        closed = blocked | nbr[end] | 1 << end
        for x in steps(end, blocked):
            grow_a(a_path + [x], closed, arm | nbr[x] | 1 << x)

    for root in range(g.vertex_count):
        meet([root])
        low = (2 << root) - 1
        for a in steps(root, low):
            grow_a([root, a], low | nbr[root] | 1 << root, nbr[a] | 1 << a)
    path = [ranked[k] for k in best]
    if path[-1] < path[0]:
        path.reverse()
    return len(path), tuple(path)


def reference_components(g: FrameGraph):
    """Depth-first components over neighbour sets, sorted vertex tuples in
    order of their smallest vertex."""
    adj = neighbour_sets(g)
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
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_diameter(g: FrameGraph, connected: bool):
    """A dict BFS from every vertex; None when disconnected."""
    if not connected:
        return None
    adj = neighbour_sets(g)
    best = 0
    for src in range(g.vertex_count):
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def reference_part_sizes(g: FrameGraph, comps):
    """Per-component colour class sizes of a 2-colouring that gives each
    component's smallest vertex colour 0, or None on an odd cycle."""
    adj = neighbour_sets(g)
    color = {}
    sizes = []
    for comp in comps:
        color[comp[0]] = 0
        queue = [comp[0]]
        while queue:
            v = queue.pop()
            for w in adj[v]:
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
    adj = [sorted(nbrs) for nbrs in neighbour_sets(g)]
    disc = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    out = []
    timer = 0
    for root in range(g.vertex_count):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
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
    adj = neighbour_sets(g)
    out = []
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        if v in adj[u]:
            continue
        common = adj[u] & adj[v]
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

    def test_no_vertices_rejected(self):
        with pytest.raises(GraphError, match="at least one vertex"):
            FrameGraph(0, [])

    def test_isolated_flagging(self):
        g = FrameGraph(3, [(0, 1)])
        assert g.flags(2) == ["isolated"]
        assert g.has_flagged_vertices()

    def test_edges_ascending_whatever_the_given_order(self):
        rng = random.Random("mask-stats:order")
        for m in (9, 20, 40):
            canon = [(i, j) for i in range(m) for j in range(i + 1, m)
                     if rng.random() < 0.3]
            given = [(j, i) if rng.random() < 0.5 else (i, j)
                     for (i, j) in canon]
            given += given[:5]  # repeats add nothing
            rng.shuffle(given)
            assert FrameGraph(m, given).edges == canon

    def test_flags_read_off_the_masks(self):
        g = FrameGraph._unchecked([2, 1, 0], 0b110)
        assert [g.flags(v) for v in range(3)] == [
            [], ["zero_vector"], ["isolated", "zero_vector"]]
        assert g.has_flagged_vertices()
        # a flagged vertex can keep its edges
        assert FrameGraph._unchecked([2, 1], 1).has_flagged_vertices()
        assert not FrameGraph._unchecked([2, 1]).has_flagged_vertices()


class TestBuildGraph:
    def test_equality_reads_the_zero_vectors(self):
        """Two graphs with the same masks and different zero vectors are
        not equal; zero_pattern_equal compares the adjacency alone.  The
        first vector is flagged zero_vector and keeps its edge to v2."""
        fr = Frame.from_vectors([[1e-6, 0], [1e6, 1], [0, 1], [1, 1]])
        g = build_graph(fr)
        h = FrameGraph._unchecked(g.masks)
        assert (g.zero_vectors, h.zero_vectors) == (1, 0) and g.masks[0]
        assert g != h and zero_pattern_equal(g, h)
        assert g == build_graph(fr) and hash(g) == hash(build_graph(fr))
        assert len({g, h, build_graph(fr)}) == 2

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
        assert "zero_vector" in g.flags(1)

    @pytest.mark.parametrize("name", ["paper/M1", "paper/M2", "paper/M",
                                      "canonical/mercedes", "zero_vector"])
    def test_exact_graph_ignores_tol_zero(self, name):
        """On an exact frame an edge is an exactly nonzero inner product,
        whatever tol_zero is."""
        fr = (Frame.from_vectors([[1, 0], [0, 0], [1, 1]], exact=True)
              if name == "zero_vector" else load(name).frame)
        graphs = [build_graph(fr, t) for t in (0, 1e-10, 0.5)]
        for g in graphs[1:]:
            assert g.masks == graphs[0].masks
            assert g.zero_vectors == graphs[0].zero_vectors

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
        assert [v for v in range(len(vs)) if "zero_vector" in g.flags(v)] \
            == [v for v in range(len(vs)) if not dot[v][v]]

    def test_float_threshold(self):
        fr = Frame.from_vectors([[1.0, 0.0], [1e-12, 1.0]])
        g = build_graph(fr, 1e-10)
        assert not g.edges
        g = build_graph(fr, 1e-14)
        assert g.sorted_edges() == [(0, 1)]

    @pytest.mark.parametrize("seed", range(10))
    def test_float_edges_are_products_above_tol(self, seed):
        # tol_zero set to one of the products' magnitudes, so some products
        # sit exactly on it (no edge) and some just above it (an edge)
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        vectors = [[rng.choice([0.0, 0.5, -0.5, 1.0, -2.0, 1e-3])
                    for _ in range(n)] for _ in range(rng.randint(2, 12))]
        fr = Frame.from_vectors(vectors)
        vs, m = fr.vectors, len(vectors)
        dot = [[ordered_sum(map(mul, u, v)) for v in vs] for u in vs]
        tol = rng.choice([0.0] + [abs(dot[i][j]) for i in range(m)
                                  for j in range(i + 1, m)])
        g = build_graph(fr, tol)
        assert g.sorted_edges() == [(i, j) for i in range(m)
                                    for j in range(i + 1, m)
                                    if abs(dot[i][j]) > tol]
        assert [v for v in range(m) if "zero_vector" in g.flags(v)] \
            == [v for v in range(m) if not dot[v][v] > tol]


def pairwise_rule(fr: Frame, tol: float):
    """The float edge rule pair by pair, with no screen: the masks and the
    zero-vector mask for |x| > tol, x the left-to-right sum of the rounded
    products."""
    vs, m = fr.vectors, fr.count
    dot = [[ordered_sum(map(mul, u, v)) for v in vs] for u in vs]
    masks = [sum(1 << j for j in range(m)
                 if j != i and (dot[i][j] > tol or dot[i][j] < -tol))
             for i in range(m)]
    return masks, sum(1 << i for i in range(m) if not dot[i][i] > tol)


def ulps_away(x: float, k: int) -> float:
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def band_case(seed: int):
    """A float frame and the tol_zero values to build it at.  Kinds, by
    seed % 5: products within a few ulps of tol_zero on both sides (near
    copies of one vector, so that most pairs straddle at once); random
    products, tol_zero a few ulps from one of them; exact zeros at tol_zero
    0 (u and u with two coordinates turned); entries of 1e+-150 and
    subnormal ones; entries near 1e154, whose norms overflow."""
    rng = random.Random(seed)
    kind, n, m = seed % 5, rng.randint(1, 6), rng.randint(1, 12)
    gauss = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(m)]
    if kind == 0:
        base = gauss[0]
        vs = [[ulps_away(x, rng.randint(-2, 2)) for x in base]
              for _ in range(m)] + gauss[:2]
    elif kind == 1:
        vs = gauss
    elif kind == 2:
        vs = [[rng.choice([0.0, 0.1, -0.2, 0.3, 1 / 3, 7.0]) for _ in range(n)]
              for _ in range(m)]
        if n >= 2:
            vs += [[u[1], -u[0]] + u[2:] for u in vs]
    elif kind == 3:
        vs = [[x * 10.0 ** rng.choice([-150, 150]) if rng.random() < 0.7
               else rng.choice([5e-324, -3e-320, 1e-310, 2.2e-308])
               for x in u] for u in gauss]
    else:
        vs = [[x * 1e154 if rng.random() < 0.6 else x for x in u]
              for u in gauss]
    products = [abs(ordered_sum(map(mul, u, v))) for u, v in
                itertools.combinations(vs, 2)]
    products = [x for x in products if 0 < x < math.inf]
    tols = [0.0, 1e-10]
    for x in rng.sample(products, min(2, len(products))):
        tols += [ulps_away(x, k) for k in range(-3, 4)]
    return vs, [t for t in tols if t >= 0]


class TestFloatScreen:
    """build_graph screens float pairs with math.dist and decides only the
    pairs in its error band with the exact test; it must agree with the
    plain pairwise rule everywhere, band edges included."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_pairwise_rule(self, seed):
        vs, tols = band_case(seed)
        fr = Frame.from_vectors(vs)
        for tol in tols:
            g = build_graph(fr, tol)
            assert (list(g.masks), g.zero_vectors) == pairwise_rule(fr, tol)

    @pytest.mark.parametrize("vectors", [
        [[0.3]], [[0.3, -0.4, 1e154]], [[2.0], [-1e-3], [0.0], [5e-324]],
        [[1e154, 1e154], [1e154, -1e154], [1.0, 1.0], [-1e154, 3.0]],
    ], ids=["m1n1", "m1", "n1", "norms-overflow"])
    def test_small_and_overflowing_frames(self, vectors):
        fr = Frame.from_vectors(vectors)
        for tol in (0.0, 1e-10, 1.0, 1e300):
            g = build_graph(fr, tol)
            assert (list(g.masks), g.zero_vectors) == pairwise_rule(fr, tol)


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
        st = compute_stats(cycle_graph(40))
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

    @pytest.mark.parametrize("p, seed", [(0.1, 0), (0.1, 1), (0.2, 0),
                                         (0.3, 0), (0.5, 0), (0.5, 1)])
    def test_graph_cap_shaped(self, p, seed):
        self.check(gnp(random.Random(f"reference:cap:{seed}:{p}"), 32, p))

    def test_named_and_disconnected(self):
        rng = random.Random("reference:unions")
        graphs = [complete_graph(m) for m in (1, 2, 3, 12, 24)]
        graphs += [empty_graph(m) for m in (1, 2, 24)]
        graphs += [path_graph(m) for m in (2, 3, 24)]
        graphs += [cycle_graph(m) for m in (3, 4, 5, 24)]
        graphs += [complete_bipartite_graph(a, b)
                   for a, b in ((1, 1), (1, 5), (3, 3), (7, 12))]
        graphs += [
            graph_union(cycle_graph(9), complete_graph(4)),
            graph_union(complete_graph(4), cycle_graph(9)),
            graph_union(empty_graph(3), path_graph(7)),
            graph_union(path_graph(5), empty_graph(3)),
            graph_union(complete_bipartite_graph(2, 3), cycle_graph(6)),
            graph_union(gnp(rng, 12, 0.3), gnp(rng, 12, 0.5)),
            graph_join(cycle_graph(5), empty_graph(3)),
            graph_join(path_graph(6), complete_graph(2)),
            graph_join(gnp(rng, 10, 0.2), gnp(rng, 10, 0.2)),
        ]
        for g in graphs:
            self.check(g)

    @pytest.mark.parametrize("edges, m, start", [
        # a clique on the low labels, the longest path above it
        ([(i, j) for i in range(4) for j in range(i + 1, 4)]
         + [(i, i + 1) for i in range(4, 12)], 13, 4),
        # vertex 0 inside every longest path: 6-4-2-0-1-3-5-7, rooted at
        # its end 6, which ranks first
        ([(0, 1), (1, 3), (3, 5), (5, 7), (0, 2), (2, 4), (4, 6)], 8, 6),
        # two longest paths tie; isolated 0 ranks first, then the ends of
        # degree 1, so the first longest path is rooted at 1
        ([(8, 6), (6, 4), (4, 2), (1, 3), (3, 5), (5, 7)], 9, 1),
        # a triangle with tails: the longest path is rooted at the end 5,
        # the lowest-ranked of degree 1, and written from it
        ([(0, 1), (0, 2), (1, 2), (1, 3), (3, 5), (2, 4), (4, 6)], 7, 5),
    ])
    def test_witness_start_above_zero(self, edges, m, start):
        # check() compares the whole witness with the reference's
        g = FrameGraph(m, edges)
        self.check(g)
        assert compute_stats(g).induced_path_witness[0] == start

    @pytest.mark.parametrize("g, witness", [
        # regular graphs rank in index order and are searched as they are
        (cycle_graph(8), (1, 0, 7, 6, 5, 4, 3)),
        (complete_bipartite_graph(3, 3), (3, 0, 4)),
        # the same shapes off regularity rank their low degrees first: the
        # ends of the path, the part of four
        (path_graph(8), tuple(range(8))),
        (complete_bipartite_graph(2, 4), (0, 2, 1)),
    ])
    def test_witness_in_rank_order(self, g, witness):
        self.check(g)
        assert compute_stats(g).induced_path_witness == witness

    @staticmethod
    def greedy_size(g: FrameGraph) -> int:
        """The size of the greedy independent set in ascending (degree,
        index) order, one above where the library's MIS search starts."""
        size = blocked = 0
        for v in sorted(range(g.vertex_count),
                        key=lambda v: g.masks[v].bit_count()):
            if not blocked >> v & 1:
                size += 1
                blocked |= g.masks[v]
        return size

    def test_greedy_below_alpha(self):
        # the greedy set takes 4 (degree 1), then 1, and blocks {2, 3, 4}
        g = FrameGraph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        assert self.greedy_size(g) == 2
        assert compute_stats(g).max_independent_set == (2, 3, 4)
        self.check(g)

    def test_greedy_at_alpha(self):
        # a search that started at the greedy size would find no set
        graphs = [empty_graph(1), complete_graph(5), path_graph(7),
                  cycle_graph(6), complete_bipartite_graph(2, 5)]
        rng = random.Random("reference:greedy")
        graphs += [gnp(rng, m, p) for m in (8, 16, 24, 32)
                   for p in (0.1, 0.3, 0.5) for _ in range(2)]
        at_alpha = 0
        for g in graphs:
            self.check(g)
            at_alpha += self.greedy_size(g) == compute_stats(g).alpha
        assert at_alpha >= 10

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_closed_ends(self, seed):
        # on sparse graphs many arm steps end with no free neighbour and no
        # B head left, and are kept without a call
        self.check(gnp(random.Random(f"reference:sparse:{seed}"), 24, 0.1))

    @staticmethod
    def check_stats(g: FrameGraph):
        m = g.vertex_count
        st = compute_stats(g)
        comps = reference_components(g)
        connected = len(comps) == 1
        parts = reference_part_sizes(g, comps)
        assert st.components == comps
        assert st.is_connected == connected
        assert st.diameter == reference_diameter(g, connected)
        assert st.is_bipartite == (parts is not None)
        assert st.component_part_sizes == parts
        assert st.bridges == reference_bridges(g)
        degrees = [len(nbrs) for nbrs in neighbour_sets(g)]
        assert st.leaves == tuple(v for v in range(m) if degrees[v] == 1)
        assert st.is_complete == (len(g.edges) == m * (m - 1) // 2)
        assert st.is_empty == (not g.edges)
        assert st.is_cycle == (connected and m >= 3 and set(degrees) == {2})
        assert g.edge_count() == len(g.edges)
        assert g.edges == sorted({(i, j) for (i, j) in g.edges if i < j})
        assert neighbour_masks(g) == list(g.masks)
        assert list(unique_common_neighbor_pairs(g)) == \
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
    """The balance test reads the part sizes the statistics computed."""

    @staticmethod
    def balanced(g: FrameGraph) -> bool:
        return balanced_bipartition_exists(compute_stats(g).component_part_sizes)

    def test_k2_union_k2_true(self):
        assert self.balanced(graph_union(complete_graph(2), complete_graph(2)))

    def test_star_false(self):
        assert not self.balanced(complete_bipartite_graph(1, 3))

    def test_differences_cancel(self):
        # parts (1,2), (1,3), (1,4): diffs 1,2,3 and 1+2-3 = 0
        g = graph_union(
            graph_union(complete_bipartite_graph(1, 2),
                        complete_bipartite_graph(1, 3)),
            complete_bipartite_graph(1, 4),
        )
        assert self.balanced(g)
        assert balanced_bipartition_exists(((1, 2), (1, 3), (1, 4)))

    def test_odd_vertex_count_false(self):
        assert not self.balanced(path_graph(5))
        assert not balanced_bipartition_exists(((3, 2),))

    def test_non_bipartite_raises(self):
        with pytest.raises(GraphError):
            self.balanced(complete_graph(3))


class TestUnionAndJoin:
    """The mask-shifting constructors equal the graphs built from the edge
    lists they stand for."""

    @staticmethod
    def pairs(rng):
        yield complete_graph(1), complete_graph(1)
        yield complete_graph(2), empty_graph(3)
        yield cycle_graph(5), complete_bipartite_graph(1, 3)
        for _ in range(20):
            yield (gnp(rng, rng.randint(1, 12), rng.random()),
                   gnp(rng, rng.randint(1, 12), rng.random()))

    def test_union(self):
        for g1, g2 in self.pairs(random.Random("union")):
            off = g1.vertex_count
            edges = g1.edges + [(i + off, j + off) for (i, j) in g2.edges]
            expected = FrameGraph(off + g2.vertex_count, edges)
            g = graph_union(g1, g2)
            assert g == expected and g.edges == expected.edges

    def test_join(self):
        for g1, g2 in self.pairs(random.Random("join")):
            off, m2 = g1.vertex_count, g2.vertex_count
            edges = g1.edges + [(i + off, j + off) for (i, j) in g2.edges]
            edges += [(i, off + j) for i in range(off) for j in range(m2)]
            expected = FrameGraph(off + m2, edges)
            g = graph_join(g1, g2)
            assert g == expected and g.edges == expected.edges


class TestUniqueCommonNeighbor:
    def test_star_pairs(self):
        pairs = unique_common_neighbor_pairs(complete_bipartite_graph(1, 3))
        assert set(pairs) == {(1, 2, 0), (1, 3, 0), (2, 3, 0)}

    def test_c4_empty(self):
        assert not list(unique_common_neighbor_pairs(cycle_graph(4)))

    def test_p3(self):
        assert list(unique_common_neighbor_pairs(path_graph(3))) == [(0, 2, 1)]

    def test_c5_all_pairs(self):
        # in C5 every non-adjacent pair has exactly one common neighbor
        assert len(list(unique_common_neighbor_pairs(cycle_graph(5)))) == 5


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
