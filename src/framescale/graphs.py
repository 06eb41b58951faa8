"""Frame graphs and the exact graph statistics the scalability filters consume.

The frame graph puts an edge between two vectors exactly when their inner
product is nonzero (above ``tol_zero`` in float mode, exactly nonzero in
exact mode).  All statistics are computed exactly, from the adjacency
bitmasks the graph builds once (``FrameGraph.masks``).  The two exponential
searches, independence number and longest induced path, run behind a
configurable vertex cap as branch and bound over bitmasks:

- maximum independent set: a subtree is cut when its candidates, counted
  one by one or as the cliques of a greedy clique cover (an independent
  set meets each clique at most once), cannot beat the best size so far;
- longest induced path: from an endpoint whose free neighbours are C and
  whose other free vertices are R, the path adds at most 1 + |R| more
  vertices, since the step to one vertex of C blocks the rest of C.

Both keep the witness of the plain DFS in the same branching order: a best
is replaced only by a strictly larger one, so the witness is the first
maximum in DFS order, and every ancestor of that maximum has a bound above
the best found before it, so no cut removes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .exactnum import sign
from .frames import Frame, integer_vectors

DEFAULT_VERTEX_CAP = 32


class GraphError(ValueError):
    pass


def mask_vertices(mask: int) -> list:
    """The vertices of a bitmask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FrameGraph:
    """Simple undirected graph on vertex indices 0..m-1.

    ``masks[v]`` is the neighbourhood of v as a bitmask, built once; the
    statistics and filters read it.  The edge set and the neighbour sets are
    built on first use, from the edges in the order given (ascending for
    ``from_masks``), so they are the same sets, iterating in the same order,
    as a graph that built them eagerly.
    """

    __slots__ = ("vertex_count", "masks", "vertex_flags", "_given", "_edges",
                 "_adj")

    def __init__(self, vertex_count: int, edges, vertex_flags=None):
        if vertex_count < 1:
            raise GraphError("need at least one vertex")
        given = tuple(edges)
        masks = [0] * vertex_count
        for (i, j) in given:
            if i == j:
                raise GraphError(f"loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise GraphError(f"edge ({i},{j}) out of range")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._init(masks, vertex_flags, given)

    @classmethod
    def from_masks(cls, masks, vertex_flags=None) -> "FrameGraph":
        """Graph whose vertex v has neighbourhood ``masks[v]``; the masks
        must be symmetric with no bit v in ``masks[v]``."""
        if not masks:
            raise GraphError("need at least one vertex")
        g = cls.__new__(cls)
        g._init(masks, vertex_flags, None)
        return g

    def _init(self, masks, vertex_flags, given):
        m = len(masks)
        self.vertex_count = m
        self.masks = tuple(masks)
        self._given = given
        self._edges = self._adj = None
        flags = {i: set() for i in range(m)}
        if vertex_flags:
            for i, fs in vertex_flags.items():
                flags[i] |= set(fs)
        for i in range(m):
            if not masks[i]:
                flags[i].add("isolated")
        self.vertex_flags = {i: frozenset(fs) for i, fs in flags.items()}

    def _build_sets(self) -> None:
        given = self._given if self._given is not None else self.sorted_edges()
        canon = set()
        for (i, j) in given:
            canon.add((min(i, j), max(i, j)))
        adj = [set() for _ in range(self.vertex_count)]
        for (i, j) in canon:
            adj[i].add(j)
            adj[j].add(i)
        self._edges = frozenset(canon)
        self._adj = tuple(frozenset(s) for s in adj)

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._build_sets()
        return self._edges

    def neighbors(self, v: int) -> frozenset:
        if self._adj is None:
            self._build_sets()
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def has_edge(self, i: int, j: int) -> bool:
        m = self.vertex_count
        return 0 <= i < m and 0 <= j < m and bool(self.masks[i] >> j & 1)

    def sorted_edges(self):
        return [(i, j) for i, mask in enumerate(self.masks)
                for j in mask_vertices(mask & -(2 << i))]

    def has_flagged_vertices(self) -> bool:
        return any(self.vertex_flags[i] for i in range(self.vertex_count))

    def __eq__(self, other):
        if not isinstance(other, FrameGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.vertex_count, self.masks))

    def __repr__(self):
        return f"FrameGraph(m={self.vertex_count}, edges={self.edge_count()})"


def build_graph(frame: Frame, tol_zero: float = 1e-10) -> FrameGraph:
    """Edge (i,j) iff |<f_i, f_j>| exceeds tol_zero (exactly nonzero in exact
    mode, where tol_zero must be 0)."""
    if frame.is_exact and tol_zero != 0:
        raise GraphError("exact mode requires tol_zero = 0")
    if tol_zero < 0:
        raise GraphError("tol_zero must be nonnegative")
    m = frame.count
    ints = integer_vectors(frame)
    vs = frame.vectors if ints is None else ints
    if ints is not None:
        nonzero = bool
    elif frame.is_exact:
        def nonzero(x) -> bool:
            return sign(x) != 0
    else:
        def nonzero(x) -> bool:
            return abs(x) > tol_zero

    masks = [0] * m
    for i, u in enumerate(vs):
        bit, row = 1 << i, 0
        for j in range(i + 1, m):
            if nonzero(sum(map(mul, u, vs[j]))):
                row |= 1 << j
                masks[j] |= bit
        masks[i] |= row
    flags = {}
    for i in range(m):
        if not nonzero(sum(map(mul, vs[i], vs[i]))):
            flags[i] = {"zero_vector"}
    return FrameGraph.from_masks(masks, flags)


@dataclass(frozen=True)
class GraphStats:
    components: tuple  # tuple of sorted vertex tuples
    is_connected: bool
    diameter: int | None  # None = infinite (disconnected)
    is_bipartite: bool
    component_part_sizes: tuple | None  # per-component (|X_c|, |Y_c|) if bipartite
    alpha: int | None
    max_independent_set: tuple | None
    bridges: tuple
    leaves: tuple
    is_complete: bool
    is_empty: bool
    is_cycle: bool
    induced_path_vertices: int | None
    induced_path_witness: tuple | None
    cap_exceeded: bool


def _components(g: FrameGraph):
    """Connected components as sorted vertex tuples, in order of their
    smallest vertex, and per component the sizes (|X_c|, |Y_c|) of its two
    colour classes, X_c holding the smallest vertex; the sizes are None
    when some component has an odd cycle.  One BFS by layers per component:
    an edge inside a layer closes an odd cycle."""
    masks = g.masks
    left = (1 << g.vertex_count) - 1
    comps, parts = [], []
    while left:
        frontier = comp = left & -left
        sides = [frontier, 0]  # even and odd BFS layers
        parity = 0
        while frontier:
            reach = 0
            for v in mask_vertices(frontier):
                reach |= masks[v]
            if reach & frontier:
                parts = None
            frontier = reach & ~comp
            comp |= frontier
            parity ^= 1
            sides[parity] |= frontier
        left &= ~comp
        comps.append(tuple(mask_vertices(comp)))
        if parts is not None:
            parts.append((sides[0].bit_count(), sides[1].bit_count()))
    return tuple(comps), None if parts is None else tuple(parts)


def _diameter(g: FrameGraph) -> int:
    """Diameter of a connected graph: the most BFS layers from any vertex."""
    masks = g.masks
    full = (1 << g.vertex_count) - 1
    best = 0
    for src in range(g.vertex_count):
        seen = frontier = 1 << src
        d = 0
        while seen != full:
            reach = 0
            for v in mask_vertices(frontier):
                reach |= masks[v]
            frontier = reach & ~seen
            seen |= frontier
            d += 1
        if d > best:
            best = d
    return best


def _bridges(g: FrameGraph):
    """Bridge edges by one DFS over bitmasks.  A DFS tree edge (p, v) is a
    bridge when it is the only edge leaving the subtree of v: the subtree's
    neighbours outside it are just p, and p has one neighbour inside it."""
    masks = g.masks
    unvisited = (1 << g.vertex_count) - 1
    subtree = [1 << v for v in range(g.vertex_count)]
    reach = list(masks)  # neighbours of the subtree, the subtree included
    out = []
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        while stack:
            v = stack[-1]
            nxt = masks[v] & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                stack.append(low.bit_length() - 1)
                continue
            stack.pop()
            if stack:
                p = stack[-1]
                sub = subtree[v]
                if (reach[v] & ~sub == 1 << p
                        and (masks[p] & sub).bit_count() == 1):
                    out.append((min(p, v), max(p, v)))
                subtree[p] |= sub
                reach[p] |= reach[v]
    return tuple(sorted(out))


def _max_independent_set_masks(adj_masks):
    """Exact maximum independent set over bitmask adjacency; returns a mask.

    Branches on the lowest-index candidate of maximum degree among the
    candidates, include branch first, and cuts a subtree when the popcount
    of its candidates, or the clique count of a greedy clique cover of
    them, cannot beat the best size so far.
    """
    best_size = best_mask = 0

    def grow(candidates, chosen, size):
        nonlocal best_size, best_mask
        room = best_size - size
        if candidates.bit_count() <= room:
            return
        if candidates == 0:
            best_size, best_mask = size, chosen
            return
        # an independent set meets each clique of a cover at most once
        rest, cliques = candidates, 0
        while rest and cliques <= room:
            low = rest & -rest
            rest ^= low
            clique = rest & adj_masks[low.bit_length() - 1]
            while clique:
                low = clique & -clique
                rest ^= low
                clique &= adj_masks[low.bit_length() - 1]
            cliques += 1
        if cliques <= room:
            return
        # branch on a candidate of maximum degree within the candidate set
        pick, pick_deg = -1, -1
        c = candidates
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = (adj_masks[v] & candidates).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        bit = 1 << pick
        grow(candidates & ~(bit | adj_masks[pick]), chosen | bit, size + 1)
        grow(candidates & ~bit, chosen, size)

    grow((1 << len(adj_masks)) - 1, 0, 0)
    return best_mask


def _longest_induced_path(g: FrameGraph):
    """Longest induced path as (vertex count, witness tuple), exact.

    The witness is the first longest path of a DFS over starts in ascending
    order, then neighbours in ascending order.  The search computes lengths
    only; the witness is replayed afterwards, one vertex at a time.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    adj = g.masks

    def ext(cand, rest, need):
        """Most vertices a path can still add at an endpoint whose free
        neighbours are cand, with rest the other free vertices: exact when
        that is >= need, otherwise some upper bound below need."""
        if not cand:
            return 0
        # the step to one candidate blocks all the others
        bound = 1 + rest.bit_count()
        if bound < need:
            return bound
        best = 0
        need -= 1  # asked of each child, or more than its elders gave
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = adj[low.bit_length() - 1] & rest
            r = 1 + ext(nxt, rest & ~nxt, best if best > need else need)
            if r > best:
                best = r
                if best == bound:
                    break
        return best

    length, start = 1, 0
    for s in range(n):
        r = ext(adj[s], full & ~(1 << s) & ~adj[s], length)
        if r >= length:
            length, start = 1 + r, s

    path = [start]
    cand, rest = adj[start], full & ~(1 << start) & ~adj[start]
    for need in range(length - 2, -1, -1):
        # the first neighbour, in ascending order, that still reaches length
        while True:
            low = cand & -cand
            cand ^= low
            nxt = adj[low.bit_length() - 1] & rest
            if ext(nxt, rest & ~nxt, need) >= need:
                break
        path.append(low.bit_length() - 1)
        cand, rest = nxt, rest & ~nxt
    return length, tuple(path)


def compute_stats(g: FrameGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> GraphStats:
    """All graph statistics, computed exactly.

    The exponential searches (alpha, longest induced path) are skipped and
    reported as None with cap_exceeded=True when vertex_count > vertex_cap.
    """
    m = g.vertex_count
    comps, part_sizes = _components(g)
    connected = len(comps) == 1
    degrees = [mask.bit_count() for mask in g.masks]
    edge_count = sum(degrees) // 2

    cap_exceeded = m > vertex_cap
    alpha = mis = path_len = witness = None
    if not cap_exceeded:
        mask = _max_independent_set_masks(g.masks)
        mis = tuple(mask_vertices(mask))
        alpha = len(mis)
        path_len, witness = _longest_induced_path(g)

    return GraphStats(
        components=comps,
        is_connected=connected,
        diameter=_diameter(g) if connected else None,
        is_bipartite=part_sizes is not None,
        component_part_sizes=part_sizes,
        alpha=alpha,
        max_independent_set=mis,
        bridges=_bridges(g),
        leaves=tuple(v for v in range(m) if degrees[v] == 1),
        is_complete=edge_count == m * (m - 1) // 2,
        is_empty=not edge_count,
        is_cycle=connected and m >= 3 and all(d == 2 for d in degrees),
        induced_path_vertices=path_len,
        induced_path_witness=witness,
        cap_exceeded=cap_exceeded,
    )


def balanced_bipartition_exists(g: FrameGraph) -> bool:
    """Whether some global bipartition (X, Y) of a bipartite graph has
    |X| = |Y|: a sign choice per component over part-size differences."""
    _, part_sizes = _components(g)
    if part_sizes is None:
        raise GraphError("graph is not bipartite")
    diffs = [x - y for (x, y) in part_sizes]
    sums = {0}
    for d in diffs:
        sums = {s + d for s in sums} | {s - d for s in sums}
    return 0 in sums


def unique_common_neighbor_pairs(g: FrameGraph):
    """All non-adjacent pairs u < v with exactly one common neighbor,
    returned as (u, v, witness)."""
    masks = g.masks
    full = (1 << g.vertex_count) - 1
    out = []
    for u, mu in enumerate(masks):
        for v in mask_vertices(full & ~mu & -(2 << u)):
            common = mu & masks[v]
            if common and not common & (common - 1):
                out.append((u, v, common.bit_length() - 1))
    return out


def zero_pattern_equal(g1: FrameGraph, g2: FrameGraph) -> bool:
    """Index-aligned adjacency identity (not general graph isomorphism)."""
    if g1.vertex_count != g2.vertex_count:
        raise GraphError("vertex counts differ")
    return g1.masks == g2.masks


def export_dot(g: FrameGraph) -> str:
    """Deterministic DOT text; vertices v1..vm, edges sorted by index."""
    lines = ["graph G {"]
    for v in range(g.vertex_count):
        # "isolated" is derivable from the edge list; only data-quality
        # flags such as zero_vector are worth showing
        flags = sorted(f for f in g.vertex_flags[v] if f != "isolated")
        attr = f' [flags="{",".join(flags)}"]' if flags else ""
        lines.append(f"  v{v + 1}{attr};")
    for (i, j) in g.sorted_edges():
        lines.append(f"  v{i + 1} -- v{j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Named constructors used by the corpus and the graph-only CLI mode.

def empty_graph(m: int) -> FrameGraph:
    return FrameGraph(m, [])


def complete_graph(m: int) -> FrameGraph:
    return FrameGraph(m, combinations(range(m), 2))


def path_graph(m: int) -> FrameGraph:
    return FrameGraph(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(m: int) -> FrameGraph:
    if m < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return FrameGraph(m, [(i, (i + 1) % m) for i in range(m)])


def complete_bipartite_graph(a: int, b: int) -> FrameGraph:
    return FrameGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def graph_union(g1: FrameGraph, g2: FrameGraph) -> FrameGraph:
    off = g1.vertex_count
    edges = list(g1.edges) + [(i + off, j + off) for (i, j) in g2.edges]
    return FrameGraph(off + g2.vertex_count, edges)


def graph_join(g1: FrameGraph, g2: FrameGraph) -> FrameGraph:
    off = g1.vertex_count
    edges = list(g1.edges) + [(i + off, j + off) for (i, j) in g2.edges]
    edges += [(i, off + j) for i in range(off) for j in range(g2.vertex_count)]
    return FrameGraph(off + g2.vertex_count, edges)
