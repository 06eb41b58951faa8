"""Frame graphs and the exact graph statistics the scalability filters consume.

The frame graph puts an edge between two vectors exactly when their inner
product is nonzero (above ``tol_zero`` in float mode, exactly nonzero in
exact mode).  All statistics are computed exactly.  The two exponential
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

from .exactnum import sign
from .frames import Frame

DEFAULT_VERTEX_CAP = 32


class GraphError(ValueError):
    pass


class FrameGraph:
    """Simple undirected graph on vertex indices 0..m-1."""

    __slots__ = ("vertex_count", "edges", "vertex_flags", "_adj")

    def __init__(self, vertex_count: int, edges, vertex_flags=None):
        if vertex_count < 1:
            raise GraphError("need at least one vertex")
        canon = set()
        for (i, j) in edges:
            if i == j:
                raise GraphError(f"loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise GraphError(f"edge ({i},{j}) out of range")
            canon.add((min(i, j), max(i, j)))
        self.vertex_count = vertex_count
        self.edges = frozenset(canon)
        adj = [set() for _ in range(vertex_count)]
        for (i, j) in canon:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = tuple(frozenset(s) for s in adj)
        flags = {i: set() for i in range(vertex_count)}
        if vertex_flags:
            for i, fs in vertex_flags.items():
                flags[i] |= set(fs)
        for i in range(vertex_count):
            if not self._adj[i]:
                flags[i].add("isolated")
        self.vertex_flags = {i: frozenset(fs) for i, fs in flags.items()}

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)

    def has_flagged_vertices(self) -> bool:
        return any(self.vertex_flags[i] for i in range(self.vertex_count))

    def __eq__(self, other):
        if not isinstance(other, FrameGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"FrameGraph(m={self.vertex_count}, edges={len(self.edges)})"


def build_graph(frame: Frame, tol_zero: float = 1e-10) -> FrameGraph:
    """Edge (i,j) iff |<f_i, f_j>| exceeds tol_zero (exactly nonzero in exact
    mode, where tol_zero must be 0)."""
    if frame.is_exact and tol_zero != 0:
        raise GraphError("exact mode requires tol_zero = 0")
    if tol_zero < 0:
        raise GraphError("tol_zero must be nonnegative")
    m = frame.count
    vs = frame.vectors

    def nonzero(x) -> bool:
        if frame.is_exact:
            return sign(x) != 0
        return abs(float(x)) > tol_zero

    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            ip = sum(a * b for a, b in zip(vs[i], vs[j]))
            if nonzero(ip):
                edges.append((i, j))
    flags = {}
    for i in range(m):
        norm_sq = sum(a * a for a in vs[i])
        if not nonzero(norm_sq):
            flags[i] = {"zero_vector"}
    return FrameGraph(m, edges, flags)


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


def _diameter(g: FrameGraph, connected: bool):
    if not connected:
        return None
    if g.vertex_count == 1:
        return 0
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


def _two_coloring(g: FrameGraph, comps):
    """Returns (is_bipartite, color dict, per-component part sizes)."""
    color = {}
    part_sizes = []
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
                    return False, {}, ()
        x = sum(1 for v in comp if color[v] == 0)
        part_sizes.append((x, len(comp) - x))
    return True, color, tuple(part_sizes)


def _bridges(g: FrameGraph):
    """Bridge edges by iterative DFS low-link."""
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
                # parallel edges are impossible in a simple graph, so the
                # single parent skip is safe
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append((min(pv, v), max(pv, v)))
        # root handled implicitly
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
    adj = [0] * n
    for (i, j) in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

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
    comps = _components(g)
    connected = len(comps) == 1
    diameter = _diameter(g, connected)
    bip, _, part_sizes = _two_coloring(g, comps)
    bridges = _bridges(g)
    leaves = tuple(v for v in range(m) if g.degree(v) == 1)
    is_complete = len(g.edges) == m * (m - 1) // 2
    is_empty = not g.edges
    is_cycle = connected and m >= 3 and all(g.degree(v) == 2 for v in range(m))

    cap_exceeded = m > vertex_cap
    alpha = mis = path_len = witness = None
    if not cap_exceeded:
        adj_masks = [0] * m
        for (i, j) in g.edges:
            adj_masks[i] |= 1 << j
            adj_masks[j] |= 1 << i
        mask = _max_independent_set_masks(adj_masks)
        mis = tuple(v for v in range(m) if mask >> v & 1)
        alpha = len(mis)
        path_len, witness = _longest_induced_path(g)

    return GraphStats(
        components=comps,
        is_connected=connected,
        diameter=diameter,
        is_bipartite=bip,
        component_part_sizes=part_sizes if bip else None,
        alpha=alpha,
        max_independent_set=mis,
        bridges=bridges,
        leaves=leaves,
        is_complete=is_complete,
        is_empty=is_empty,
        is_cycle=is_cycle,
        induced_path_vertices=path_len,
        induced_path_witness=witness,
        cap_exceeded=cap_exceeded,
    )


def balanced_bipartition_exists(g: FrameGraph) -> bool:
    """Whether some global bipartition (X, Y) of a bipartite graph has
    |X| = |Y|: a sign choice per component over part-size differences."""
    comps = _components(g)
    bip, _, part_sizes = _two_coloring(g, comps)
    if not bip:
        raise GraphError("graph is not bipartite")
    diffs = [x - y for (x, y) in part_sizes]
    sums = {0}
    for d in diffs:
        sums = {s + d for s in sums} | {s - d for s in sums}
    return 0 in sums


def unique_common_neighbor_pairs(g: FrameGraph):
    """All non-adjacent pairs u < v with exactly one common neighbor,
    returned as (u, v, witness)."""
    out = []
    for u, v in combinations(range(g.vertex_count), 2):
        if g.has_edge(u, v):
            continue
        common = g.neighbors(u) & g.neighbors(v)
        if len(common) == 1:
            out.append((u, v, min(common)))
    return out


def zero_pattern_equal(g1: FrameGraph, g2: FrameGraph) -> bool:
    """Index-aligned adjacency identity (not general graph isomorphism)."""
    if g1.vertex_count != g2.vertex_count:
        raise GraphError("vertex counts differ")
    return g1.edges == g2.edges


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
