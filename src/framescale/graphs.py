"""Frame graphs and the exact graph statistics the scalability filters consume.

The frame graph puts an edge between two vectors exactly when their inner
product is nonzero (above ``tol_zero`` in float mode, exactly nonzero in
exact mode).  A float inner product is the left-to-right sum of the rounded
products; `build_graph` screens each pair from the vectors' squared norms
and one ``math.dist``, with a proven bound on the screen's error, and sums
the products only for the pairs within that bound of ``tol_zero``, so the
edges are those of the pairwise rule.  A graph holds the adjacency
bitmasks it builds once (``FrameGraph.masks``) and one bitmask of the zero
vectors (``FrameGraph.zero_vectors``); a vertex's flags, isolated or
zero_vector, are read off those two.  Every constructor builds
symmetric masks itself, so no mask is checked after it is built.  All
statistics are computed exactly, from the adjacency bitmasks.  The two
exponential searches, independence number and longest induced path, run
up to DEFAULT_VERTEX_CAP vertices as branch and bound over bitmasks:

- maximum independent set: a subtree is cut when its candidates, counted
  one by one or as the cliques of a greedy clique cover (an independent
  set meets each clique at most once), cannot beat the best size so far;
  the best size starts at g - 1, g the size of the greedy independent set
  taken in ascending (degree, index) order;
- longest induced path: the vertices are ranked by (degree, index), and
  each path is met once, rooted at its lowest-ranked vertex v with two arms
  leaving v; a node whose arms can still take their own free neighbours
  C_A and C_B and the shared free vertices R bounds its paths by
  1 + |A| + |B| + [C_A] + [C_B] + |R|, since the step to one vertex of C_A
  blocks the rest of C_A.  A step to a vertex with no free neighbour and
  no B head left closes both ends: its one path is kept or dropped in
  place, without a call.

Both replace a best only by a strictly larger one and cut a subtree only
when its bound is at most the best so far.  So each witness is the first
maximum of its search order: every ancestor of that maximum has a bound
at least its size, above the best found before it, so no cut removes it.
The greedy start keeps this true, since g <= alpha puts it below alpha;
a start at g would cut every set when g = alpha.  The independent set is
the first maximum of the plain DFS in its branching order; the path is
the first longest path in rank order, written from its end of smaller
index.  Both depend on the masks alone.

A set difference x - y is written x ^ y when y is a subset of x, and
x ^ (x & y) otherwise, never x & ~y: ~y is a negative int, and CPython
takes a slower path for bitwise operations on negative ints.  For the
same reason the vertices of x above i are x >> (i + 1) << (i + 1), not
x & -(2 << i).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import accumulate, combinations, compress, repeat
from math import dist
from operator import mul, sub
from typing import NamedTuple

from .frames import Frame
from .linalg import ordered_sum

DEFAULT_VERTEX_CAP = 32
DEFAULT_TOL_ZERO = 1e-10  # float adjacency threshold

# The float screen of build_graph: unit roundoff, the smallest normal
# float, and the caps above which a row takes the exact test throughout.
_UNIT, _TINY = 2.0 ** -53, 2.0 ** -1022
_SCREEN_MAX, _DIST_MAX = 2.0 ** 1000, 2.0 ** 511
# bisect_left over a row's four bounds gives 0-4: 0 and 4 are edges, 2 is
# not, and 1 and 3 are left to the exact test
_SCREEN_EDGE = bytes.maketrans(b"\0\1\2\3\4", b"10001")
_SCREEN_OPEN = bytes.maketrans(b"\0\1\2\3\4", b"\0\1\0\1\0")


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

    ``masks[v]`` is the neighbourhood of v as a bitmask, built once; it is
    the graph's only adjacency, and the statistics, the filters and the
    reports all read it.  Bit v of ``zero_vectors`` is set when vector v of
    the frame the graph was built from is zero; ``flags(v)`` reads a
    vertex's flags off these two, and graphs are equal when both are (see
    `zero_pattern_equal` for the adjacency alone).  ``edges`` lists the
    edges (i, j), i < j, in ascending order, whatever order the constructor
    was given them in, so no certificate depends on that order: the
    diameter filter's distant pair, for one, is the smallest vertex s with
    a vertex at distance 3, and the smallest vertex t at distance 3 from s.
    """

    __slots__ = ("vertex_count", "masks", "zero_vectors")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 1:
            raise GraphError("need at least one vertex")
        masks = [0] * vertex_count
        for (i, j) in edges:
            if i == j:
                raise GraphError(f"loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise GraphError(f"edge ({i},{j}) out of range")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.vertex_count = vertex_count
        self.masks = tuple(masks)
        self.zero_vectors = 0

    @classmethod
    def _unchecked(cls, masks, zero_vectors: int = 0) -> "FrameGraph":
        """Graph on ``masks`` whose vertex v is flagged ``zero_vector`` when
        bit v of ``zero_vectors`` is set.  It checks nothing: every caller
        builds masks that are a graph (each below 2**m, no bit v in
        ``masks[v]``, bit u of ``masks[v]`` set exactly when bit v of
        ``masks[u]`` is) by construction."""
        g = cls.__new__(cls)
        g.vertex_count = len(masks)
        g.masks = tuple(masks)
        g.zero_vectors = zero_vectors
        return g

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def has_edge(self, i: int, j: int) -> bool:
        m = self.vertex_count
        return 0 <= i < m and 0 <= j < m and bool(self.masks[i] >> j & 1)

    def sorted_edges(self) -> list:
        return [(i, j) for i, mask in enumerate(self.masks)
                for j in mask_vertices(mask >> (i + 1) << (i + 1))]

    edges = property(sorted_edges)

    def flags(self, v: int) -> list:
        """The sorted flag names of vertex v: "isolated" when it has no
        neighbour, "zero_vector" when its vector is zero.  A float vector
        with <u, u> <= tol_zero is flagged, yet can keep an edge."""
        out = [] if self.masks[v] else ["isolated"]
        if self.zero_vectors >> v & 1:
            out.append("zero_vector")
        return out

    def has_flagged_vertices(self) -> bool:
        return bool(self.zero_vectors) or not all(self.masks)

    def __eq__(self, other):
        if not isinstance(other, FrameGraph):
            return NotImplemented
        return ((self.vertex_count, self.masks, self.zero_vectors)
                == (other.vertex_count, other.masks, other.zero_vectors))

    def __hash__(self):
        return hash((self.vertex_count, self.masks, self.zero_vectors))

    def __repr__(self):
        return f"FrameGraph(m={self.vertex_count}, edges={self.edge_count()})"


def build_graph(frame: Frame,
                tol_zero: float = DEFAULT_TOL_ZERO) -> FrameGraph:
    """Edge (i,j) iff |<f_i, f_j>| exceeds tol_zero, a finite number >= 0.
    On an exact frame the edge means <f_i, f_j> != 0, whatever tol_zero is,
    and its edges and zero vectors are read off `Frame.exact_gram`.
    Vector i is flagged zero_vector when <f_i, f_i> is not above tol_zero
    (above 0 on an exact frame).

    On a float frame <f_i, f_j> is the float x_ij that `ordered_sum` adds
    left to right from the rounded products, the same bits on every
    interpreter, and the edge test is ``x > t or x < -t`` for t = tol_zero.
    That exact test decides only the pairs a screen leaves open.  Row i is
    screened from N_j = x_jj, already summed for the zero flags, and
    d_ij = math.dist(f_i, f_j), one C call per pair: a_ij = N_i + N_j -
    d_ij**2 is 2<f_i, f_j> up to rounding, and with

        sigma_i = 2*((2n + 48)*u*(N_i + M_i + t) + (n + 8)*2**-1022),

    u = 2**-53 and M_i the largest N_j over j > i, a pair with |a_ij| >=
    2t + sigma_i is an edge and one with |a_ij| <= 2t - sigma_i is not.

    Why: write S = |f_i|**2 + |f_j|**2 and eta = 2**-1074.  A float sum of
    n rounded products errs by at most gamma_n*sum|u_k v_k| + n*eta,
    gamma_n = n*u/(1 - n*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1; a product below the normal range errs by eta/2 at
    most, a sum is exact there), so |x_ij - <f_i, f_j>| <= gamma_n*S/2 +
    n*eta and |N_i - |f_i|**2| <= gamma_n*|f_i|**2 + n*eta.  math.dist is
    only assumed to return |f_i - f_j|*(1 + theta) + e with |theta| <= 8u
    and |e| <= eta: each difference rounds by u at most and CPython's norm
    is good to about one ulp, so correct rounding is not needed.  Then
    d**2 rounded is within 38.2u*S + 1.01eta of |f_i - f_j|**2 <= 2S, the
    identity |f_i|**2 + |f_j|**2 - |f_i - f_j|**2 = 2<f_i, f_j> gives
    |a_ij - 2<f_i, f_j>| <= (gamma_n + 41.3u)*S + (2n + 2)*eta, and so
    |a_ij - 2x_ij| <= (2n + 43)*u*S + (4n + 2)*eta.  With S <= (1 +
    2gamma_n)*(N_i + M_i) + 4n*eta that is at most sigma_i/2 - 4u*(N_i +
    M_i) - (2n + 48)*u*t for n <= 2**24, which leaves room for the
    rounding of the bounds below: |a_ij| >= 2t + sigma_i then gives |2x_ij|
    > 2t, and |a_ij| <= 2t - sigma_i gives |2x_ij| < 2t.  The code
    compares b = N_j - d**2 with the four bounds -+(2t + sigma_i) - N_i
    and -+l - N_i, l = max(2t - sigma_i, 0), with one bisect per pair;
    when l = 0 (t = 0 among others) no pair is a proven non-edge, and every
    pair with |a_ij| < 2t + sigma_i takes the exact test.  A row with N_i
    + M_i + t above 2**1000, or distances summing to 2**511 or more, takes
    the exact test throughout, so every N, d, b and bound screened is
    finite.  So the screen keeps every edge the exact test gives.

    Rows are written as ASCII 0/1 bytes into row i and column i of an m x
    m matrix, so row i read backwards is vertex i's mask in binary, and no
    Python step runs per screened pair."""
    if not 0 <= tol_zero <= sys.float_info.max:  # NaN fails both
        raise GraphError("tol_zero must be a finite number >= 0")
    m = frame.count
    gram = frame.exact_gram
    if gram is not None:
        # bit i of row i's sum is set when its diagonal entry is nonzero
        masks = [sum(1 << j for j, x in enumerate(row) if x)
                 ^ (bool(row[i]) << i) for i, row in enumerate(gram)]
        zero = sum(1 << i for i, row in enumerate(gram) if not row[i])
        return FrameGraph._unchecked(masks, zero)
    vs = frame.vectors
    norms = [ordered_sum(map(mul, u, u)) for u in vs]
    # a sum of squares is never < 0
    zero = sum(1 << i for i, x in enumerate(norms) if not x > tol_zero)
    tops = list(accumulate(reversed(norms), max))[::-1]  # max(norms[j:])
    two_t = 2 * tol_zero
    rel, floor = (2 * frame.dim + 48) * _UNIT, (frame.dim + 8) * _TINY
    adj = bytearray(b"0" * (m * m))
    for i, u in enumerate(vs[:-1]):
        pairs = range(i + 1, m)
        s = norms[i] + tops[i + 1] + tol_zero
        if s <= _SCREEN_MAX:
            d = list(map(dist, repeat(u), vs[i + 1:]))
            if sum(d) < _DIST_MAX:
                sigma, ni = 2 * (rel * s + floor), norms[i]
                far, near = two_t + sigma, max(two_t - sigma, 0.0)
                codes = bytes(map(bisect_left,
                                  repeat((-far - ni, -near - ni,
                                          near - ni, far - ni)),
                                  map(sub, norms[i + 1:], map(mul, d, d))))
                row = codes.translate(_SCREEN_EDGE)
                adj[i * m + i + 1:(i + 1) * m] = row
                adj[(i + 1) * m + i::m] = row
                pairs = compress(pairs, codes.translate(_SCREEN_OPEN))
        for j in pairs:
            x = ordered_sum(map(mul, u, vs[j]))
            if x > tol_zero or x < -tol_zero:
                adj[i * m + j] = adj[j * m + i] = 49  # b"1"
    masks = [int(adj[r:r + m][::-1], 2) for r in range(0, m * m, m)]
    return FrameGraph._unchecked(masks, zero)


class GraphStats(NamedTuple):
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
            frontier = reach ^ (reach & comp)
            comp |= frontier
            parity ^= 1
            sides[parity] |= frontier
        left ^= comp
        comps.append(tuple(mask_vertices(comp)))
        if parts is not None:
            parts.append((sides[0].bit_count(), sides[1].bit_count()))
    return tuple(comps), None if parts is None else tuple(parts)


def _diameter(g: FrameGraph) -> int:
    """Diameter of a connected graph: the most BFS layers from any vertex.
    A layer stops reading its frontier once it has reached every vertex,
    which on dense graphs is after a vertex or two."""
    masks = g.masks
    full = (1 << g.vertex_count) - 1
    best = 0
    for src in range(g.vertex_count):
        seen = frontier = 1 << src
        d = 0
        while seen != full:
            reach = seen
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= masks[low.bit_length() - 1]
                if reach == full:
                    break
            frontier = reach ^ seen
            seen = reach
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
                sub, r = subtree[v], reach[v]
                if (r ^ (r & sub) == 1 << p
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
    them, cannot beat the best size so far.  The best size starts one below
    the size g of a greedy independent set, taken in ascending (degree,
    index) order: g <= alpha, so a maximum set still replaces it.
    """
    degrees = list(map(int.bit_count, adj_masks))
    greedy = blocked = 0
    for v in sorted(range(len(adj_masks)), key=degrees.__getitem__):
        if not blocked >> v & 1:
            greedy += 1
            blocked |= adj_masks[v]
    best_size, best_mask = greedy - 1, 0

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
        grow(candidates ^ (candidates & (bit | adj_masks[pick])),
             chosen | bit, size + 1)
        grow(candidates ^ bit, chosen, size)

    grow((1 << len(adj_masks)) - 1, 0, 0)
    return best_mask


def _longest_induced_path(g: FrameGraph):
    """Longest induced path as (vertex count, witness tuple), exact.

    The vertices are ranked by (degree, index), ascending, and one search
    meets every induced path once, from its lowest-ranked vertex v (the
    root):

    - arm A leaves v at a neighbour a ranked above v;
    - arm B, possibly empty, leaves v at a neighbour b ranked above a and
      adjacent to no vertex of A;
    - both arms grow through the free vertices: those ranked above v and
      adjacent to neither v nor an arm vertex, except that a neighbour of
      an arm's endpoint may extend that arm.

    Roots, heads and arm steps go in rank order, and at each end of A the
    search meets the path itself, then every B arm, then the longer A arms.
    A path of 1 + |A| + |B| vertices whose arm endpoints still have the free
    neighbours C_A and C_B (the possible heads of B while B is empty), with
    R the other free vertices, extends to at most
    1 + |A| + |B| + [C_A] + [C_B] + |R| vertices, since an arm that steps
    to one vertex of its C blocks the rest of it.  A subtree is cut when
    this bound is at most the best length found so far, and only a strictly
    longer path replaces the best.

    The witness is the first longest path in this order, written from its
    end of smaller index.  No cut removes it: until it is met the best
    length is below its length L, while every bound on the way to it is at
    least L.  So it is also the first longest path of the same order
    searched without cuts, and it depends on the masks alone.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    adj = g.masks
    degrees = [mask.bit_count() for mask in adj]
    order = range(n)
    if degrees != sorted(degrees):
        order = sorted(order, key=degrees.__getitem__)
        # bit s of the relabelled mask of rank r is bit order[s] of
        # adj[order[r]].  With row r in bits n*r.., one shift and one mask
        # move a column of every row at once.
        rows = 0
        for v in reversed(order):
            rows = rows << n | adj[v]
        column = ((1 << n * n) - 1) // full  # bit 0 of every row
        moved = 0
        for s, v in enumerate(order):
            moved |= (rows >> v & column) << s
        adj = [moved >> k & full for k in range(0, n * n, n)]

    # the arms are stacks from the root out; keep copies a longer path, B
    # reversed (from b_end, the B vertex being tried, if any), the root, A
    length, best = 1, [0]
    a_arm, b_arm = [], []

    def keep(b_end):
        nonlocal length, best
        best = [*b_end, *reversed(b_arm), root, *a_arm]
        length = len(best)

    def grow_b(cand, rest, size):
        """Grow B from an endpoint whose free neighbours are cand, on a
        path of size vertices."""
        size += 1
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            if size > length:
                keep((x,))
            nxt = adj[x] & rest
            if nxt:
                rest2 = rest ^ nxt
                if size + 1 + rest2.bit_count() > length:
                    b_arm.append(x)
                    grow_b(nxt, rest2, size)
                    b_arm.pop()

    def grow_a(cand, rest, heads, size):
        """Close A, on a path of size vertices, and try every B head; then
        grow A through cand."""
        if size > length:
            keep(())
        if size + 1 + rest.bit_count() > length:
            b_heads = heads
            while b_heads:
                low = b_heads & -b_heads
                b_heads ^= low
                b = low.bit_length() - 1
                if size + 1 > length:
                    keep((b,))
                nxt = adj[b] & rest
                if nxt:
                    rest2 = rest ^ nxt
                    if size + 2 + rest2.bit_count() > length:
                        b_arm.append(b)
                        grow_b(nxt, rest2, size + 1)
                        b_arm.pop()
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            nbrs = adj[x]
            nxt = nbrs & rest
            hb = heads ^ (heads & nbrs)
            if not (nxt or hb):
                # a closed end: the path plus x is all this step gives
                if size + 1 > length:
                    a_arm.append(x)
                    keep(())
                    a_arm.pop()
                continue
            rest2 = rest ^ nxt
            if size + 1 + (nxt != 0) + (hb != 0) + rest2.bit_count() > length:
                a_arm.append(x)
                grow_a(nxt, rest2, hb, size + 1)
                a_arm.pop()

    # G[{c, ..., n-1}] is a clique, so no path rooted at v >= c beats the
    # edge (v, v + 1); this keeps complete graphs at O(n)
    c = n - 1
    while c and adj[c - 1] >> c == full >> c:
        c -= 1
    for root in range(n):
        if n - root <= length:
            break
        if root >= c:
            if length < 2:
                length, best = 2, [root, root + 1]
            break
        above = full >> (root + 1) << (root + 1)
        heads = adj[root] & above
        free = above ^ heads
        # a path rooted here holds at most 2 + |free| vertices with one arm,
        # and one more with two
        one_arm = 2 + free.bit_count()
        while heads:
            if one_arm + (heads & (heads - 1) != 0) <= length:
                break
            low = heads & -heads
            heads ^= low
            a = low.bit_length() - 1
            nbrs = adj[a]
            hb = heads ^ (heads & nbrs)
            nxt = nbrs & free
            rest = free ^ nxt
            if 2 + (nxt != 0) + (hb != 0) + rest.bit_count() > length:
                a_arm.append(a)
                grow_a(nxt, rest, hb, 2)
                a_arm.pop()

    path = [order[v] for v in best]
    if path[-1] < path[0]:
        path.reverse()
    return length, tuple(path)


def compute_stats(g: FrameGraph) -> GraphStats:
    """All graph statistics, computed exactly.

    The exponential searches (alpha, longest induced path) are skipped and
    reported as None with cap_exceeded=True when vertex_count is above
    DEFAULT_VERTEX_CAP.
    """
    m = g.vertex_count
    comps, part_sizes = _components(g)
    connected = len(comps) == 1
    degrees = [mask.bit_count() for mask in g.masks]
    edge_count = sum(degrees) // 2

    cap_exceeded = m > DEFAULT_VERTEX_CAP
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


def balanced_bipartition_exists(part_sizes) -> bool:
    """Whether some global bipartition (X, Y) of a bipartite graph has
    |X| = |Y|, given the per-component part sizes of its colour classes
    (``GraphStats.component_part_sizes``): a sign choice per component over
    part-size differences."""
    if part_sizes is None:
        raise GraphError("graph is not bipartite")
    diffs = [x - y for (x, y) in part_sizes]
    sums = {0}
    for d in diffs:
        sums = {s + d for s in sums} | {s - d for s in sums}
    return 0 in sums


def unique_common_neighbor_pairs(g: FrameGraph):
    """A generator of the non-adjacent pairs u < v with exactly one common
    neighbour w, as (u, v, w), by u and then v ascending."""
    masks = g.masks
    full = (1 << g.vertex_count) - 1
    for u, mu in enumerate(masks):
        for v in mask_vertices((full ^ mu) >> (u + 1) << (u + 1)):
            common = mu & masks[v]
            if common and not common & (common - 1):
                yield u, v, common.bit_length() - 1


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
        flags = [f for f in g.flags(v) if f != "isolated"]
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
    return FrameGraph._unchecked(
        g1.masks + tuple(mask << off for mask in g2.masks))


def graph_join(g1: FrameGraph, g2: FrameGraph) -> FrameGraph:
    """The union plus every edge between a vertex of g1 and one of g2."""
    off = g1.vertex_count
    low, high = (1 << off) - 1, ((1 << g2.vertex_count) - 1) << off
    return FrameGraph._unchecked(
        tuple(mask | high for mask in g1.masks)
        + tuple(mask << off | low for mask in g2.masks))
