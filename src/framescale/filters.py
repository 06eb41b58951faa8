"""Necessary-condition battery for frame scalability.

Each filter looks at the frame graph (plus the vector count m and ambient
dimension n) and can only ever prove NOT scalable or NOT strictly scalable;
none of them can certify scalability.  Every firing filter carries a
machine-checkable certificate (vertex/edge/set indices, 1-based in reports).
Every filter is a proved necessary condition and the combined verdict counts
them all; adjacent_dependence, flagged experimental, never gives a verdict.

The graph filters are the rows of one table, `_GRAPH_FILTERS`, in report
order: (id, the verdict it gives when it fires, its test, its citation).
A test `filter_<id>(g, m, n, stats)` holds the condition and its proof,
and returns one of four values:

- None when the filter does not apply;
- `_ALPHA_SKIPPED` or `_PATH_SKIPPED` when a search it needs was skipped at
  the vertex cap (so it does not apply, and says why);
- {} when it applies and does not fire;
- its certificate, a nonempty dict, when it fires.

One function, `_graph_report`, turns a row and its test's value into the
filter's `FilterReport`.

All the underlying graph conditions assume every vector is nonzero and has at
least one non-orthogonal partner (no zero-vector or isolated-vertex flags);
when that standing assumption fails the battery reports every filter as
inapplicable rather than risking an unsound verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .frames import Frame
from .graphs import (
    FrameGraph,
    GraphStats,
    balanced_bipartition_exists,
    compute_stats,
    mask_vertices,
    unique_common_neighbor_pairs,
)

NOT_SCALABLE = "not_scalable"
NOT_STRICTLY_SCALABLE = "not_strictly_scalable"
INCONCLUSIVE = "inconclusive"

_SEVERITY = {INCONCLUSIVE: 0, NOT_STRICTLY_SCALABLE: 1, NOT_SCALABLE: 2}


def strongest(verdicts) -> str:
    best = INCONCLUSIVE
    for v in verdicts:
        if _SEVERITY[v] > _SEVERITY[best]:
            best = v
    return best


class _FilterReportFields(NamedTuple):
    filter_id: str
    citation: str
    applicable: bool
    verdict: str
    certificate: dict
    experimental: bool
    warnings: tuple


class FilterReport(_FilterReportFields):
    """One filter's answer.  An inapplicable filter is inconclusive, and a
    verdict carries a certificate; `_replace` skips these checks, so it is
    not used on reports."""

    __slots__ = ()

    def __new__(cls, filter_id: str, citation: str, applicable: bool,
                verdict: str = INCONCLUSIVE, certificate: dict | None = None,
                experimental: bool = False, warnings: tuple = ()):
        if not applicable and verdict != INCONCLUSIVE:
            raise ValueError("inapplicable filters must be inconclusive")
        if verdict != INCONCLUSIVE and not certificate:
            raise ValueError("a verdict needs a certificate")
        if certificate is None:
            certificate = {}
        return super().__new__(cls, filter_id, citation, applicable, verdict,
                               certificate, experimental, warnings)


_ALPHA_SKIPPED = "independence number skipped: vertex cap exceeded"
_PATH_SKIPPED = "induced path search skipped: vertex cap exceeded"
_DISABLED = "disabled: graph has zero-vector or isolated-vertex flags"


def _v(i: int) -> int:
    """0-based vertex index to the 1-based labels used in reports."""
    return i + 1


def _edge(e) -> list:
    return [_v(e[0]), _v(e[1])]


def filter_square_nonempty(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> dict | str | None:
    """m = n: any scaling must keep all m vectors (spanning needs them all),
    and a tight frame of n vectors in R^n is an orthogonal basis, so its
    graph is edgeless.  An edge therefore rules out scalability outright."""
    if m != n:
        return None
    if stats.is_empty:
        return {}
    return {"edge": _edge(g.sorted_edges()[0])}


def filter_complete_codim1(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> dict | str | None:
    """m = n + 1: a Parseval frame of n+1 vectors in R^n has a complete
    graph, so a missing edge rules out strict scalability.  Implies
    `filter_alpha`: a missing edge is an independent pair, and 2 > m - n."""
    if m != n + 1:
        return None
    if stats.is_complete:
        return {}
    missing = next(
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if not g.has_edge(i, j)
    )
    return {"missing_edge": _edge(missing)}


def filter_alpha(g: FrameGraph, m: int, n: int,
                 stats: GraphStats) -> dict | str | None:
    """Independence-number bounds for Parseval frames: alpha <= m - n
    (via the complement construction, for m > n) and any independent set
    has at most m/2 vertices."""
    if stats.alpha is None:
        return _ALPHA_SKIPPED
    if not ((m > n and stats.alpha > m - n) or 2 * stats.alpha > m):
        return {}
    return {
        "independent_set": [_v(v) for v in stats.max_independent_set],
        "alpha": stats.alpha,
        "bounds": {"m_minus_n": m - n if m > n else None, "half_m": m / 2},
    }


def filter_diameter_codim2(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> dict | str | None:
    """m = n + 2, connected graph: a strictly scalable frame has a graph of
    diameter at most 2 (the complement lives in R^2).  Implies
    `filter_induced_path`: a shortest path between a pair at distance 3 is
    an induced path on 4 vertices, more than min(n, 2) + 1."""
    if m != n + 2 or not stats.is_connected:
        return None
    if stats.diameter is None or stats.diameter <= 2:
        return {}
    return {"distant_pair": _edge(_far_pair(g)), "diameter": stats.diameter}


def _far_pair(g: FrameGraph):
    """The smallest vertex s with a vertex at distance 3, and the smallest
    vertex t at distance 3 from s, by a BFS in layers over the masks."""
    masks = g.masks
    for s in range(g.vertex_count):
        seen = frontier = 1 << s
        for _ in range(3):
            reach = 0
            for v in mask_vertices(frontier):
                reach |= masks[v]
            frontier = reach ^ (reach & seen)
            seen |= frontier
        if frontier:
            return s, (frontier & -frontier).bit_length() - 1
    raise AssertionError("no pair at distance 3")


def filter_orthogonal_set_codim2(g: FrameGraph, m: int, n: int,
                                 stats: GraphStats) -> dict | str | None:
    """m = n + 2: a strictly scalable frame contains no 3 pairwise
    orthogonal vectors (no independent set of size 3).  Implies
    `filter_alpha`: three pairwise orthogonal vectors are an independent set
    of 3 > m - n."""
    if m != n + 2:
        return None
    if stats.alpha is None:
        return _ALPHA_SKIPPED
    if stats.alpha < 3:
        return {}
    triple = stats.max_independent_set[:3]
    return {"orthogonal_triple": [_v(v) for v in triple]}


def filter_bipartite_balance(g: FrameGraph, m: int, n: int,
                             stats: GraphStats) -> dict | str | None:
    """A bipartite graph of a Parseval frame admits a balanced bipartition;
    if no sign assignment over components balances the parts, the frame is
    not strictly scalable (odd m is the immediate special case).  Implies
    `filter_alpha`: every bipartition then has an independent side of more
    than m/2 vertices."""
    if (not stats.is_bipartite
            or balanced_bipartition_exists(stats.component_part_sizes)):
        return {}
    return {"component_part_sizes":
            [list(p) for p in stats.component_part_sizes]}


def filter_unique_common_neighbor(g: FrameGraph, m: int, n: int,
                                  stats: GraphStats) -> dict | str | None:
    """Two non-adjacent vertices with exactly one common neighbor contradict
    the idempotence of a Parseval Gram matrix.  Such a pair u, v and its
    common neighbour w lie on the path u-w-v, so in one component of at
    least 3 vertices; the filter applies when some component has that many,
    and fires on the first pair."""
    if all(len(c) < 3 for c in stats.components):
        return None
    for (u, v, w) in unique_common_neighbor_pairs(g):
        return {"pair": [_v(u), _v(v)], "common_neighbor": _v(w)}
    return {}


def filter_leaf_bridge(g: FrameGraph, m: int, n: int,
                       stats: GraphStats) -> dict | str | None:
    """A leaf vertex or bridge inside a component with >= 3 vertices rules
    out strict scalability.  Implies `filter_unique_common_neighbor`: for a
    leaf v, its neighbour w and another neighbour u of w, u and v are
    non-adjacent and w is their only common neighbour; for a bridge ab and
    another neighbour c of a, c and b are non-adjacent and a is their only
    common neighbour."""
    comps = [c for c in stats.components if len(c) >= 3]
    if not comps:
        return None
    big = set()
    for c in comps:
        big |= set(c)
    for v in stats.leaves:
        if v in big:
            return {"leaf": _v(v)}
    for e in stats.bridges:
        if e[0] in big:
            return {"bridge": _edge(e)}
    return {}


def filter_tree(g: FrameGraph, m: int, n: int,
                stats: GraphStats) -> dict | str | None:
    """Connected acyclic graph on >= 3 vertices: not strictly scalable.
    Implies `filter_leaf_bridge`: such a tree is one component of at least
    3 vertices, and it has a leaf."""
    if m < 3:
        return None
    if stats.is_connected and g.edge_count() == m - 1:
        return {"edge_count": m - 1, "connected": True}
    return {}


def filter_induced_path(g: FrameGraph, m: int, n: int,
                        stats: GraphStats) -> dict | str | None:
    """More than min(n, m - n) + 1 vertices on an induced path rule out
    strict scalability.  Proof: positive weights keep the graph, so scale to
    a Parseval frame.  Its Gram matrix P is a rank-n projection in R^(m x m)
    and I - P has rank m - n; off the diagonal both have the graph's
    pattern.  On the k path vertices, in path order, either is tridiagonal
    with k - 1 nonzero superdiagonal entries; without its first row and
    last column it is triangular with those entries on the diagonal, so
    k - 1 <= rank (minimum rank of a path; AIM Minimum Rank - Special Graphs
    Work Group, LAA 428 (2008) 1628-1648).  With m < n no Parseval frame
    exists and the filter does not apply."""
    if stats.induced_path_vertices is None:
        return _PATH_SKIPPED
    if m < n:
        return None
    threshold = min(n, m - n) + 1
    if stats.induced_path_vertices <= threshold:
        return {}
    return {
        "witness_path": [_v(v) for v in stats.induced_path_witness],
        "vertices": stats.induced_path_vertices,
        "threshold_vertices": threshold,
    }


def filter_cycle(g: FrameGraph, m: int, n: int,
                 stats: GraphStats) -> dict | str | None:
    """Cycle graph on m >= 7 vertices with n in {m-2, m-1, m}: not scalable
    at all (the three codimension cases covered by the cycle obstruction)."""
    if not (stats.is_cycle and m >= 7 and n in (m - 2, m - 1, m)):
        return None
    return {"cycle": [_v(v) for v in _cycle_order(g)]}


def _cycle_order(g: FrameGraph):
    """The cycle from vertex 0, each step to the lower neighbour other than
    the vertex it came from."""
    masks = g.masks
    order, back = [0], 0
    while len(order) < g.vertex_count:
        v = order[-1]
        nxt = masks[v] ^ back  # back, the vertex before v, is a neighbour
        order.append((nxt & -nxt).bit_length() - 1)
        back = 1 << v
    return order


def filter_adjacent_dependence(frame: Frame, g: FrameGraph) -> FilterReport:
    """Data-quality check, not a scalability condition: adjacent parallel
    vectors must have identical closed neighborhoods.  A violation points at
    a misconfigured adjacency tolerance, so only float frames are checked:
    if f_j = c f_i with c != 0, then <f_j, f_k> = c <f_i, f_k> for every k,
    and exact adjacency gives f_i and f_j the same closed neighborhood."""
    fid, cite = "adjacent_dependence", (
        "adjacent parallel vectors force identical closed neighborhoods; "
        "disagreement signals a tolerance problem"
    )
    if frame.is_exact:
        return FilterReport(fid, cite, applicable=True, experimental=True)
    # closed neighbourhoods first: parallelism is tested only on the edges
    # whose ends disagree, in the order of the sorted edge list
    closed = [mask | 1 << v for v, mask in enumerate(g.masks)]
    same = {}
    for v, c in enumerate(closed):
        same[c] = same.get(c, 0) | 1 << v
    vectors = frame.vectors
    warnings = []
    for i, mask in enumerate(g.masks):
        later = mask >> (i + 1) << (i + 1)
        for j in mask_vertices(later ^ (later & same[closed[i]])):
            if _parallel(vectors[i], vectors[j]):
                warnings.append(
                    f"parallel adjacent vectors v{_v(i)}, v{_v(j)} have "
                    f"different closed neighborhoods; check tol_zero"
                )
    return FilterReport(
        fid, cite, applicable=True, experimental=True, warnings=tuple(warnings)
    )


def _parallel(u, v) -> bool:
    """All 2x2 minors of the float vectors u, v vanish, within 1e-12 times
    max|u_p| * max|v_q|, which bounds every product in a minor: a tolerance
    on the larger vector alone would call it parallel to every small one."""
    tol = 1e-12 * max(map(abs, u)) * max(map(abs, v))
    return all(
        abs(u[p] * v[q] - u[q] * v[p]) <= tol
        for p in range(len(u))
        for q in range(p + 1, len(u))
    )


# (id, verdict when it fires, test, citation), in report order
_GRAPH_FILTERS = (
    ("square_nonempty", NOT_SCALABLE, filter_square_nonempty,
     "a tight frame of n vectors in R^n has an edgeless graph; with m = n "
     "no vector can be dropped without losing spanning"),
    ("complete_codim1", NOT_STRICTLY_SCALABLE, filter_complete_codim1,
     "a Parseval frame of n+1 vectors in R^n has all pairwise inner "
     "products nonzero (complete graph)"),
    ("alpha", NOT_STRICTLY_SCALABLE, filter_alpha,
     "independent vertices of a Parseval frame are pairwise orthogonal: "
     "alpha <= m - n when m > n, and any independent set has <= m/2 vertices"),
    ("diameter_codim2", NOT_STRICTLY_SCALABLE, filter_diameter_codim2,
     "a connected graph of a strictly scalable frame of n+2 vectors in "
     "R^n has diameter <= 2"),
    ("orthogonal_set_codim2", NOT_STRICTLY_SCALABLE,
     filter_orthogonal_set_codim2,
     "a strictly scalable frame of n+2 vectors in R^n has no three "
     "pairwise orthogonal vectors"),
    ("bipartite_balance", NOT_STRICTLY_SCALABLE, filter_bipartite_balance,
     "a bipartite Parseval frame graph has a bipartition with |X| = |Y|"),
    ("unique_common_neighbor", NOT_STRICTLY_SCALABLE,
     filter_unique_common_neighbor,
     "non-adjacent vectors of a Parseval frame never share exactly one "
     "common neighbor"),
    ("leaf_bridge", NOT_STRICTLY_SCALABLE, filter_leaf_bridge,
     "a component with >= 3 vertices containing a leaf or a bridge cannot "
     "come from a strictly scalable frame"),
    ("tree", NOT_STRICTLY_SCALABLE, filter_tree,
     "a tree on >= 3 vertices is never the graph of a strictly scalable "
     "frame"),
    ("cycle", NOT_SCALABLE, filter_cycle,
     "a frame of m >= 7 vectors whose graph is the m-cycle is not "
     "scalable when the ambient dimension is m, m-1 or m-2"),
    ("induced_path", NOT_STRICTLY_SCALABLE, filter_induced_path,
     "the Gram matrix P of a Parseval frame and I - P have ranks n and "
     "m - n and the graph's off-diagonal pattern; an induced path on k "
     "vertices forces rank >= k - 1, so k <= min(n, m - n) + 1"),
)


def _graph_report(row, result) -> FilterReport:
    """The report of a `_GRAPH_FILTERS` row from its test's return value:
    None or a skip warning (inapplicable), {} (applies, inconclusive) or a
    certificate (the row's verdict)."""
    fid, verdict, _, cite = row
    if result is None:
        return FilterReport(fid, cite, applicable=False)
    if isinstance(result, str):
        return FilterReport(fid, cite, applicable=False, warnings=(result,))
    return FilterReport(fid, cite, applicable=True,
                        verdict=verdict if result else INCONCLUSIVE,
                        certificate=result)


class FilterBattery(NamedTuple):
    reports: tuple
    combined_verdict: str
    warnings: tuple


def run_all_filters(g: FrameGraph, n: int, frame: Frame | None = None,
                    stats: GraphStats | None = None) -> FilterBattery:
    """Run the battery in its fixed order and combine verdicts."""
    m = g.vertex_count
    if stats is None:
        stats = compute_stats(g)

    warnings = []
    if g.has_flagged_vertices():
        detail = ", ".join(
            f"v{_v(v)}({'/'.join(flags)})"
            for v in range(m) if (flags := g.flags(v))
        )
        warnings.append(
            "standing assumption violated (zero or isolated vectors: "
            f"{detail}); scalability filters disabled"
        )
        reports = [FilterReport(fid, _DISABLED, applicable=False)
                   for fid, *_ in _GRAPH_FILTERS]
    else:
        reports = [_graph_report(row, row[2](g, m, n, stats))
                   for row in _GRAPH_FILTERS]

    if frame is not None:
        reports.append(filter_adjacent_dependence(frame, g))

    for r in reports:
        warnings.extend(r.warnings)

    combined = strongest(r.verdict for r in reports)
    return FilterBattery(tuple(reports), combined, tuple(warnings))
