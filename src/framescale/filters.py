"""Necessary-condition battery for frame scalability.

Each filter looks at the frame graph (plus the vector count m and ambient
dimension n) and can only ever prove NOT scalable or NOT strictly scalable;
none of them can certify scalability.  Every firing filter carries a
machine-checkable certificate (vertex/edge/set indices, 1-based in reports).

All the underlying graph conditions assume every vector is nonzero and has at
least one non-orthogonal partner (no zero-vector or isolated-vertex flags);
when that standing assumption fails the battery reports every filter as
inapplicable rather than risking an unsound verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import sign
from .frames import Frame, integer_vectors
from .graphs import (
    DEFAULT_VERTEX_CAP,
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


@dataclass(frozen=True)
class FilterConfig:
    vertex_cap: int = DEFAULT_VERTEX_CAP
    enable_experimental: bool = False
    induced_path_offset: int = 2  # slack on top of floor(n/2), see filter doc


@dataclass(frozen=True)
class FilterReport:
    filter_id: str
    citation: str
    applicable: bool
    verdict: str = INCONCLUSIVE
    certificate: dict = field(default_factory=dict)
    experimental: bool = False
    warnings: tuple = ()

    def __post_init__(self):
        if not self.applicable and self.verdict != INCONCLUSIVE:
            raise ValueError("inapplicable filters must be inconclusive")
        if self.verdict != INCONCLUSIVE and not self.certificate:
            raise ValueError("a verdict needs a certificate")


def _v(i: int) -> int:
    """0-based vertex index to the 1-based labels used in reports."""
    return i + 1


def _edge(e) -> list:
    return [_v(e[0]), _v(e[1])]


def filter_square_nonempty(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> FilterReport:
    """m = n: any scaling must keep all m vectors (spanning needs them all),
    and a tight frame of n vectors in R^n is an orthogonal basis, so its
    graph is edgeless.  An edge therefore rules out scalability outright."""
    fid, cite = "square_nonempty", (
        "a tight frame of n vectors in R^n has an edgeless graph; with m = n "
        "no vector can be dropped without losing spanning"
    )
    if m != n:
        return FilterReport(fid, cite, applicable=False)
    if stats.is_empty:
        return FilterReport(fid, cite, applicable=True)
    edge = g.sorted_edges()[0]
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_SCALABLE,
        certificate={"edge": _edge(edge)},
    )


def filter_complete_codim1(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> FilterReport:
    """m = n + 1: a Parseval frame of n+1 vectors in R^n has a complete
    graph, so a missing edge rules out strict scalability."""
    fid, cite = "complete_codim1", (
        "a Parseval frame of n+1 vectors in R^n has all pairwise inner "
        "products nonzero (complete graph)"
    )
    if m != n + 1:
        return FilterReport(fid, cite, applicable=False)
    if stats.is_complete:
        return FilterReport(fid, cite, applicable=True)
    missing = next(
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if not g.has_edge(i, j)
    )
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        certificate={"missing_edge": _edge(missing)},
    )


def filter_alpha(g: FrameGraph, m: int, n: int,
                 stats: GraphStats) -> FilterReport:
    """Independence-number bounds for Parseval frames: alpha <= m - n
    (via the complement construction, for m > n) and any independent set
    has at most m/2 vertices."""
    fid, cite = "alpha", (
        "independent vertices of a Parseval frame are pairwise orthogonal: "
        "alpha <= m - n when m > n, and any independent set has <= m/2 vertices"
    )
    if stats.alpha is None:
        return FilterReport(
            fid, cite, applicable=False,
            warnings=("independence number skipped: vertex cap exceeded",),
        )
    fires = (m > n and stats.alpha > m - n) or 2 * stats.alpha > m
    if not fires:
        return FilterReport(fid, cite, applicable=True)
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        certificate={
            "independent_set": [_v(v) for v in stats.max_independent_set],
            "alpha": stats.alpha,
            "bounds": {"m_minus_n": m - n if m > n else None, "half_m": m / 2},
        },
    )


def filter_diameter_codim2(g: FrameGraph, m: int, n: int,
                           stats: GraphStats) -> FilterReport:
    """m = n + 2, connected graph: a strictly scalable frame has a graph of
    diameter at most 2 (the complement lives in R^2)."""
    fid, cite = "diameter_codim2", (
        "a connected graph of a strictly scalable frame of n+2 vectors in "
        "R^n has diameter <= 2"
    )
    if m != n + 2 or not stats.is_connected:
        return FilterReport(fid, cite, applicable=False)
    if stats.diameter is None or stats.diameter <= 2:
        return FilterReport(fid, cite, applicable=True)
    pair = _far_pair(g, 3)
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        certificate={"distant_pair": _edge(pair), "diameter": stats.diameter},
    )


def _far_pair(g: FrameGraph, at_least: int):
    # the pair found first follows the iteration order of the neighbour sets
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
                        if d >= at_least:
                            return (src, w)
                        nxt.append(w)
            frontier = nxt
    raise AssertionError("no pair at the requested distance")


def filter_orthogonal_set_codim2(g: FrameGraph, m: int, n: int,
                                 stats: GraphStats) -> FilterReport:
    """m = n + 2: a strictly scalable frame contains no 3 pairwise
    orthogonal vectors (no independent set of size 3)."""
    fid, cite = "orthogonal_set_codim2", (
        "a strictly scalable frame of n+2 vectors in R^n has no three "
        "pairwise orthogonal vectors"
    )
    if m != n + 2:
        return FilterReport(fid, cite, applicable=False)
    if stats.alpha is None:
        return FilterReport(
            fid, cite, applicable=False,
            warnings=("independence number skipped: vertex cap exceeded",),
        )
    if stats.alpha < 3:
        return FilterReport(fid, cite, applicable=True)
    triple = stats.max_independent_set[:3]
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        certificate={"orthogonal_triple": [_v(v) for v in triple]},
    )


def filter_bipartite_balance(g: FrameGraph, m: int, n: int,
                             stats: GraphStats) -> FilterReport:
    """A bipartite graph of a Parseval frame admits a balanced bipartition;
    if no sign assignment over components balances the parts, the frame is
    not strictly scalable (odd m is the immediate special case)."""
    fid, cite = "bipartite_balance", (
        "a bipartite Parseval frame graph has a bipartition with |X| = |Y|"
    )
    if not stats.is_bipartite:
        return FilterReport(fid, cite, applicable=True)
    if balanced_bipartition_exists(g):
        return FilterReport(fid, cite, applicable=True)
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        certificate={
            "component_part_sizes": [list(p) for p in stats.component_part_sizes],
        },
    )


def filter_unique_common_neighbor(g: FrameGraph, m: int, n: int,
                                  stats: GraphStats) -> FilterReport:
    """Two non-adjacent vertices with exactly one common neighbor contradict
    the idempotence of a Parseval Gram matrix; checked per component with at
    least 3 vertices."""
    fid, cite = (
        "unique_common_neighbor",
        "non-adjacent vectors of a Parseval frame never share exactly one "
        "common neighbor",
    )
    comps = [c for c in stats.components if len(c) >= 3]
    if not comps:
        return FilterReport(fid, cite, applicable=False)
    comp_of = {}
    for c in comps:
        for v in c:
            comp_of[v] = c
    for (u, v, w) in unique_common_neighbor_pairs(g):
        if u in comp_of and comp_of[u] is comp_of.get(v):
            return FilterReport(
                fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
                certificate={"pair": [_v(u), _v(v)], "common_neighbor": _v(w)},
            )
    return FilterReport(fid, cite, applicable=True)


def filter_leaf_bridge(g: FrameGraph, m: int, n: int,
                       stats: GraphStats) -> FilterReport:
    """A leaf vertex or bridge inside a component with >= 3 vertices rules
    out strict scalability."""
    fid, cite = "leaf_bridge", (
        "a component with >= 3 vertices containing a leaf or a bridge cannot "
        "come from a strictly scalable frame"
    )
    comps = [c for c in stats.components if len(c) >= 3]
    if not comps:
        return FilterReport(fid, cite, applicable=False)
    big = set()
    for c in comps:
        big |= set(c)
    for v in stats.leaves:
        if v in big:
            return FilterReport(
                fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
                certificate={"leaf": _v(v)},
            )
    for e in stats.bridges:
        if e[0] in big:
            return FilterReport(
                fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
                certificate={"bridge": _edge(e)},
            )
    return FilterReport(fid, cite, applicable=True)


def filter_tree(g: FrameGraph, m: int, n: int,
                stats: GraphStats) -> FilterReport:
    """Connected acyclic graph on >= 3 vertices: not strictly scalable."""
    fid, cite = "tree", "a tree on >= 3 vertices is never the graph of a " \
                        "strictly scalable frame"
    if m < 3:
        return FilterReport(fid, cite, applicable=False)
    if stats.is_connected and g.edge_count() == m - 1:
        return FilterReport(
            fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
            certificate={"edge_count": m - 1, "connected": True},
        )
    return FilterReport(fid, cite, applicable=True)


def filter_induced_path(g: FrameGraph, m: int, n: int, stats: GraphStats,
                        offset: int = 2) -> FilterReport:
    """Long induced paths obstruct strict scalability.  The sharp threshold
    is ambiguous between edge and vertex counts, so the conservative reading
    fires only above floor(n/2) + offset vertices; flagged experimental."""
    fid, cite = "induced_path", (
        "a strictly scalable frame admits no induced path longer than about "
        "floor(n/2)+1"
    )
    if stats.induced_path_vertices is None:
        return FilterReport(
            fid, cite, applicable=False, experimental=True,
            warnings=("induced path search skipped: vertex cap exceeded",),
        )
    threshold = n // 2 + offset
    if stats.induced_path_vertices <= threshold:
        return FilterReport(fid, cite, applicable=True, experimental=True)
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_STRICTLY_SCALABLE,
        experimental=True,
        certificate={
            "witness_path": [_v(v) for v in stats.induced_path_witness],
            "vertices": stats.induced_path_vertices,
            "threshold_vertices": threshold,
        },
    )


def filter_cycle(g: FrameGraph, m: int, n: int,
                 stats: GraphStats) -> FilterReport:
    """Cycle graph on m >= 7 vertices with n in {m-2, m-1, m}: not scalable
    at all (the three codimension cases covered by the cycle obstruction)."""
    fid, cite = "cycle", (
        "a frame of m >= 7 vectors whose graph is the m-cycle is not "
        "scalable when the ambient dimension is m, m-1 or m-2"
    )
    if not (stats.is_cycle and m >= 7 and n in (m - 2, m - 1, m)):
        return FilterReport(fid, cite, applicable=False)
    order = _cycle_order(g)
    return FilterReport(
        fid, cite, applicable=True, verdict=NOT_SCALABLE,
        certificate={"cycle": [_v(v) for v in order]},
    )


def _cycle_order(g: FrameGraph):
    order = [0]
    prev = None
    while len(order) < g.vertex_count:
        nxt = min(w for w in g.neighbors(order[-1]) if w != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def filter_adjacent_dependence(frame: Frame, g: FrameGraph) -> FilterReport:
    """Data-quality check, not a scalability condition: adjacent parallel
    vectors must have identical closed neighborhoods.  A violation points at
    a misconfigured adjacency tolerance."""
    fid, cite = "adjacent_dependence", (
        "adjacent parallel vectors force identical closed neighborhoods; "
        "disagreement signals a tolerance problem"
    )
    # closed neighbourhoods first: parallelism is tested only on the edges
    # whose ends disagree, in the order of the sorted edge list
    closed = [mask | 1 << v for v, mask in enumerate(g.masks)]
    same = {}
    for v, c in enumerate(closed):
        same[c] = same.get(c, 0) | 1 << v
    vectors = integer_vectors(frame) or frame.vectors
    warnings = []
    for i, mask in enumerate(g.masks):
        for j in mask_vertices(mask & ~same[closed[i]] & -(2 << i)):
            if _parallel(vectors[i], vectors[j], frame.is_exact):
                warnings.append(
                    f"parallel adjacent vectors v{_v(i)}, v{_v(j)} have "
                    f"different closed neighborhoods; check tol_zero"
                )
    return FilterReport(
        fid, cite, applicable=True, experimental=True, warnings=tuple(warnings)
    )


def _parallel(u, v, exact: bool) -> bool:
    if exact:
        return all(
            sign(u[p] * v[q] - u[q] * v[p]) == 0
            for p in range(len(u))
            for q in range(p + 1, len(u))
        )
    scale = max(max(abs(float(x)) for x in u), max(abs(float(x)) for x in v), 1.0)
    tol = 1e-12 * scale * scale
    return all(
        abs(float(u[p]) * float(v[q]) - float(u[q]) * float(v[p])) <= tol
        for p in range(len(u))
        for q in range(p + 1, len(u))
    )


_GRAPH_FILTERS = (
    filter_square_nonempty,
    filter_complete_codim1,
    filter_alpha,
    filter_diameter_codim2,
    filter_orthogonal_set_codim2,
    filter_bipartite_balance,
    filter_unique_common_neighbor,
    filter_leaf_bridge,
    filter_tree,
    filter_cycle,
)


@dataclass(frozen=True)
class FilterBattery:
    reports: tuple
    combined_verdict: str
    warnings: tuple


def run_all_filters(g: FrameGraph, n: int, frame: Frame | None = None,
                    config: FilterConfig | None = None,
                    stats: GraphStats | None = None) -> FilterBattery:
    """Run the battery in its fixed order and combine verdicts.

    Experimental filters are reported but excluded from the combined verdict
    unless config.enable_experimental is set.
    """
    config = config or FilterConfig()
    m = g.vertex_count
    if stats is None:
        stats = compute_stats(g, config.vertex_cap)

    warnings = []
    if g.has_flagged_vertices():
        flagged = sorted(
            v for v in range(m) if g.vertex_flags[v]
        )
        detail = ", ".join(
            f"v{_v(v)}({'/'.join(sorted(g.vertex_flags[v]))})" for v in flagged
        )
        warnings.append(
            "standing assumption violated (zero or isolated vectors: "
            f"{detail}); scalability filters disabled"
        )
        reports = [
            FilterReport(
                fn.__name__.removeprefix("filter_"),
                "disabled: graph has zero-vector or isolated-vertex flags",
                applicable=False,
                experimental=(fn is filter_induced_path),
            )
            for fn in _GRAPH_FILTERS + (filter_induced_path,)
        ]
    else:
        reports = [fn(g, m, n, stats) for fn in _GRAPH_FILTERS]
        reports.append(
            filter_induced_path(g, m, n, stats, config.induced_path_offset)
        )

    if frame is not None:
        reports.append(filter_adjacent_dependence(frame, g))

    for r in reports:
        warnings.extend(r.warnings)

    combined = strongest(
        r.verdict
        for r in reports
        if not r.experimental or config.enable_experimental
    )
    return FilterBattery(tuple(reports), combined, tuple(warnings))
