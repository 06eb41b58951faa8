"""Built-in frames and graphs, plus seeded generators for tests and the CLI.

The ``paper/*`` names are the worked examples this analysis is usually
demonstrated on: two 4x4 matrices whose columns are non-scalable frames in
R^4, and their 8-column concatenation that passes every necessary condition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import QuadExt
from .frames import Frame, FrameError, is_frame
from .graphs import (
    FrameGraph,
    complete_bipartite_graph,
    graph_join,
    graph_union,
    path_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
)


class CorpusError(KeyError):
    pass


@dataclass(frozen=True)
class NamedInstance:
    name: str
    frame: Frame | None = None
    graph: FrameGraph | None = None
    provenance: str = ""
    expected: dict = field(default_factory=dict)


def _frac_frame(columns) -> Frame:
    return Frame.from_vectors(
        [[Fraction(x) for x in col] for col in columns], exact=True
    )


def _m1() -> NamedInstance:
    frame = _frac_frame(
        [(1, 2, 0, 0), (1, -2, 0, 0), (0, 0, 1, 2), (0, 0, 1, -2)]
    )
    return NamedInstance(
        "paper/M1",
        frame=frame,
        provenance="worked example M1: two orthogonal pairs in R^4",
        expected={"conclusion": "not_scalable", "graph": "K2 u K2"},
    )


def _m2() -> NamedInstance:
    frame = _frac_frame(
        [(1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1)]
    )
    return NamedInstance(
        "paper/M2",
        frame=frame,
        provenance="worked example M2: star-patterned frame in R^4",
        expected={"conclusion": "not_scalable", "graph": "K_{1,3}"},
    )


def _m() -> NamedInstance:
    frame = _frac_frame(
        [
            (1, 2, 0, 0), (1, -2, 0, 0), (0, 0, 1, 2), (0, 0, 1, -2),
            (1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1),
        ]
    )
    return NamedInstance(
        "paper/M",
        frame=frame,
        provenance="worked example M = [M1 | M2]: passes all graph filters",
        expected={"combined_filter_verdict": "inconclusive",
                  "graph": "(K2 u K2) v K_{1,3}"},
    )


def _mercedes() -> NamedInstance:
    # three unit vectors at 120 degrees, exact in Q(sqrt(3))
    half = Fraction(1, 2)
    s = QuadExt(3, 0, half)  # sqrt(3)/2
    frame = Frame.from_vectors(
        [
            (Fraction(0), Fraction(1)),
            (-s, -half),
            (s, -half),
        ],
        exact=True,
    )
    return NamedInstance(
        "canonical/mercedes",
        frame=frame,
        provenance="three unit vectors at 120 degrees (tight, bound 3/2)",
        expected={"conclusion": "strictly_scalable",
                  "weights": [Fraction(2, 3)] * 3},
    )


def _k2k2_join_k13() -> NamedInstance:
    g = graph_join(
        graph_union(complete_graph(2), complete_graph(2)),
        complete_bipartite_graph(1, 3),
    )
    return NamedInstance(
        "paper/graph-K2K2-join-K13",
        graph=g,
        provenance="the join (K2 u K2) v K_{1,3} on 8 vertices",
        expected={},
    )


_REGISTRY = {
    "paper/M1": _m1,
    "paper/M2": _m2,
    "paper/M": _m,
    "canonical/mercedes": _mercedes,
    "paper/graph-K2K2-join-K13": _k2k2_join_k13,
}


def names():
    return sorted(_REGISTRY)


def load(name: str) -> NamedInstance:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise CorpusError(
            f"unknown instance {name!r}; available: {', '.join(names())}"
        ) from None


def onb(n: int) -> Frame:
    return _frac_frame(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def random_frame(m: int, n: int, seed: int, max_entry: int = 2,
                 max_retries: int = 64) -> Frame:
    """Seeded frame with small integer entries (exact mode); retried until
    the vectors span R^n.  Small entries make orthogonal pairs common, which
    is exactly what makes these interesting graph instances."""
    if m < n:
        raise FrameError("need at least n vectors to span R^n")
    for attempt in range(max_retries):
        rng = random.Random(seed * 7919 + attempt)
        vectors = []
        for _ in range(m):
            v = [0] * n
            while all(x == 0 for x in v):
                v = [rng.randint(-max_entry, max_entry) for _ in range(n)]
            vectors.append([Fraction(x) for x in v])
        frame = Frame.from_vectors(vectors, exact=True)
        if is_frame(frame):
            return frame
    raise FrameError(f"random_frame({m},{n},{seed}): no spanning draw")


def cycle_pattern_frame(m: int, n: int, seed: int,
                        max_restarts: int = 64) -> Frame:
    """m unit vectors in R^n whose frame graph is the m-cycle 1-2-...-m-1.

    Vectors are built sequentially: each one is drawn in the orthogonal
    complement of its non-neighbors among the earlier vectors, then the
    cycle pattern and spanning are verified post-hoc (seeded restarts).
    Only codimensions 0..2 (n in {m-2, m-1, m}) are supported; the sequential
    construction runs out of dimensions below that.
    """
    if m < 3 or n < 3:
        raise FrameError("cycle pattern needs m >= 3 and n >= 3")
    if not (m - 2 <= n <= m):
        raise FrameError(
            f"cycle_pattern_frame supports n in {{m-2, m-1, m}}, "
            f"got m={m}, n={n}"
        )
    for attempt in range(max_restarts):
        rng = random.Random(seed * 104729 + attempt)
        vectors = []
        failed = False
        for i in range(m):
            forbidden = list(range(0, i - 1))
            if i == m - 1 and forbidden and forbidden[0] == 0:
                forbidden = forbidden[1:]  # closing edge (m, 1) stays open
            v = _draw_in_complement(rng, n, [vectors[j] for j in forbidden])
            if v is None:
                failed = True
                break
            vectors.append(v)
        if failed:
            continue
        frame = Frame.from_vectors(vectors)
        if not _cycle_pattern_ok(frame, m):
            continue
        if is_frame(frame, tol=1e-10):
            return frame
    raise FrameError(
        f"cycle_pattern_frame({m},{n},{seed}): no realization after "
        f"{max_restarts} restarts"
    )


def _draw_in_complement(rng, n, others):
    basis = []
    for u in others:
        w = list(u)
        for b in basis:
            proj = sum(a * c for a, c in zip(w, b))
            w = [a - proj * c for a, c in zip(w, b)]
        norm = math.sqrt(sum(a * a for a in w))
        if norm > 1e-10:
            basis.append([a / norm for a in w])
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    for b in basis:
        proj = sum(a * c for a, c in zip(v, b))
        v = [a - proj * c for a, c in zip(v, b)]
    norm = math.sqrt(sum(a * a for a in v))
    if norm < 1e-6:
        return None
    return tuple(a / norm for a in v)


def _cycle_pattern_ok(frame: Frame, m: int, margin: float = 1e-4) -> bool:
    vs = frame.vectors
    for i in range(m):
        for j in range(i + 1, m):
            ip = abs(sum(a * b for a, b in zip(vs[i], vs[j])))
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent and ip < margin:
                return False
            if not adjacent and ip > 1e-10:
                return False
    return True


def named_graph(spec: str) -> FrameGraph:
    """Parse small named graphs: Kn, K_{a,b}, Cn, Pn, En (edgeless)."""
    text = spec.strip()
    if text.startswith("K_{") and text.endswith("}"):
        a, b = text[3:-1].split(",")
        return complete_bipartite_graph(int(a), int(b))
    kind, num = text[0].upper(), text[1:]
    if not num.isdigit():
        raise CorpusError(f"cannot parse graph name {spec!r}")
    k = int(num)
    if kind == "K":
        return complete_graph(k)
    if kind == "C":
        return cycle_graph(k)
    if kind == "P":
        return path_graph(k)
    if kind == "E":
        return empty_graph(k)
    raise CorpusError(f"cannot parse graph name {spec!r}")


__all__ = [
    "CorpusError",
    "NamedInstance",
    "cycle_pattern_frame",
    "load",
    "named_graph",
    "names",
    "onb",
    "random_frame",
]
