"""Built-in frames and graphs, plus seeded generators for tests and the CLI.

Each built-in instance is stated once, as its vectors or as its graph, and
`load` returns it as a `NamedInstance` with its frame or its graph set.  The
``paper/*`` names are the worked examples this analysis is usually
demonstrated on: two 4x4 matrices M1 and M2 whose columns are non-scalable
frames in R^4, their 8-column concatenation M = [M1 | M2] that passes every
necessary condition, and M's frame graph (K2 u K2) v K_{1,3} on its own.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import mul
from typing import NamedTuple

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
from .linalg import ordered_sum, project_out


RANDOM_FRAME_RETRIES = 64  # seeded draws random_frame tries
CYCLE_PATTERN_RESTARTS = 64  # seeded restarts of cycle_pattern_frame
CYCLE_PATTERN_MARGIN = 1e-4  # least |<f_i, f_j>| on a cycle edge


class CorpusError(KeyError):
    pass


class NamedInstance(NamedTuple):
    """A built-in frame or graph."""

    name: str
    frame: Frame | None = None
    graph: FrameGraph | None = None


def _frac_frame(columns) -> Frame:
    return Frame.from_vectors(
        [[Fraction(x) for x in col] for col in columns], exact=True
    )


# the worked examples' columns
_M1 = ((1, 2, 0, 0), (1, -2, 0, 0), (0, 0, 1, 2), (0, 0, 1, -2))
_M2 = ((1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1))


def _mercedes() -> Frame:
    # three unit vectors at 120 degrees, exact in Q(sqrt(3))
    half = Fraction(1, 2)
    s = QuadExt(3, 0, half)  # sqrt(3)/2
    return Frame.from_vectors(
        [(Fraction(0), Fraction(1)), (-s, -half), (s, -half)], exact=True)


# name -> the function that builds the instance's frame
_FRAMES = {
    "paper/M1": lambda: _frac_frame(_M1),
    "paper/M2": lambda: _frac_frame(_M2),
    "paper/M": lambda: _frac_frame(_M1 + _M2),
    "canonical/mercedes": _mercedes,
}
# name -> the function that builds the instance's graph
_GRAPHS = {
    "paper/graph-K2K2-join-K13": lambda: graph_join(
        graph_union(complete_graph(2), complete_graph(2)),
        complete_bipartite_graph(1, 3)),
}


def names():
    return sorted([*_FRAMES, *_GRAPHS])


def load(name: str) -> NamedInstance:
    if name in _FRAMES:
        return NamedInstance(name, frame=_FRAMES[name]())
    if name in _GRAPHS:
        return NamedInstance(name, graph=_GRAPHS[name]())
    raise CorpusError(
        f"unknown instance {name!r}; available: {', '.join(names())}")


def onb(n: int) -> Frame:
    return _frac_frame(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def random_frame(m: int, n: int, seed: int) -> Frame:
    """Seeded frame with integer entries in [-2, 2] (exact mode); retried
    until the vectors span R^n.  Small entries make orthogonal pairs common,
    which is exactly what makes these interesting graph instances."""
    if n < 1:
        raise FrameError("random_frame needs dimension n >= 1")
    if m < n:
        raise FrameError("need at least n vectors to span R^n")
    for attempt in range(RANDOM_FRAME_RETRIES):
        rng = random.Random(seed * 7919 + attempt)
        vectors = []
        for _ in range(m):
            v = [0] * n
            while all(x == 0 for x in v):
                v = [rng.randint(-2, 2) for _ in range(n)]
            vectors.append([Fraction(x) for x in v])
        frame = Frame.from_vectors(vectors, exact=True)
        if is_frame(frame):
            return frame
    raise FrameError(f"random_frame({m},{n},{seed}): no spanning draw")


def cycle_pattern_frame(m: int, n: int, seed: int) -> Frame:
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
    for attempt in range(CYCLE_PATTERN_RESTARTS):
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
        f"{CYCLE_PATTERN_RESTARTS} restarts"
    )


def _draw_in_complement(rng, n, others):
    basis = []
    for u in others:
        w, norm = project_out(u, basis)
        if norm > 1e-10:
            basis.append([a / norm for a in w])
    v, norm = project_out([rng.gauss(0.0, 1.0) for _ in range(n)], basis)
    if norm < 1e-6:
        return None
    return tuple(a / norm for a in v)


def _cycle_pattern_ok(frame: Frame, m: int) -> bool:
    vs = frame.vectors
    for i in range(m):
        for j in range(i + 1, m):
            ip = abs(ordered_sum(map(mul, vs[i], vs[j])))
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent and ip < CYCLE_PATTERN_MARGIN:
                return False
            if not adjacent and ip > 1e-10:
                return False
    return True


# Kn, Cn, Pn, En (kind case-insensitive) or K_{a,b}: every size a
# nonnegative integer
_NAMED_GRAPH = re.compile(
    r"([KCPEkcpe])(\d+)|K_\{\s*\+?(\d+)\s*,\s*\+?(\d+)\s*\}")
_NAMED_KINDS = {"K": complete_graph, "C": cycle_graph, "P": path_graph,
                "E": empty_graph}


def named_graph(spec: str) -> FrameGraph:
    """Parse small named graphs: Kn, K_{a,b}, Cn, Pn, En (edgeless).  Any
    other name, a negative size or a count of sizes other than two among
    them, is a CorpusError."""
    match = _NAMED_GRAPH.fullmatch(spec.strip())
    if match is None:
        raise CorpusError(f"cannot parse graph name {spec!r}")
    kind, num, a, b = match.groups()
    if kind is None:
        return complete_bipartite_graph(int(a), int(b))
    return _NAMED_KINDS[kind.upper()](int(num))


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
