"""Seeded input generators owned by the benchmark.

The benchmark never asks the package to generate its own inputs: every
frame and graph is drawn here from a ``random.Random`` stream keyed by the
workload name and the seed, and written to a file that the CLI reads.  A
change to the package's generators or its generator dispatch cannot move
the inputs.

Frames are JSON ``{"dimension": n, "vectors": [...]}`` files with entries
as ``"p/q"`` strings (exact) or 17-significant-digit decimal strings
(float); graphs are ``{"adjacency": [[0, 1, ...], ...]}`` files.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

MAX_ENTRY = 2


def stream(workload: str, seed: int, tag: str = "") -> random.Random:
    """Independent, reproducible stream for one workload, seed and purpose."""
    return random.Random(f"framescale-bench:{workload}:{seed}:{tag}")


def _nonzero_int_vector(rng: random.Random, n: int) -> list:
    while True:
        v = [rng.randint(-MAX_ENTRY, MAX_ENTRY) for _ in range(n)]
        if any(v):
            return v


def exact_rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def int_frame(rng: random.Random, m: int, n: int) -> list:
    """m nonzero integer vectors in [-2, 2]^n that span R^n; a
    non-spanning draw is redrawn whole."""
    while True:
        vectors = [_nonzero_int_vector(rng, n) for _ in range(m)]
        if exact_rank(vectors) == n:
            return vectors


def scalable_int_frame(rng: random.Random, m: int, n: int) -> list:
    """m - n random integer vectors followed by the n coordinate vectors,
    so weight 1 on the coordinate vectors is always a Parseval scaling."""
    vectors = [_nonzero_int_vector(rng, n) for _ in range(m - n)]
    vectors += [[int(i == j) for j in range(n)] for i in range(n)]
    return vectors


def parseval_frame(rng: random.Random, m: int, n: int) -> list:
    """Rows of an m x n Gaussian matrix with Gram-Schmidt-orthonormalised
    columns (the construction of ``frames.random_parseval``), each entry
    rounded once to 17 significant digits so the file is the input."""
    while True:
        ortho = []
        for _ in range(n):
            w = [rng.gauss(0.0, 1.0) for _ in range(m)]
            for u in ortho:
                proj = sum(a * b for a, b in zip(w, u))
                w = [a - proj * b for a, b in zip(w, u)]
            norm = math.sqrt(sum(a * a for a in w))
            if norm < 1e-8:
                break
            ortho.append([a / norm for a in w])
        if len(ortho) == n:
            return [[float(format(col[i], ".17g")) for col in ortho]
                    for i in range(m)]


def gnp(rng: random.Random, m: int, p: float) -> list:
    """Adjacency matrix of an Erdos-Renyi G(m, p) draw."""
    adj = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < p:
                adj[i][j] = adj[j][i] = 1
    return adj


def write_frame(path: str, vectors, exact: bool) -> None:
    if exact:
        rows = [[str(Fraction(x)) for x in v] for v in vectors]
    else:
        rows = [[format(x, ".17g") for x in v] for v in vectors]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": len(vectors[0]), "vectors": rows}, fh)


def write_graph(path: str, adjacency) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"adjacency": adjacency}, fh)
