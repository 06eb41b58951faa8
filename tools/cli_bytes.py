"""Compare the CLI's bytes at a git revision with those of this checkout.

    python3 tools/cli_bytes.py REV [--seed N]

Run from the repository root.  The sources of REV come from
``git archive REV src``, unpacked into a temporary directory.  One list of
calls is built, and each side runs the whole list in one fresh interpreter:
every call is ``framescale.cli.main(argv)`` with stdout and stderr
captured.  The list covers

- every corpus instance under every command, with and without --exact, as
  --graph, and with a nonzero --tol-zero on exact frames;
- generator calls under every frame command, at two seeds;
- named graphs under `filters --graph` at several --dim, and `graph --graph`;
- adjacency files of graphs with several components and no isolated
  vertex (bipartite components balanced only by a sign choice, a
  bipartite component before an odd cycle, bridges and leaves inside
  components of 3 or more vertices) under `filters --graph` at --dim 2-4
  and `graph --graph --format json`;
- three frames with a zero vector under `analyze`, `filters`, `graph` and
  `graph --format json`: an exact one, a float one whose vector lies below
  --tol-zero, and a float one whose vector is flagged zero_vector but
  keeps two edges;
- three exact frames with m >= n that do not span R^n (integer, mixed
  denominators, and one with a zero vector) under `analyze`, `filters`
  and `scale`, all with --exact;
- float frames whose inner products straddle --tol-zero by a few ulps
  (near copies of one vector, the float Mercedes frame, a seeded random
  frame), one with entries near 1e154, whose norms overflow, and one
  with entries near 1e150, whose operator is finite but too large for
  Jacobi to run on, under `analyze`, `filters` and `graph --format json`, with --tol-zero set to
  some of their products and to the floats up to two away;
- the exit-2 input errors, argparse's among them, with adjacency files
  bad at one entry, row or pair each, and one well-formed frame whose
  vectors differ in length by a factor of 1e13;
- exact integer frames that the Gram solve leaves to the simplex tableau,
  at two seeds, under `scale --exact` and `analyze --exact`: m above
  n(n+1)/2, m = n(n+1)/2 (mostly a negative unique weight), and (12, 6)
  frames with 20-bit entries and a repeated vector (a zero Gram pivot),
  whose tableau entries run to hundreds of bits;
- exact frames with fractional entries (L > 1), at two seeds, under
  `scale --exact` and `analyze --exact`: frames whose Gram solve answers
  strictly_feasible, boundary or infeasible (a nonzero residual), and
  frames that it leaves to the tableau (m above n(n+1)/2, a repeated
  vector, a negative unique weight);
- the four benchmark pools of ``perfbench/run.py`` as the benchmark calls
  them, and a prefix of each size class under `scale` (exact and float,
  so Farkas blocks are compared), `graph --format json` and `complement`.

--seed seeds the pools and the generator calls.  The script prints
``N calls, K identical``, then, for each place in which calls differ, the
number of differing calls that differ there, then the first differences in
full; it exits 1 if any call differs in its exit code, stdout or stderr.
A place is "exit code", "stderr", "stdout" when one side's stdout is not
JSON, or else each key path whose values differ, list indices written
``[]`` (``oracle.strict.farkas.rows[][]``), so that a change which moves
one field in many reports shows as one path.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHOWN = 5  # differences printed in full
DERIVED = 16  # pool inputs per size class under the derived commands

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import run  # noqa: E402  (perfbench/run.py: the pools and their calls)
from framescale.corpus import names  # noqa: E402
from framescale.linalg import ordered_sum  # noqa: E402

# Runs on one side: reads the calls from argv[1], writes [code, stdout,
# stderr] per call to argv[2].  argparse reports a bad option by SystemExit;
# a call that raises reads "crash", with its traceback on stderr, and the
# run goes on.
RUNNER = """
import contextlib, io, json, sys, traceback
import framescale.cli as cli

results = []
for argv in json.load(open(sys.argv[1])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "crash"
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, open(sys.argv[2], "w"))
"""

FRAME_COMMANDS = (["analyze"], ["analyze", "--filters-only"], ["filters"],
                  ["scale"], ["complement"], ["graph"],
                  ["graph", "--format", "json"])
GENERATOR_CALLS = ("onb(3)", "onb(5)", "random_frame(4,2)",
                   "random_frame(6,3)", "random_frame(8,4)",
                   "random_frame(10,5)", "random_frame(12,6)",
                   "random_parseval(5,2)", "random_parseval(6,3)",
                   "random_parseval(9,4)", "cycle_pattern_frame(6,5)",
                   "cycle_pattern_frame(7,6)", "cycle_pattern_frame(8,6)")
NAMED_GRAPHS = ("K1", "K4", "K6", "C5", "C7", "C8", "P4", "P6", "E3",
                "K_{1,3}", "K_{2,3}", "K_{3,3}")
# (file name, contents) of the malformed input files
BAD_FILES = (
    ("keys.json", '{"dim": 2}'),
    ("no_vectors.json", '{"dimension": 2, "vectors": []}'),
    ("short.json", '{"dimension": 3, "vectors": [["1", "0"]]}'),
    ("entry.json", '{"dimension": 2, "vectors": [[1, true], [0, 1]]}'),
    ("zero_den.json", '{"dimension": 2, "vectors": [["1/0", 0], [0, 1]]}'),
    ("huge.json", '{"dimension": 2, "vectors": [[%s, 0], [0, 1]]}'
     % ("1" * 400)),
    ("bad.json", "{not json"),
    ("empty.csv", ""),
    ("ragged.csv", "1,0\n1\n"),
    ("edges.json", '{"edges": [[1, 2]]}'),
    ("asym.json", '{"adjacency": [[0, 1], [0, 0]]}'),
    ("loop.json", '{"adjacency": [[1]]}'),
    # adjacency matrices with one bad entry, row or pair each, bare or
    # under "adjacency", for the first-bad-entry messages
    ("adj_true.json", '{"adjacency": [[0, true, 0], [1, 0, 1], [0, 1, 0]]}'),
    ("adj_two.json", "[[0, 1, 0], [1, 0, 2], [0, 2, 0]]"),
    ("adj_minus.json", '{"adjacency": [[0, -1], [-1, 0]]}'),
    ("adj_256.json", '{"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 256]]}'),
    ("adj_float.json", '{"adjacency": [[0, 1.0], [1.0, 0]]}'),
    ("adj_string.json", '{"adjacency": [[0, "1"], ["1", 0]]}'),
    ("adj_null.json", "[[0, null], [null, 0]]"),
    ("adj_nested.json", '{"adjacency": [[0, [1]], [[1], 0]]}'),
    ("adj_short.json", '{"adjacency": [[0, 1, 0], [1, 0], [0, 1, 0]]}'),
    ("adj_extra.json", '{"adjacency": [[0, 1], [1, 0], [0, 0]]}'),
    ("adj_not_row.json", '{"adjacency": [[0, 1], 7]}'),
    ("adj_asym_late.json", "[[0, 1, 0], [1, 0, 1], [0, 0, 0]]"),
    ("adj_diag_late.json", "[[0, 1, 0], [1, 0, 1], [0, 1, 1]]"),
    # not malformed: a frame whose first vector is 1e13 times longer than
    # the two orthogonal others, once read as parallel to both
    ("parallel_scale.json",
     '{"dimension": 2, "vectors": [["1e13", "1"], ["1", "1"], ["1", "-1"]]}'),
)

# (file name, contents, options) of the frames with a zero vector
ZERO_FILES = (
    ("zero_exact.json",
     '{"dimension": 2, "vectors": [["1", "0"], ["0", "0"], ["1", "1"]]}',
     ["--exact"]),
    ("zero_float.json",
     '{"dimension": 2, "vectors": [["1", "0"], ["1e-12", "0"], ["0", "1"]]}',
     []),
    ("tiny.json", '{"dimension": 2, "vectors": '
     '[["1e-6", "0"], ["1e6", "1"], ["0", "1"], ["1", "1"]]}', []),
)


# (file name, contents) of exact frames with m >= n vectors that do not
# span R^n: in a plane of R^3 over the integers and over mixed
# denominators, and a parallel pair with a zero vector
NONSPANNING_FILES = (
    ("plane_int.json", '{"dimension": 3, "vectors": [["1", "-1", "0"], '
     '["0", "1", "-1"], ["1", "0", "-1"], ["2", "-1", "-1"]]}'),
    ("plane_mixed.json", '{"dimension": 3, "vectors": '
     '[["1/2", "1/3", "-5/6"], ["2/7", "-1/7", "-1/7"], '
     '["11/14", "4/21", "-41/42"], ["1/6", "1/9", "-5/18"]]}'),
    ("line_zero.json", '{"dimension": 2, "vectors": [["1/2", "1"], '
     '["0", "0"], ["-3", "-6"]]}'),
)


# (file name, vertex count, edges) of the graphs with several components
# and no isolated vertex, on which the filter battery runs
COMPONENT_GRAPHS = (
    ("two_stars.json", 8, "0-1 0-2 0-3 4-5 4-6 4-7"),
    ("paths_star.json", 10, "0-1 1-2 3-4 4-5 6-9 7-9 8-9"),
    ("path_c5.json", 9, "0-1 1-2 2-3 4-5 5-6 6-7 7-8 4-8"),
    ("k23_k3.json", 8, "0-2 0-3 0-4 1-2 1-3 1-4 5-6 6-7 5-7"),
    ("lollipop_path_star.json", 13,
     "0-1 1-2 0-2 2-3 3-4 5-6 6-7 7-8 9-10 9-11 9-12"),
    ("barbell_c4.json", 12,
     "0-1 1-2 0-2 2-3 3-4 4-5 3-5 5-6 7-8 8-9 9-10 7-10 10-11"),
)


def component_graphs(d: Path) -> list:
    calls = []
    for name, m, edges in COMPONENT_GRAPHS:
        rows = [[0] * m for _ in range(m)]
        for pair in edges.split():
            i, j = map(int, pair.split("-"))
            rows[i][j] = rows[j][i] = 1
        (d / name).write_text(json.dumps({"adjacency": rows}))
        calls += [["filters", "--graph", str(d / name), "--dim", str(k)]
                  for k in (2, 3, 4)]
        calls.append(["graph", "--graph", str(d / name), "--format", "json"])
    return calls


def nonspanning(d: Path) -> list:
    calls = []
    for name, text in NONSPANNING_FILES:
        (d / name).write_text(text)
        calls += [[cmd, str(d / name), "--exact"]
                  for cmd in ("analyze", "filters", "scale")]
    return calls


def zero_vectors(d: Path) -> list:
    calls = []
    for name, text, options in ZERO_FILES:
        (d / name).write_text(text)
        calls += [cmd + [str(d / name)] + options for cmd in
                  (["analyze"], ["filters"], ["graph"],
                   ["graph", "--format", "json"])]
    return calls


def band_frames(seed: int) -> list:
    """(file name, vectors) of the float frames whose inner products are
    compared with --tol-zero to the last bit."""
    rng = random.Random(seed)
    base = [rng.gauss(0, 1) for _ in range(4)]
    half = math.sqrt(3) / 2
    return [
        ("band_near.json", [[x + rng.randint(-2, 2) * math.ulp(x)
                             for x in base] for _ in range(7)]),
        ("band_mercedes.json", [[0.0, 1.0], [-half, -0.5], [half, -0.5]]),
        ("band_random.json", [[rng.gauss(0, 1) for _ in range(3)]
                              for _ in range(8)]),
        ("band_huge.json", [[1e154, 1e154], [1e154, -1e154],
                            [3e153, 1.0], [1.0, 1.0]]),
        ("band_large.json", [[1e150, 2e150, 0.0], [0.0, 1e150, 3e150],
                             [2e150, 0.0, 1e150], [1e150, 1e150, 1e150]]),
    ]


def band_calls(seed: int, d: Path) -> list:
    calls = []
    for name, vectors in band_frames(seed):
        (d / name).write_text(json.dumps(
            {"dimension": len(vectors[0]),
             "vectors": [[repr(x) for x in v] for v in vectors]}))
        products = sorted({abs(ordered_sum(a * b for a, b in zip(u, v)))
                           for i, u in enumerate(vectors)
                           for v in vectors[i + 1:]} - {0.0, math.inf})
        tols = []
        for x in products[:1] + products[-1:]:
            down, up = math.nextafter(x, 0), math.nextafter(x, math.inf)
            tols += [math.nextafter(down, 0), down, x, up,
                     math.nextafter(up, math.inf)]
        calls += [cmd + [str(d / name), "--tol-zero", repr(t)]
                  for t in tols for cmd in
                  (["analyze"], ["filters"], ["graph", "--format", "json"])]
    return calls


def tableau_frames(seed: int) -> list:
    """(file name, integer vectors) of the frames of one seed that the
    Gram solve declines (m > n(n+1)/2, H singular, or mostly a negative
    unique weight); a "coords" frame has the coordinate vectors in place
    of the last n vectors of the frame before it, so it is scalable and
    phase 2 runs."""
    rng = random.Random(seed)

    def draw(m, n, bound):
        vecs = []
        while len(vecs) < m:
            v = [rng.randint(-bound, bound) for _ in range(n)]
            if any(v):
                vecs.append(v)
        return vecs

    def coordinates(vecs, length):
        n = len(vecs[0])
        return vecs[:-n] + [[length * (i == j) for j in range(n)]
                            for i in range(n)]

    out = []
    for m, n in ((8, 3), (12, 4), (24, 5)):
        vecs = draw(m, n, 2)
        out += [(f"above_{m}_{n}", vecs),
                (f"above_{m}_{n}_coords", coordinates(vecs, 1))]
    for n in (2, 3, 4):
        out += [(f"square_{n}_{k}", draw(n * (n + 1) // 2, n, 3))
                for k in range(3)]
    vecs = draw(11, 6, 2 ** 20)
    vecs.insert(1, vecs[0])
    out += [("wide_12_6", vecs),
            ("wide_12_6_coords", coordinates(vecs, 2 ** 20 - 3))]
    return out


def tableau_calls(seed: int, d: Path) -> list:
    calls = []
    for s in (seed, seed + 1):
        for name, vectors in tableau_frames(s):
            path = d / f"tableau_{s}_{name}.json"
            path.write_text(json.dumps({"dimension": len(vectors[0]),
                                        "vectors": vectors}))
            calls += [["scale", str(path), "--exact"],
                      ["analyze", str(path), "--exact"]]
    return calls


def rational_frames(seed: int) -> list:
    """(file name, Fraction vectors) of the frames of one seed with
    fractional entries.  A "pair" frame holds e_1, (x, y, 0, ...),
    (x, -y, 0, ...) and e_3, ..., e_n, whose one weight vector puts
    1 - x^2 / y^2 on e_1, 1 / (2 y^2) on the pair and 1 elsewhere: strictly
    positive for |x| < |y|, zero at |x| = |y| and negative beyond.  Each is
    turned by rational Givens rotations and each vector scaled by its own
    p/q, which keeps the weights' signs.  A "residual" frame is drawn at
    random with 2n - 2 < n(n+1)/2 vectors, so that I is off the span of
    its f_i f_i^t."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(1, 9), rng.randint(2, 9))

    def draw(m, n):
        return [[rng.choice((-1, 1)) * frac() for _ in range(n)]
                for _ in range(m)]

    def pair(n, x, y):
        vecs = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        vecs[1][:2] = [x, -y]
        return vecs + [[x, y] + [Fraction(0)] * (n - 2)]

    def turn(vecs):
        n = len(vecs[0])
        for _ in range(2 * n):
            p, q = rng.sample(range(n), 2)
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            c, s = (Fraction(a * a - b * b, a * a + b * b),
                    Fraction(2 * a * b, a * a + b * b))
            for v in vecs:
                v[p], v[q] = c * v[p] - s * v[q], s * v[p] + c * v[q]
        return [[k * x for x in v] for k, v in ((frac(), v) for v in vecs)]

    out = []
    for n in (2, 3, 4):
        y = frac()
        x = y * Fraction(rng.randint(1, 8), 9)
        out += [(f"strict_{n}", turn(pair(n, x, y))),
                (f"boundary_{n}", turn(pair(n, y, y))),
                (f"negative_{n}", turn(pair(n, y, x)))]
        strict = turn(pair(n, x, y))
        out += [(f"repeated_{n}", strict + strict[-1:]),
                (f"above_{n}", strict + draw(n * (n + 1) // 2 + 1 - n, n)),
                (f"residual_{n}", draw(2 * n - 2, n))]
    return out


def rational_calls(seed: int, d: Path) -> list:
    calls = []
    for s in (seed, seed + 1):
        for name, vectors in rational_frames(s):
            path = d / f"rational_{s}_{name}.json"
            path.write_text(json.dumps({
                "dimension": len(vectors[0]),
                "vectors": [[str(x) for x in v] for v in vectors]}))
            calls += [["scale", str(path), "--exact"],
                      ["analyze", str(path), "--exact"]]
    return calls


def input_errors(d: Path) -> list:
    calls = []
    for name, text in BAD_FILES:
        (d / name).write_text(text)
        calls += [["analyze", str(d / name)], ["scale", str(d / name),
                                                "--exact"],
                  ["filters", "--graph", str(d / name), "--dim", "2"]]
    missing = str(d / "missing.json")
    return calls + [
        ["analyze", missing], ["filters", "--graph", missing, "--dim", "2"],
        ["filters"], ["graph"], ["filters", "--graph", "NOPE"],
        ["filters", "paper/M1", "--graph", "C4", "--dim", "2"],
        ["graph", "paper/M1", "--graph", "C4"],
        ["filters", "paper/M1", "--exact", "--dim", "7"],
        ["filters", "--graph", "K_{a,b}", "--dim", "2"],
        ["analyze", "petersen(10)"], ["analyze", "onb()"],
        ["analyze", "random_frame(2,0)"], ["analyze", "random_frame(2,3)"],
        ["analyze", "random_parseval(4,2)", "--exact"],
        ["complement", "paper/M1"], ["complement", "paper/M1", "--exact"],
        ["complement", "random_parseval(5,2)", "--exact"],
        ["analyze", "paper/graph-K2K2-join-K13"],
        ["analyze", "paper/M1", "--tol=0"],
        ["scale", "paper/M1", "--tol-zero=-1"],
        ["filters", "--graph", "C4", "--dim=0"], ["analyze"], [],
    ]


def pools(seed: int, d: Path) -> list:
    """The benchmark's calls on its pools, then a prefix of each size class
    under the derived commands."""
    calls, derived = [], []
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for name in workloads:
        wd = d / name
        wd.mkdir()
        for cases in run.make_inputs(name, seed, wd):
            calls += [case.argv for case in cases]
            for case in cases[:DERIVED]:
                path = case.argv[case.argv.index("--graph") + 1
                                 if "--graph" in case.argv else 1]
                if run.WORKLOADS[name].graph:
                    derived += [["graph", "--graph", path, "--format", "json"]]
                elif run.WORKLOADS[name].exact:
                    derived += [["scale", path, "--exact"], ["scale", path],
                                ["graph", path, "--exact", "--format", "json"],
                                ["graph", path, "--format", "json"]]
                else:
                    derived += [["complement", path], ["graph", path]]
    return calls + derived


def build_calls(seed: int, d: Path) -> list:
    calls = []
    for name in names():
        for cmd in FRAME_COMMANDS:
            calls += [cmd + [name], cmd + [name, "--exact"]]
        calls += [["graph", "--graph", name],
                  ["graph", "--graph", name, "--format", "json"],
                  ["graph", name, "--exact", "--tol-zero", "0.5"],
                  ["analyze", name, "--exact", "--tol-zero", "0.5"]]
        calls += [["filters", "--graph", name, "--dim", str(k)]
                  for k in (2, 3, 4)]
    for spec in GENERATOR_CALLS:
        for s in (seed, seed + 1):
            for cmd in FRAME_COMMANDS[1:]:
                for exact in ([], ["--exact"]):
                    calls.append(cmd + [spec, "--seed", str(s)] + exact)
    for g in NAMED_GRAPHS:
        calls += [["filters", "--graph", g, "--dim", str(k)]
                  for k in (1, 2, 3, 5)]
        calls += [["graph", "--graph", g],
                  ["graph", "--graph", g, "--format", "json"]]
    return (calls + component_graphs(d) + zero_vectors(d) + nonspanning(d)
            + band_calls(seed, d) + tableau_calls(seed, d)
            + rational_calls(seed, d) + input_errors(d) + pools(seed, d))


def run_side(src: Path, calls_path: Path, out_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", RUNNER, str(calls_path),
                    str(out_path)], env=env, cwd=calls_path.parent,
                   check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def json_paths(a, b, path: str) -> set:
    """The key paths below ``path`` at which the JSON values a and b
    differ: a key on one side only, a list of another length, or a
    differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = set()
        for k in a.keys() | b.keys():
            sub = f"{path}.{k}" if path else k
            out |= (json_paths(a[k], b[k], sub) if k in a and k in b
                    else {sub})
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(json_paths(x, y, path + "[]")
                             for x, y in zip(a, b)))
    return set() if a == b else {path or "(document)"}


def places(before, after) -> set:
    """Where one call's results differ (see the module docstring)."""
    out = {label for label, a, b in zip(("exit code", "stdout", "stderr"),
                                        before, after) if a != b}
    if "stdout" in out:
        try:
            paths = json_paths(json.loads(before[1]), json.loads(after[1]),
                               "")
        except ValueError:
            return out
        out.remove("stdout")
        out |= paths or {"stdout layout"}
    return out


def show(argv, before, after) -> None:
    print(f"differs: {argv}")
    for label, a, b in zip(("exit code", "stdout", "stderr"), before, after):
        if a != b:
            print(f"  {label}:")
            lines = difflib.unified_diff(
                str(a).splitlines(), str(b).splitlines(), "parent", "change",
                lineterm="", n=1)
            for line in list(lines)[:20]:
                print(f"    {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the pools and generator calls")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        inputs = tmp / "inputs"
        inputs.mkdir()
        calls = build_calls(args.seed, inputs)
        calls_path = tmp / "calls.json"
        calls_path.write_text(json.dumps(calls))
        before = run_side(tmp / "parent" / "src", calls_path,
                          tmp / "before.json")
        after = run_side(ROOT / "src", calls_path, tmp / "after.json")
    differing = [(c, a, b) for c, a, b in zip(calls, before, after) if a != b]
    print(f"{len(calls)} calls, {len(calls) - len(differing)} identical")
    counts = Counter(p for _, a, b in differing for p in places(a, b))
    for place, count in sorted(counts.items(), key=lambda kv: (-kv[1],
                                                               kv[0])):
        print(f"  {count:6d} differ in {place}")
    for c, a, b in differing[:SHOWN]:
        show(c, a, b)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
