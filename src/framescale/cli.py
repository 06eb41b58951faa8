"""Command-line front end: resolves inputs, prints what `report` builds.

Frame files are JSON objects {"dimension": n, "vectors": [[...], ...]} with
numbers given as decimal strings or "p/q" rationals (plain JSON numbers are
accepted too), or CSV with one vector per row.  Vectors are the frame
elements themselves, one list per vector.

Exit codes: 0 analysis completed (whatever the verdict), 2 malformed input
or dimension mismatch, 3 numerical solver failure, 4 standard output closed
before the whole report was written (as by `framescale ... | head -1`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import chain

from . import corpus
from .exactnum import ExactModeError, parse_exact
from .frames import DEFAULT_TOL, Frame, FrameError, random_parseval
from .graphs import (
    DEFAULT_TOL_ZERO,
    FrameGraph,
    GraphError,
    build_graph,
    export_dot,
)
from .linalg import JacobiConvergenceError
from .report import (
    AnalysisConfig,
    analyze_frame,
    analyze_graph,
    complement_document,
    graph_document,
    scale_report,
    stable_dumps,
)
from .scaler import SolverError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_PIPE = 4

_GENERATOR = re.compile(r"^(\w+)\(([\d,\s]*)\)$")


class CliError(Exception):
    """Bad input that the CLI finds itself; it exits 2, as other input
    errors do."""


def _exact_number(x):
    if not isinstance(x, (str, int)):
        raise FrameError(
            f"exact mode needs integer or string entries, got {x!r}"
        )
    try:
        return parse_exact(x)
    except ZeroDivisionError:
        raise FrameError(f"zero denominator in entry {x!r}") from None


_FLOAT_ENTRY_TYPES = frozenset((str, int, float))


def _float_number(x):
    if type(x) not in _FLOAT_ENTRY_TYPES:  # bool, null, list, object
        raise FrameError(
            f"float mode needs number or string entries, got {x!r}")
    try:
        if isinstance(x, str) and "/" in x:
            return float(_exact_number(x))
        return float(x)
    except OverflowError:
        raise FrameError(f"entry beyond the float range: {x!r}") from None


def _entry_parser(exact: bool):
    """The entry parser for one file.  In exact mode each distinct string is
    converted once and its entries share the (immutable) Fraction, since
    Fraction(str) runs a regular expression.  Float mode converts every
    entry: float files rarely repeat a string, and storing each one costs
    more than float(str) itself."""
    if not exact:
        return _float_number
    seen = {}

    def parse(x):
        if type(x) is not str:
            return _exact_number(x)
        value = seen.get(x)
        if value is None:
            value = seen[x] = _exact_number(x)
        return value

    return parse


def _frame_from_json(data, exact: bool) -> Frame:
    if not isinstance(data, dict) or "dimension" not in data or "vectors" not in data:
        raise FrameError('frame file needs "dimension" and "vectors" keys')
    n = data["dimension"]
    if type(n) is not int or n < 1:  # JSON true is an int to isinstance
        raise FrameError(f"dimension must be a positive integer, got {n!r}")
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise FrameError("vectors must be a non-empty list")
    parse = _entry_parser(exact)
    parsed = []
    for vec in vectors:
        if not isinstance(vec, list) or len(vec) != n:
            raise FrameError(
                f"every vector must have {n} entries, got {vec!r}"
            )
        if not exact and _FLOAT_ENTRY_TYPES.issuperset(map(type, vec)):
            # one float() per entry; a "p/q" string or an int beyond the
            # float range takes the entry parser
            try:
                parsed.append(list(map(float, vec)))
                continue
            except (ValueError, OverflowError):
                pass
        parsed.append(list(map(parse, vec)))
    return Frame.from_vectors(parsed, exact=exact)


def _frame_from_csv(text: str, exact: bool) -> Frame:
    import csv  # only CSV input pays for it

    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise FrameError("empty CSV input")
    parse = _entry_parser(exact)
    vectors = [[parse(x.strip()) for x in row] for row in rows]
    widths = {len(v) for v in vectors}
    if len(widths) != 1:
        raise FrameError("CSV rows have inconsistent lengths")
    return Frame.from_vectors(vectors, exact=exact)


def load_frame_file(path: str, exact: bool) -> Frame:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON: {exc}") from exc
        return _frame_from_json(data, exact)
    return _frame_from_csv(text, exact)


# generator name -> (function of the call's integers and the seed, the
# number of integers the call takes)
_GENERATORS = {
    "onb": (lambda n, seed: corpus.onb(n), 1),
    "random_frame": (corpus.random_frame, 2),
    "random_parseval": (random_parseval, 2),
    "cycle_pattern_frame": (corpus.cycle_pattern_frame, 2),
}


def resolve_frame(spec: str, exact: bool, seed: int) -> Frame:
    """A frame argument is a corpus name, a generator call like
    'random_parseval(5,2)', or a file path; tried in that order."""
    if spec in corpus.names():
        inst = corpus.load(spec)
        if inst.frame is None:
            raise CliError(f"{spec} is a graph-only instance; use --graph")
        frame = inst.frame
    else:
        match = _GENERATOR.match(spec)
        if match:
            kind = match.group(1)
            args = [int(a) for a in match.group(2).split(",") if a.strip()]
            if kind not in _GENERATORS:
                raise CliError(f"unknown generator {kind!r}")
            make, count = _GENERATORS[kind]
            if len(args) != count:
                raise CliError(f"{kind} needs {count} integer argument(s), "
                               f"got {len(args)}")
            frame = make(*args, seed=seed)
        else:
            frame = load_frame_file(spec, exact)
    if exact and not frame.is_exact:
        raise CliError(f"{spec} has no exact representation; drop --exact")
    if not exact and frame.is_exact:
        frame = frame.to_float()
    return frame


# bytes 0 and 1 as the ASCII digits that int(..., 2) reads
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _graph_from_json(data) -> FrameGraph:
    """The graph of an adjacency matrix, given bare or as the value of
    "adjacency": a non-empty square list of rows of the ints 0 and 1 (JSON
    true and 1.0 compare equal to 1 and are rejected), symmetric, with a
    zero diagonal.

    The whole matrix is checked by C-level calls: the types and lengths of
    the rows, the types of the entries, ``bytes`` of all m*m entries (it
    raises on values outside 0-255), then the 0/1 values, the diagonal and
    the symmetry of row i with column i on those bytes.  Each mask is one
    row of them read as binary digits.  When a check fails,
    `_first_bad_entry` scans the rows in order to name the first bad row or
    entry."""
    if isinstance(data, dict) and "adjacency" in data:
        data = data["adjacency"]
    if not isinstance(data, list) or not data:
        raise GraphError("graph file needs an adjacency matrix")
    m = len(data)
    flat = None
    if (set(map(type, data)) == {list} and set(map(len, data)) == {m}
            and set(map(type, chain.from_iterable(data))) == {int}):
        try:
            flat = bytes(chain.from_iterable(data))
        except ValueError:
            pass
    if (flat is None or flat.translate(None, b"\0\1") or any(flat[::m + 1])
            or any(flat[i::m] != flat[i * m:(i + 1) * m] for i in range(m))):
        _first_bad_entry(data)
    # reversed, the matrix lists row m-1 first, each row from column m-1
    bits = flat[::-1].translate(_BINARY_DIGITS)
    return FrameGraph._unchecked(
        [int(bits[k:k + m], 2) for k in range(m * m - m, -1, -m)])


def _first_bad_entry(data) -> None:
    """Raise the GraphError of the first bad row or entry of a matrix that
    failed a check of `_graph_from_json`, scanning row by row and each row
    left to right, then its diagonal entry."""
    m = len(data)
    for i, row in enumerate(data):
        if type(row) is not list or len(row) != m:
            raise GraphError("adjacency matrix must be square")
        for j, x in enumerate(row):
            if type(x) is not int or x not in (0, 1):
                raise GraphError(
                    f"adjacency entry ({i + 1},{j + 1}) must be 0 or 1")
            if j < i and x != data[j][i]:
                raise GraphError(
                    f"adjacency matrix is not symmetric at ({j + 1},{i + 1})")
        if row[i]:
            raise GraphError(
                f"adjacency diagonal entry ({i + 1},{i + 1}) must be 0")


def resolve_graph(spec: str) -> FrameGraph:
    """A graph argument is a corpus name, a named graph (K4, C7, K_{1,3},
    P5, E3), or a JSON adjacency-matrix file."""
    if spec in corpus.names():
        inst = corpus.load(spec)
        if inst.graph is not None:
            return inst.graph
        return build_graph(inst.frame)
    try:
        return corpus.named_graph(spec)
    except corpus.CorpusError:
        pass
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read graph {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{spec}: invalid JSON: {exc}") from exc
    return _graph_from_json(data)


def _frame_or_graph(args, with_dim: bool):
    """(frame, None) or, with --graph, (None, graph) for `analyze`/`filters`
    (``with_dim``: --dim goes with --graph only) and `graph`.  The output
    could describe only one input; the arguments are checked before either
    is read."""
    if args.input is not None and args.graph is not None:
        raise CliError("give a frame input or --graph, not both")
    if args.graph is not None:
        if with_dim and args.dim is None:
            raise CliError("--graph requires an explicit --dim")
        return None, resolve_graph(args.graph)
    if with_dim and args.dim is not None:
        raise CliError("--dim applies only to --graph")
    if args.input is None:
        raise CliError("give a frame input or --graph NAME"
                       + (" --dim N" if with_dim else ""))
    return resolve_frame(args.input, args.exact, args.seed), None


def cmd_analyze(args) -> int:
    """`analyze`, and `filters` with ``filters_only`` set: a frame input,
    or (`filters` only) an abstract graph with its dimension."""
    config = AnalysisConfig(args.tol, args.tol_zero, args.filters_only)
    frame, graph = _frame_or_graph(args, with_dim=True)
    if frame is not None:
        report = analyze_frame(frame, config, source=args.input)
    else:
        report = analyze_graph(graph, args.dim, config, source=args.graph)
    print(stable_dumps(report))
    return EXIT_OK


def cmd_scale(args) -> int:
    frame = resolve_frame(args.input, args.exact, args.seed)
    print(stable_dumps(scale_report(frame, args.tol, source=args.input)))
    return EXIT_OK


def cmd_complement(args) -> int:
    frame = resolve_frame(args.input, args.exact, args.seed)
    print(stable_dumps(complement_document(frame, args.tol)))
    return EXIT_OK


def cmd_graph(args) -> int:
    frame, graph = _frame_or_graph(args, with_dim=False)
    if graph is None:
        graph = build_graph(frame, args.tol_zero)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph))
    else:
        print(stable_dumps(graph_document(graph)))
    return EXIT_OK


def _checked(convert, accept, requirement: str):
    """An argparse type: convert the option's text, then check the value;
    a rejected value exits 2 with argparse's error line."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    return parse


_TOL = _checked(float, lambda x: math.isfinite(x) and x > 0,
                "must be a finite number > 0")
_TOL_ZERO = _checked(float, lambda x: math.isfinite(x) and x >= 0,
                     "must be a finite number >= 0")
_DIM = _checked(int, lambda n: n >= 1, "must be a positive integer")


def _add_common(sub, input_optional=False):
    sub.add_argument("input", nargs="?" if input_optional else None,
                     help="frame file, corpus name, or generator call")
    sub.add_argument("--tol", type=_TOL, default=DEFAULT_TOL,
                     help="solver / Parseval tolerance (default 1e-8)")
    sub.add_argument("--tol-zero", type=_TOL_ZERO, default=DEFAULT_TOL_ZERO,
                     help="adjacency zero threshold (default 1e-10)")
    sub.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic; adjacency is then "
                          "exact and --tol-zero is not read")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for generator inputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Decide scalability of finite frames via graph filters "
                    "and an exact feasibility oracle.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full analysis: graph, filters, oracle")
    _add_common(p)
    p.add_argument("--filters-only", action="store_true",
                   help="skip the feasibility oracle")
    p.set_defaults(func=cmd_analyze, graph=None, dim=None)

    p = subs.add_parser("filters", help="filter battery only")
    _add_common(p, input_optional=True)
    p.add_argument("--graph", default=None,
                   help="abstract graph: corpus name, Kn/Cn/Pn/En/K_{a,b}, "
                        "or adjacency-matrix JSON file")
    p.add_argument("--dim", type=_DIM, default=None,
                   help="ambient dimension for --graph mode")
    p.set_defaults(func=cmd_analyze, filters_only=True)

    p = subs.add_parser("scale", help="feasibility oracle only")
    _add_common(p)
    p.set_defaults(func=cmd_scale)

    p = subs.add_parser("complement", help="Naimark complement of a Parseval frame")
    _add_common(p)
    p.set_defaults(func=cmd_complement)

    p = subs.add_parser("graph", help="export the frame graph (DOT or JSON)")
    _add_common(p, input_optional=True)
    p.add_argument("--graph", dest="graph", default=None,
                   help="abstract graph instead of a frame input")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FrameError, GraphError, corpus.CorpusError,
            ExactModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, JacobiConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the flush at exit cannot fail again, and exit with EXIT_PIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
