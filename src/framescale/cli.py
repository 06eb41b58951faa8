"""Command-line front end: file I/O, analysis orchestration, JSON reports.

Frame files are JSON objects {"dimension": n, "vectors": [[...], ...]} with
numbers given as decimal strings or "p/q" rationals (plain JSON numbers are
accepted too), or CSV with one vector per row.  Vectors are the frame
elements themselves, one list per vector.

Exit codes: 0 analysis completed (whatever the verdict), 2 malformed input
or dimension mismatch, 3 numerical solver failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys

from . import corpus
from .exactnum import ExactModeError, parse_exact
from .frames import Frame, FrameError, naimark_complement
from .graphs import (
    DEFAULT_VERTEX_CAP,
    FrameGraph,
    GraphError,
    build_graph,
    export_dot,
)
from .linalg import JacobiConvergenceError
from .report import (
    REPORT_VERSION,
    AnalysisConfig,
    analyze_frame,
    analyze_graph,
    oracle_json,
    stable_dumps,
)
from .scaler import SolverError, build_lp, solve_strict

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3

_GENERATOR = re.compile(r"^(\w+)\(([\d,\s]*)\)$")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _parse_number(x, exact: bool):
    if exact:
        if isinstance(x, str):
            return parse_exact(x)
        if isinstance(x, int):
            return parse_exact(x)
        raise FrameError(
            f"exact mode needs integer or string entries, got {x!r}"
        )
    if isinstance(x, str):
        if "/" in x:
            return float(parse_exact(x))
        return float(x)
    return float(x)


def _frame_from_json(data, exact: bool) -> Frame:
    if not isinstance(data, dict) or "dimension" not in data or "vectors" not in data:
        raise FrameError('frame file needs "dimension" and "vectors" keys')
    n = data["dimension"]
    if not isinstance(n, int) or n < 1:
        raise FrameError(f"dimension must be a positive integer, got {n!r}")
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise FrameError("vectors must be a non-empty list")
    parsed = []
    for vec in vectors:
        if not isinstance(vec, list) or len(vec) != n:
            raise FrameError(
                f"every vector must have {n} entries, got {vec!r}"
            )
        parsed.append([_parse_number(x, exact) for x in vec])
    return Frame.from_vectors(parsed, exact=exact)


def _frame_from_csv(text: str, exact: bool) -> Frame:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise FrameError("empty CSV input")
    vectors = [[_parse_number(x.strip(), exact) for x in row] for row in rows]
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
            if kind == "onb":
                frame = corpus.onb(*args)
            elif kind == "random_frame":
                frame = corpus.random_frame(*args, seed=seed)
            elif kind == "random_parseval":
                from .frames import random_parseval

                frame = random_parseval(*args, seed=seed)
            elif kind == "cycle_pattern_frame":
                frame = corpus.cycle_pattern_frame(*args, seed=seed)
            else:
                raise CliError(f"unknown generator {kind!r}")
        else:
            frame = load_frame_file(spec, exact)
    if exact and not frame.is_exact:
        raise CliError(f"{spec} has no exact representation; drop --exact")
    if not exact and frame.is_exact:
        frame = frame.to_float()
    return frame


def _graph_from_json(data) -> FrameGraph:
    if isinstance(data, dict) and "adjacency" in data:
        data = data["adjacency"]
    if not isinstance(data, list) or not data:
        raise GraphError("graph file needs an adjacency matrix")
    m = len(data)
    edges = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != m:
            raise GraphError("adjacency matrix must be square")
        for j, x in enumerate(row):
            # exact ints only: JSON true and 1.0 compare equal to 1
            if type(x) is not int or x not in (0, 1):
                raise GraphError(
                    f"adjacency entry ({i + 1},{j + 1}) must be 0 or 1")
            if j < i and x != data[j][i]:
                raise GraphError(
                    f"adjacency matrix is not symmetric at ({j + 1},{i + 1})")
        if row[i]:
            raise GraphError(
                f"adjacency diagonal entry ({i + 1},{i + 1}) must be 0")
        edges += [(i, j) for j in range(i + 1, m) if row[j]]
    return FrameGraph(m, edges)


def resolve_graph(spec: str) -> FrameGraph:
    """A graph argument is a corpus name, a named graph (K4, C7, K_{1,3},
    P5, E3), or a JSON adjacency-matrix file."""
    if spec in corpus.names():
        inst = corpus.load(spec)
        if inst.graph is not None:
            return inst.graph
        return build_graph(inst.frame, 0 if inst.frame.is_exact else 1e-10)
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


def _config(args, filters_only: bool = False) -> AnalysisConfig:
    return AnalysisConfig(
        tol=args.tol,
        tol_zero=args.tol_zero,
        filters_only=filters_only or getattr(args, "filters_only", False),
        enable_experimental=args.enable_experimental_filters,
        vertex_cap=DEFAULT_VERTEX_CAP,
    )


def cmd_analyze(args) -> int:
    frame = resolve_frame(args.input, args.exact, args.seed)
    report = analyze_frame(frame, _config(args), source=args.input)
    print(stable_dumps(report))
    return EXIT_OK


def cmd_filters(args) -> int:
    if args.graph is not None:
        if args.dim is None:
            raise CliError("--graph requires an explicit --dim")
        graph = resolve_graph(args.graph)
        report = analyze_graph(graph, args.dim, _config(args, True),
                               source=args.graph)
    else:
        if args.input is None:
            raise CliError("give a frame input or --graph NAME --dim N")
        frame = resolve_frame(args.input, args.exact, args.seed)
        report = analyze_frame(frame, _config(args, True), source=args.input)
    print(stable_dumps(report))
    return EXIT_OK


def cmd_scale(args) -> int:
    frame = resolve_frame(args.input, args.exact, args.seed)
    out = {
        "report_version": REPORT_VERSION,
        "input": {"source": args.input, "m": frame.count, "n": frame.dim,
                  "scalar_mode": frame.scalar_mode, "tol": args.tol},
        **oracle_json(solve_strict(build_lp(frame), args.tol)),
    }
    print(stable_dumps(out))
    return EXIT_OK


def cmd_complement(args) -> int:
    frame = resolve_frame(args.input, False, args.seed)
    comp = naimark_complement(frame, args.tol)
    out = {
        "dimension": comp.dim,
        "vectors": [
            [format(float(x), ".17g") for x in vec] for vec in comp.vectors
        ],
    }
    print(stable_dumps(out))
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.graph is not None:
        graph = resolve_graph(args.graph)
    else:
        if args.input is None:
            raise CliError("give a frame input or --graph NAME")
        frame = resolve_frame(args.input, args.exact, args.seed)
        tol_zero = 0.0 if frame.is_exact else args.tol_zero
        graph = build_graph(frame, tol_zero)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph))
    else:
        out = {
            "vertex_count": graph.vertex_count,
            "edges": [[i + 1, j + 1] for (i, j) in graph.sorted_edges()],
            "flags": {
                f"v{v + 1}": sorted(flags)
                for v, flags in sorted(graph.vertex_flags.items())
            },
        }
        print(stable_dumps(out))
    return EXIT_OK


def _add_common(sub, with_input=True, input_optional=False):
    if with_input:
        if input_optional:
            sub.add_argument("input", nargs="?", default=None,
                             help="frame file, corpus name, or generator call")
        else:
            sub.add_argument("input",
                             help="frame file, corpus name, or generator call")
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="solver / Parseval tolerance (default 1e-8)")
    sub.add_argument("--tol-zero", type=float, default=1e-10,
                     help="adjacency zero threshold (default 1e-10)")
    sub.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic (tol-zero becomes 0)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for generator inputs")
    sub.add_argument("--enable-experimental-filters", action="store_true",
                     help="let experimental filters contribute verdicts")


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
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("filters", help="filter battery only")
    _add_common(p, input_optional=True)
    p.add_argument("--graph", default=None,
                   help="abstract graph: corpus name, Kn/Cn/Pn/En/K_{a,b}, "
                        "or adjacency-matrix JSON file")
    p.add_argument("--dim", type=int, default=None,
                   help="ambient dimension for --graph mode")
    p.set_defaults(func=cmd_filters)

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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FrameError, GraphError, corpus.CorpusError, ExactModeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, JacobiConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
