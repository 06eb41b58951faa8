"""The report writer: byte-identical to the json-module encoding it replaced."""

from __future__ import annotations

import ast
import copy
import importlib
import io
import json
import pickle
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from framescale import cli
from framescale.corpus import named_graph, names
from framescale.filters import (
    INCONCLUSIVE,
    NOT_SCALABLE,
    NOT_STRICTLY_SCALABLE,
    FilterBattery,
)
from framescale.frames import Frame
from framescale.graphs import FrameGraph
from framescale.report import (
    EdgeRows,
    _conclusion,
    analyze_frame,
    analyze_graph,
    graph_document,
    stable_dumps,
)
from framescale.scaler import OracleResult

_FLOAT_TOKEN = re.compile(r'"\\u0001F(\d+)\\u0001"')


def reference_dumps(obj) -> str:
    """json.dumps with sorted keys and a two-space indent, floats swapped
    for tokens first and written back at 17 significant digits."""
    floats: list[str] = []

    def walk(o):
        if isinstance(o, float):
            floats.append(format(o, ".17g"))
            return f"\x01F{len(floats) - 1}\x01"
        if isinstance(o, dict):
            return {k: walk(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [walk(x) for x in o]
        return o

    text = json.dumps(walk(obj), sort_keys=True, indent=2)
    return _FLOAT_TOKEN.sub(lambda m: floats[int(m.group(1))], text)


COMMANDS = [
    [command, name] + mode
    for name in names()
    for command in ("analyze", "filters", "scale", "complement")
    for mode in ([], ["--exact"])
] + [
    ["graph", name, "--format", "json"] + mode
    for name in names()
    for mode in ([], ["--exact"])
] + [
    # edge lists of up to 2016 rows
    [command, generator] + extra
    for generator in ("random_parseval(64,12)", "random_parseval(48,10)",
                      "random_frame(12,6)")
    for command, extra in (("analyze", ["--filters-only"]), ("filters", []),
                           ("graph", ["--format", "json"]))
] + [["analyze", "random_frame(12,6)", "--exact"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_corpus_commands(argv, monkeypatch):
    written = []

    def recording_dumps(obj):
        text = stable_dumps(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "stable_dumps", recording_dumps)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:  # a graph-only instance has no vectors to analyze
        assert not written
        return
    [(obj, text)] = written
    assert text == reference_dumps(obj)
    assert out.getvalue() == text + "\n"


def test_hand_built_object():
    obj = {
        "empty": {}, "empty_list": [], "nested": {"a": {}, "b": [[], [{}]]},
        "tuple": (1, (2, 3), ()), "ints": [0, -1, 10**40, True, False],
        "grid": [[1, 2], [3, 4]], "ragged": [[1], [2, 3]],
        "mixed_grid": [[1, True], [0.5, 2]], "empty_rows": [[], []],
        "strings": ["plain", "ünïcödé ☃", "tab\tnew\nline", "\x00\x01\x1f",
                    "quote\" back\\slash", "\u2028", "😀"],
        "\x7f key ü": None, "bools": [True, False, None],
        "floats": [-0.0, 0.0, 1e-300, 5e-324, 1.0, 0.1, 1 / 3, 1e16, 1e22,
                   -2.5e-8, float("nan"), float("inf"), float("-inf")],
        "big": -(10**30),
    }
    assert stable_dumps(obj) == reference_dumps(obj)
    assert stable_dumps([]) == "[]" and stable_dumps({}) == "{}"
    assert stable_dumps(-0.0) == "-0" and stable_dumps(float("nan")) == "nan"


class _Str(str):
    def __str__(self):
        return "not the text"


class _Int(int):
    """Like an IntEnum: its repr is not its JSON text."""

    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


class _Float(float):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def test_every_typed_path():
    """Leaves written inline in dicts and lists, lists of one leaf type,
    mixed lists, int rows, and subclasses of every leaf and container
    type, which take the isinstance path."""
    leaves = {"s": "x\u00e9", "i": -7, "f": 0.1, "t": True, "n": None,
              "big": 10**20, "nan": float("nan")}
    obj = {
        "leaves": leaves,
        "strs": ["a", "b\n", "\u2603"], "one_str": ["only"],
        "floats": [0.5, -0.0, 1e300], "nones": [None, None],
        "bools": [True, False], "ints_and_bools": [1, True, 0, False],
        "mixed": ["a", 1, 2.5, None, True, [], {}, ["b"], {"k": "v"}],
        "tuple": ("a", "b"), "tuple_of_tuples": ((1, 2), (3, 4)),
        "rows": [[1, 2], [3, 4]], "bool_rows": [[1, True], [0, 1]],
        "rows_in_tuple": ([1, 2], [3, 4]), "tuple_rows": [(1, 2), (3, 4)],
        "empty": [[], {}, (), ""], "nested": {"a": {"b": {"c": [[[]]]}}},
        "str_subclass": _Str("sub"), "int_subclass": _Int(5),
        "float_subclass": _Float(2.5),
        "subclass_lists": [[_Str("p"), _Str("q")], [_Int(1), _Int(2)],
                           [_Str("p"), "q"], [_Int(1), 2]],
        "dict_subclass": _Dict(b=1, a=[_Int(3)]),
        "list_subclass": _List(["x", _List([1, 2])]),
        _Str("subclass_key"): "value",
    }
    assert stable_dumps(obj) == reference_dumps(obj)
    for value in [*leaves.values(), _Str("s"), _Int(-1), _Float(0.25),
                  _Dict(), _List(), ["a"], (1,), [[1, 2]]]:
        assert stable_dumps(value) == reference_dumps(value)


def test_unserializable_raises():
    with pytest.raises(TypeError):
        stable_dumps({"x": object()})


@pytest.mark.parametrize("verdict", [NOT_STRICTLY_SCALABLE, NOT_SCALABLE])
def test_conclusion_flags_filter_oracle_contradiction(verdict):
    """A filter verdict against positive oracle weights is reported as an
    internal inconsistency; the oracle's answer stands."""
    strict = OracleResult("strictly_feasible", weights=(1, 1),
                          scalings=(1.0, 1.0), residual=0.0, margin=1)
    warnings = []
    conclusion = _conclusion(FilterBattery((), verdict, ()), strict, warnings)
    assert conclusion == {"verdict": "strictly_scalable", "basis": "oracle"}
    assert len(warnings) == 1
    assert warnings[0].startswith(f"internal inconsistency: a filter proved "
                                  f"{verdict} but the oracle found ")
    warnings = []
    _conclusion(FilterBattery((), INCONCLUSIVE, ()), strict, warnings)
    assert warnings == []


def sorted_edge_rows(g: FrameGraph) -> tuple:
    return tuple((i + 1, j + 1) for (i, j) in g.sorted_edges())


EDGE_ROW_NAMES = ["K1", "K2", "K7", "K40", "K64", "K70", "C3", "C9", "P2",
                  "P33", "E1", "E65", "K_{1,3}", "K_{2,5}", "K_{31,33}"]


def random_mask_graph(seed: int) -> FrameGraph:
    rng = random.Random(seed)
    m = rng.randint(1, 80)
    p = rng.choice([0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
    return FrameGraph(m, [(i, j) for i in range(m) for j in range(i + 1, m)
                          if rng.random() < p])


@pytest.mark.parametrize("name", EDGE_ROW_NAMES)
def test_edge_rows_of_named_graphs(name):
    g = named_graph(name)
    assert EdgeRows(g) == sorted_edge_rows(g)


@pytest.mark.parametrize("seed", range(30))
def test_edge_rows_of_random_masks(seed):
    g = random_mask_graph(seed)
    assert EdgeRows(g) == sorted_edge_rows(g)


@pytest.mark.parametrize("graph", [
    *(pytest.param(named_graph(name), id=name) for name in EDGE_ROW_NAMES),
    *(pytest.param(random_mask_graph(seed), id=f"seed{seed}")
      for seed in range(30)),
])
def test_edge_rows_write_as_lists(graph):
    """The edge-list writer gives the generic writer's text for the same
    rows as lists, at the depth of a report, of a graph document and of
    the top level."""
    rows = EdgeRows(graph)
    lists = [list(row) for row in rows]
    for place in (lambda e: {"graph": {"edges": e, "stats": {}}},
                  lambda e: {"edges": e, "vertex_count": 1},
                  lambda e: e):
        text = stable_dumps(place(rows))
        assert text == stable_dumps(place(lists))
        assert text == reference_dumps(place(lists))


def test_edge_rows_are_immutable_tuples():
    rows = EdgeRows(named_graph("C9"))
    assert isinstance(rows, tuple) and {type(row) for row in rows} == {tuple}
    assert not hasattr(rows, "append")
    with pytest.raises(TypeError):
        rows[0] = (1, 3)
    assert EdgeRows(named_graph("K1")) == EdgeRows(named_graph("E65")) == ()


def test_edge_rows_copies_are_plain_tuples():
    """A copy or a pickle is not an `EdgeRows`: only a graph builds one."""
    rows = EdgeRows(random_mask_graph(3))
    assert rows
    copies = [copy.copy(rows), copy.deepcopy(rows),
              copy.deepcopy({"edges": rows})["edges"]]
    copies += [pickle.loads(pickle.dumps(rows, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in copies:
        assert type(clone) is tuple and clone == rows
        assert stable_dumps({"edges": clone}) == stable_dumps({"edges": rows})


def test_documents_hold_edge_rows():
    frame = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], exact=True)
    graph = named_graph("P33")
    frame_rows = analyze_frame(frame)["graph"]["edges"]
    for rows in (frame_rows, analyze_graph(graph, 3)["graph"]["edges"],
                 graph_document(graph)["edges"]):
        assert type(rows) is EdgeRows
    assert frame_rows == ((1, 3), (2, 3))


# the one row of perfbench/spans.py whose callee the package no longer binds
_UNBOUND_SPANS = {("scaler.solve_scalable", "framescale.report",
                   "solve_scalable")}


def test_benchmark_span_bindings_resolve():
    """Every (module, attribute) the benchmark's tracer wraps is a callable
    the package still binds: a binding lost when code moves between
    modules would read as a span of 0 calls.  TARGETS is read from the
    source, without running the benchmark's modules."""
    source = (Path(__file__).parents[1] / "perfbench" / "spans.py").read_text()
    (targets,) = [ast.literal_eval(node.value)
                  for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TARGETS"]]
    unbound = {row for row in targets
               if not callable(getattr(importlib.import_module(row[1]),
                                       row[2], None))}
    assert targets and unbound <= _UNBOUND_SPANS


# the public functions that only tests call: tests/test_acceptance.py
# imports each of them, and it is kept as it is
_TEST_ONLY = {"frame_operator", "scale_frame", "symmetric_eigs",
              "zero_pattern_equal"}


def _code_words(tree, skip=None):
    """The identifiers a module's code names, and the words of its string
    literals other than docstrings (comments are not in the tree), with
    the subtree ``skip`` left out."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    words, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"\w+", node.value))
    return words


def _public_defs(tree):
    """(qualified name, node) of each public function and of each public
    method of a public class, at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            yield node.name, node


def test_no_public_helper_only_tests_call():
    """Every public function and method of the package is named by code
    outside its own definition: in its module, in another module (the
    re-exports of __init__.py aside), or in perfbench/ or tools/, the
    benchmark's span table included.  The only exceptions are the
    helpers that the acceptance tests import."""
    root = Path(__file__).parents[1]
    package = {path: ast.parse(path.read_text())
               for path in sorted((root / "src" / "framescale").glob("*.py"))
               if path.name != "__init__.py"}
    words = {path: _code_words(tree) for path, tree in package.items()}
    scripts = set().union(*(_code_words(ast.parse(path.read_text()))
                            for folder in ("perfbench", "tools")
                            for path in sorted((root / folder).glob("*.py"))))
    unused = set()
    for path, tree in package.items():
        named = scripts.union(*(w for p, w in words.items() if p != path))
        for qualname, node in _public_defs(tree):
            if (node.name not in named
                    and node.name not in _code_words(tree, skip=node)):
                unused.add(qualname)
    assert unused == _TEST_ONLY
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    assert _TEST_ONLY <= _code_words(acceptance)


def test_benchmark_imports_resolve():
    """Every name the benchmark's scripts import from the package, at
    module level or inside a function, is still bound where they import
    it: a move that drops one breaks every benchmark run."""
    checked, missing = set(), []
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports = [(alias.name, ()) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports = [(node.module, [a.name for a in node.names])]
            else:
                continue
            for module, names in imports:
                if module.partition(".")[0] != "framescale":
                    continue
                bound = importlib.import_module(module)
                checked.update((module, name) for name in names)
                missing += [f"{path.name}: {module}.{name}" for name in names
                            if not hasattr(bound, name)]
    assert {("framescale.scaler", "verify_weights"),
            ("framescale.scaler", "verify_farkas")} <= checked
    assert not missing
