"""The report writer: byte-identical to the json-module encoding it replaced."""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from framescale import cli
from framescale.corpus import names
from framescale.report import stable_dumps

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
]


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


def test_unserializable_raises():
    with pytest.raises(TypeError):
        stable_dumps({"x": object()})
