"""The repository's scripts under tools/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_count_the_statements():
    snippet = '"""A docstring."""\n# a comment\n\nx = 1\ny = x  # trailing\n'
    assert code_lines.code_lines(snippet) == 2


def test_code_lines_keep_strings_that_are_no_docstring():
    # the class and def lines and both lines each of z and s count; the
    # docstrings of C and f drop out
    snippet = ('class C:\n    """Two\n    lines."""\n    z = (1,\n'
               '         2)\n    s = """not a\n    docstring"""\n\n'
               '    def f(self):\n        """F."""\n')
    assert code_lines.code_lines(snippet) == 6
