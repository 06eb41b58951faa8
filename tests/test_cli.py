"""Command-line interface: commands, exit codes, byte stability."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import framescale
from framescale import scaler
from framescale.cli import (
    EXIT_PIPE,
    _add_common,
    build_parser,
    load_frame_file,
    main,
)
from framescale.exactnum import QuadExt
from framescale.frames import Frame
from framescale.scaler import verify_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_m1_not_scalable(self, capsys):
        code, out, _ = run(capsys, "analyze", "paper/M1", "--exact")
        assert code == 0
        report = json.loads(out)
        assert report["report_version"] == 3
        assert report["conclusion"]["verdict"] == "not_scalable"
        assert report["graph"]["edges"] == [[1, 2], [3, 4]]
        assert report["oracle"]["nonneg"]["status"] == "infeasible"
        assert "farkas" in report["oracle"]["nonneg"]
        fired = [f["filter_id"] for f in report["filters"]
                 if f["verdict"] == "not_scalable"]
        assert "square_nonempty" in fired

    def test_m_filters_only(self, capsys):
        code, out, _ = run(capsys, "analyze", "paper/M", "--exact",
                           "--filters-only")
        assert code == 0
        report = json.loads(out)
        assert report["conclusion"]["verdict"] == "inconclusive"
        assert report["oracle"] == {"skipped": True}

    def test_mercedes_strictly_scalable(self, capsys):
        code, out, _ = run(capsys, "analyze", "canonical/mercedes", "--exact")
        report = json.loads(out)
        assert code == 0
        assert report["conclusion"]["verdict"] == "strictly_scalable"
        scalings = report["oracle"]["strict"]["scalings"]
        assert scalings == pytest.approx([math.sqrt(2 / 3)] * 3)

    def test_float_mode_default(self, capsys):
        code, out, _ = run(capsys, "analyze", "paper/M1")
        report = json.loads(out)
        assert code == 0
        assert report["input"]["scalar_mode"] == "float64"
        assert report["conclusion"]["verdict"] == "not_scalable"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == 2 and err

    def test_byte_identical_runs(self, capsys):
        outputs = {run(capsys, "analyze", "paper/M", "--exact")[1]
                   for _ in range(3)}
        assert len(outputs) == 1

    def test_not_spanning_warns(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dimension": 2,
                                    "vectors": [[1, 0], [2, 0]]}))
        code, out, _ = run(capsys, "analyze", str(path), "--exact")
        assert code == 0
        assert "input does not span R^n (not a frame)" in \
            json.loads(out)["warnings"]

    def test_numerically_ambiguous_in_float_only(self, capsys):
        spec = "random_frame(20,7)"
        code, out, _ = run(capsys, "analyze", spec, "--seed", "56")
        report = json.loads(out)
        assert code == 0
        assert report["conclusion"] == {"verdict": "numerically_ambiguous",
                                        "basis": "oracle"}
        assert report["oracle"]["strict"]["detail"] == (
            "phase-1 positive but the dual certificate does not verify at "
            "this tolerance")
        code, out, _ = run(capsys, "analyze", spec, "--seed", "56", "--exact")
        assert code == 0
        assert json.loads(out)["conclusion"]["verdict"] == "not_scalable"


class TestInputErrors:
    """Each malformed input or missing argument exits 2 with one error
    line and no traceback.  ``{path}`` is a file holding ``text``, or no
    file when ``text`` is None."""

    @pytest.mark.parametrize("argv, text, message", [
        (["analyze", "{path}"], '{"dim": 2}', '"dimension" and "vectors"'),
        (["analyze", "{path}"], '{"dimension": 2, "vectors": []}',
         "non-empty list"),
        (["analyze", "{path}"], "", "empty CSV input"),
        (["analyze", "{path}"], "1,0\n1\n", "inconsistent lengths"),
        (["filters", "--graph", "{path}", "--dim", "2"],
         '{"edges": [[1, 2]]}', "needs an adjacency matrix"),
        (["filters", "--graph", "{path}", "--dim", "2"], None,
         "cannot read graph"),
        (["filters", "--graph", "{path}", "--dim", "2"], "{not json",
         "invalid JSON"),
        (["filters"], None, "give a frame input or --graph"),
        (["graph"], None, "give a frame input or --graph"),
        (["filters", "paper/M1", "--graph", "C4", "--dim", "2"], None,
         "not both"),
        (["graph", "paper/M1", "--graph", "C4"], None, "not both"),
        (["filters", "paper/M1", "--exact", "--dim", "7"], None,
         "--dim applies only to --graph"),
        (["filters", "--graph", "NOPE"], None,
         "error: --graph requires an explicit --dim\n"),
        # braces doubled for str.format
        (["filters", "--graph", "K_{{-1,2}}", "--dim", "1"], None,
         "cannot read graph 'K_{-1,2}'"),
        (["filters", "--graph", "K_{{1,2,3}}", "--dim", "1"], None,
         "cannot read graph 'K_{1,2,3}'"),
    ], ids=["frame_keys", "no_vectors", "empty_csv", "ragged_csv",
            "graph_not_adjacency", "graph_unreadable", "graph_bad_json",
            "filters_no_input", "graph_no_input", "filters_frame_and_graph",
            "graph_frame_and_graph", "filters_dim_without_graph",
            "filters_graph_without_dim", "graph_negative_size",
            "graph_three_sizes"])
    def test_exit_2(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err


class TestFileInput:
    def test_json_frame_file(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "vectors": [["1", "0"], ["0", "1"], ["1/2", "1/2"]],
        }))
        code, out, _ = run(capsys, "analyze", str(path), "--exact")
        assert code == 0
        assert json.loads(out)["input"]["m"] == 3

    def test_csv_frame_file(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("1,0\n0,1\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["conclusion"]["verdict"] == "strictly_scalable"

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": 3, "vectors": [["1", "0"]],
        }))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "3" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "analyze", str(path))[0] == 2


class TestBadNumbers:
    """Entries that are not finite reals exit 2 with a FrameError message."""

    @pytest.mark.parametrize("name, text, exact, message", [
        ("f.json", '{"dimension": 2, "vectors": [["1/0", "1"], ["0", "1"]]}',
         True, "zero denominator"),
        ("f.json", '{"dimension": 2, "vectors": [["1/0", "1"], ["0", "1"]]}',
         False, "zero denominator"),
        ("f.csv", "1/0,1\n0,1\n", True, "zero denominator"),
        ("f.csv", "1/0,1\n0,1\n", False, "zero denominator"),
        ("f.json", '{"dimension": 2, "vectors": [["nan", "1"], ["0", "1"]]}',
         False, "non-finite"),
        ("f.json", '{"dimension": 2, "vectors": [["1e999", "1"], ["0", "1"]]}',
         False, "non-finite"),
        ("f.json", '{"dimension": 2, "vectors": [[NaN, 1], [0, 1]]}',
         False, "non-finite"),
    ], ids=["zero_den_json_exact", "zero_den_json_float", "zero_den_csv_exact",
            "zero_den_csv_float", "nan_float", "overflow_float",
            "json_nan_literal_float"])
    def test_exit_2(self, tmp_path, capsys, name, text, exact, message):
        path = tmp_path / name
        path.write_text(text)
        argv = ["analyze", str(path)] + (["--exact"] if exact else [])
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and message in err


class TestMalformedEntries:
    """An entry that is not a number, a decimal string or a "p/q" string
    exits 2 with an error line in both modes; booleans are not numbers."""

    ENTRIES = ["null", "[1]", "{}", "true", '"abc"', '"1/0"']

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("command", ["analyze", "scale", "filters"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_exit_2(self, tmp_path, capsys, entry, command, exact):
        path = tmp_path / "f.json"
        path.write_text('{"dimension": 2, "vectors": [[1, %s], [0, 1]]}'
                        % entry)
        argv = [command, str(path)] + (["--exact"] if exact else [])
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["1" * 400, '"%s/3"' % ("1" * 400)])
    def test_beyond_the_float_range(self, tmp_path, capsys, entry):
        """Exact mode reads such an entry; float mode cannot hold it."""
        path = tmp_path / "f.json"
        path.write_text('{"dimension": 2, "vectors": [[%s, 0], [0, 1]]}'
                        % entry)
        code, out, err = run(capsys, "analyze", str(path), "--filters-only")
        assert code == 2 and not out
        assert err.startswith("error: entry beyond the float range")
        code, out, err = run(capsys, "analyze", str(path), "--filters-only",
                             "--exact")
        assert code == 0 and not err

    def test_mixed_vector_takes_the_entry_parser(self, tmp_path, capsys):
        """A "p/q" string next to plain entries is read exactly, then
        rounded once."""
        path = tmp_path / "f.json"
        path.write_text('{"dimension": 2, "vectors": '
                        '[["1/3", 0.5], [" 2.5 ", 1], [0, "1e-3"]]}')
        code, out, _ = run(capsys, "graph", str(path), "--format", "json")
        assert code == 0
        frame = load_frame_file(str(path), exact=False)
        assert frame.vectors == ((1 / 3, 0.5), (2.5, 1.0), (0.0, 1e-3))


class TestEntryBeyondFloatRange:
    """An exact entry of 10^999 needs no float: the weights are checked on
    the integer image, and the exact residual is 0.  The vector holding it
    takes weight 0 here; a positive weight on it has a scaling below
    10^-999, which TestEntryBelowFloatRange answers with exit 3."""

    @pytest.mark.parametrize("command", ["scale", "analyze"])
    def test_boundary(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_text('{"dimension": 2, "vectors": '
                        '[["1", "0"], ["0", "1"], ["3e999", "4e999"]]}')
        code, out, err = run(capsys, command, str(path), "--exact")
        assert code == 0 and not err
        report = json.loads(out)
        strict = (report["oracle"] if command == "analyze" else report)["strict"]
        assert strict["status"] == "boundary"
        assert strict["residual"] == 0.0 and strict["scalings"] == [1, 1, 0]
        big = 10 ** 999
        frame = Frame.from_vectors([[1, 0], [0, 1], [3 * big, 4 * big]],
                                   exact=True)
        weights = [Fraction(w) for w in strict["weights"]]
        assert weights == [1, 1, 0]
        assert verify_weights(frame, weights).residual == 0


class TestEntryBelowFloatRange:
    """An exact entry of 10^-170 has weight 10^340, beyond the float range,
    and scaling 10^170, inside it; at 10^-999 the scaling is beyond it too,
    which is a solver error.  So is an entry of 10^999, whose scaling
    10^-999 lies below the normal floats: rounded, it would read 0 for a
    positive weight."""

    @staticmethod
    def write(tmp_path, entry):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"dimension": 2, "vectors": [[entry, "0"], ["0", "1"]]}))
        return str(path)

    @pytest.mark.parametrize("command", ["scale", "analyze"])
    def test_scaling_inside_float_range(self, tmp_path, capsys, command):
        code, out, err = run(capsys, command, self.write(tmp_path, "1e-170"),
                             "--exact")
        assert code == 0 and not err
        report = json.loads(out)
        strict = (report["oracle"] if command == "analyze" else report)["strict"]
        assert strict["status"] == "strictly_feasible"
        assert strict["scalings"][0] == pytest.approx(1e170, rel=1e-15)
        assert strict["scalings"][1] == 1
        frame = Frame.from_vectors([[Fraction(1, 10 ** 170), 0], [0, 1]],
                                   exact=True)
        weights = [Fraction(w) for w in strict["weights"]]
        assert weights[0] == 10 ** 340
        assert verify_weights(frame, weights).residual == 0

    @pytest.mark.parametrize("command", ["scale", "analyze"])
    def test_scaling_beyond_float_range_exit_3(self, tmp_path, capsys,
                                               command):
        code, out, err = run(capsys, command, self.write(tmp_path, "1e-999"),
                             "--exact")
        assert code == 3 and not out
        assert err.startswith("solver error:")

    @pytest.mark.parametrize("command", ["scale", "analyze"])
    def test_scaling_below_normal_floats_exit_3(self, tmp_path, capsys,
                                                command):
        code, out, err = run(capsys, command, self.write(tmp_path, "1e999"),
                             "--exact")
        assert code == 3 and not out
        assert err.startswith("solver error:")

    def test_quadratic_weight_below_float_range(self):
        """Library only: over Q(sqrt 3) the entry 10^200 + sqrt 3 has a
        weight near 10^-400, below the floats, and a scaling near 10^-200,
        inside them."""
        frame = Frame.from_vectors([[QuadExt(3, 10 ** 200, 1), 0], [0, 1]],
                                   exact=True)
        answer = scaler.solve_strict(scaler.build_lp(frame))
        assert answer.status == "strictly_feasible"
        assert answer.scalings[0] == pytest.approx(
            1 / (1e200 + math.sqrt(3)), rel=1e-15, abs=0)
        assert answer.scalings[1] == 1
        assert verify_weights(frame, answer.weights).residual == 0


class TestExperimentalContradiction:
    # path vectors e1, e1+e2, e2+e3, e3 plus the columns of the LDL^t
    # factor of I - (1/10) sum f f^t over them: strictly scalable, with an
    # induced path on 4 = min(3, 7 - 3) + 1 vertices, where the bound is
    # tight.  The experimental induced-path filter, with its threshold
    # n // 2 + 2 and its opt-in flag, contradicted the oracle here.
    FRAME = {"dimension": 3, "vectors": [
        ["1", "0", "0"], ["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"],
        ["1", "-1/8", "0"], ["0", "1", "-8/63"], ["0", "0", "1"]]}

    def test_default_battery_quiet(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self.FRAME))
        code, out, _ = run(capsys, "analyze", str(path), "--exact")
        report = json.loads(out)
        assert code == 0 and report["warnings"] == []
        assert report["graph"]["stats"]["induced_path_vertices"] == 4
        assert {f["verdict"] for f in report["filters"]} == {"inconclusive"}
        assert report["combined_filter_verdict"] == "inconclusive"
        assert report["oracle"]["strict"]["status"] == "strictly_feasible"
        assert report["conclusion"]["verdict"] == "strictly_scalable"

    def test_experimental_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self.FRAME))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "analyze", str(path), "--exact",
                "--enable-experimental-filters")
        assert exc.value.code == 2
        assert "--enable-experimental-filters" in capsys.readouterr().err


def _cli_section_flags():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n")[1].split("\n## ")[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


class TestReadmeFlags:
    """The CLI section of README.md names only options that exist, and
    every option shared by all commands."""

    def test_named_flags_exist(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        options = {opt for sub in commands.choices.values()
                   for action in sub._actions for opt in action.option_strings}
        assert _cli_section_flags() <= options

    def test_common_flags_named(self):
        probe = argparse.ArgumentParser()
        _add_common(probe)
        common = {opt for action in probe._actions
                  for opt in action.option_strings} - {"-h", "--help"}
        assert common <= _cli_section_flags()


class TestDataQualityWarning:
    """Parallel adjacent vectors with different closed neighbourhoods point
    at a misjudged zero tolerance."""

    @staticmethod
    def warnings(tmp_path, capsys, vectors):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"dimension": 2, "vectors": vectors}))
        code, out, err = run(capsys, "analyze", str(path), "--filters-only")
        assert code == 0 and not err
        return json.loads(out)["warnings"]

    def test_split_neighbourhoods_warn(self, tmp_path, capsys):
        # <v2, v3> = 1.2e-10 clears the default tol_zero, <v1, v3> = 6e-11
        # does not, so the parallel pair v1, v2 sees v3 differently
        vectors = [["1", "0"], ["2", "0"], ["6e-11", "1"], ["0", "1"]]
        assert self.warnings(tmp_path, capsys, vectors) == [
            "parallel adjacent vectors v1, v2 have different closed "
            "neighborhoods; check tol_zero"
        ]

    def test_equal_neighbourhoods_silent(self, tmp_path, capsys):
        vectors = [["1", "0"], ["2", "0"], ["1", "1"], ["-1", "1"]]
        assert self.warnings(tmp_path, capsys, vectors) == []


class TestGraphFile:
    def filters(self, tmp_path, capsys, adjacency):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"adjacency": adjacency}))
        return run(capsys, "filters", "--graph", str(path), "--dim", "2")

    def test_path_p3_accepted(self, tmp_path, capsys):
        code, out, _ = self.filters(tmp_path, capsys,
                                    [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert code == 0
        assert json.loads(out)["graph"]["edges"] == [[1, 2], [2, 3]]

    def test_upper_triangle_alone_not_trusted(self, tmp_path, capsys):
        # a loop, an asymmetric pair and a string entry, all below or on
        # the diagonal
        code, _, err = self.filters(tmp_path, capsys,
                                    [[1, 1, 0], [0, 0, "x"], [1, 0, 0]])
        assert code == 2 and "adjacency" in err

    @pytest.mark.parametrize("entry", ["x", 2, -1, True, 1.0, None, [1]])
    def test_entry_not_0_or_1_exit_2(self, tmp_path, capsys, entry):
        code, _, err = self.filters(tmp_path, capsys,
                                    [[0, entry], [entry, 0]])
        assert code == 2 and "must be 0 or 1" in err

    def test_nonzero_diagonal_exit_2(self, tmp_path, capsys):
        code, _, err = self.filters(tmp_path, capsys, [[0, 1], [1, 1]])
        assert code == 2 and "diagonal" in err

    def test_asymmetric_exit_2(self, tmp_path, capsys):
        code, _, err = self.filters(tmp_path, capsys,
                                    [[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        assert code == 2 and "not symmetric at (1,2)" in err

    def test_not_square_exit_2(self, tmp_path, capsys):
        code, _, err = self.filters(tmp_path, capsys, [[0, 1], [1, 0, 0]])
        assert code == 2 and "square" in err


class TestFilters:
    def test_graph_star_dim3(self, capsys):
        code, out, _ = run(capsys, "filters", "--graph", "K_{1,3}",
                           "--dim", "3")
        report = json.loads(out)
        assert code == 0
        assert report["combined_filter_verdict"] == "not_strictly_scalable"
        alpha = next(f for f in report["filters"] if f["filter_id"] == "alpha")
        assert alpha["verdict"] == "not_strictly_scalable"

    def test_graph_c7_dim5(self, capsys):
        code, out, _ = run(capsys, "filters", "--graph", "C7", "--dim", "5")
        report = json.loads(out)
        assert report["combined_filter_verdict"] == "not_scalable"

    def test_graph_c4_dim2_inconclusive(self, capsys):
        # C4 in R^2: balanced bipartite, diameter 2, alpha within bounds,
        # too short for the cycle condition; every filter stays quiet
        code, out, _ = run(capsys, "filters", "--graph", "C4", "--dim", "2")
        assert json.loads(out)["combined_filter_verdict"] == "inconclusive"

    def test_graph_c4_dim3_alpha_fires(self, capsys):
        # alpha(C4) = 2 > m - n = 1: no Parseval frame of 4 nonzero vectors
        # in R^3 realizes C4 (its rank-1 complement would need zeros)
        code, out, _ = run(capsys, "filters", "--graph", "C4", "--dim", "3")
        assert json.loads(out)["combined_filter_verdict"] == \
            "not_strictly_scalable"

    def test_graph_requires_dim(self, capsys):
        assert run(capsys, "filters", "--graph", "C4")[0] == 2

    def test_corpus_graph_dim7(self, capsys):
        code, out, _ = run(capsys, "filters", "--graph",
                           "paper/graph-K2K2-join-K13", "--dim", "7")
        report = json.loads(out)
        assert report["combined_filter_verdict"] == "not_strictly_scalable"
        alpha = next(f for f in report["filters"] if f["filter_id"] == "alpha")
        assert alpha["verdict"] == "not_strictly_scalable"
        assert alpha["certificate"]["alpha"] == 3

    def test_frame_input_skips_oracle(self, capsys):
        code, out, _ = run(capsys, "filters", "paper/M2", "--exact")
        report = json.loads(out)
        assert report["oracle"] == {"skipped": True}

    def test_corpus_frame_as_graph(self, capsys):
        """--graph on a corpus frame builds that frame's graph."""
        code, out, _ = run(capsys, "filters", "--graph", "paper/M1",
                           "--dim", "4")
        _, frame_out, _ = run(capsys, "filters", "paper/M1", "--exact")
        assert code == 0
        assert json.loads(out)["graph"] == json.loads(frame_out)["graph"]


class TestScale:
    def test_m1_certificate(self, capsys):
        code, out, _ = run(capsys, "scale", "paper/M1", "--exact")
        report = json.loads(out)
        assert code == 0
        assert report["nonneg"]["status"] == "infeasible"
        assert "farkas" in report["nonneg"]

    def test_mercedes(self, capsys):
        code, out, _ = run(capsys, "scale", "canonical/mercedes", "--exact")
        report = json.loads(out)
        assert report["strict"]["status"] == "strictly_feasible"
        assert report["strict"]["margin"] == "2/3"

    def test_onb_unit_weights(self, capsys):
        code, out, _ = run(capsys, "scale", "onb(3)", "--exact")
        report = json.loads(out)
        assert report["nonneg"]["weights"] == ["1", "1", "1"]
        assert report["nonneg"]["scalings"] == [1.0, 1.0, 1.0]

    def test_nonneg_block_is_the_strict_answer(self, capsys):
        _, out, _ = run(capsys, "scale", "canonical/mercedes", "--exact")
        report = json.loads(out)
        assert report["nonneg"]["status"] == "feasible"
        assert "margin" not in report["nonneg"]
        assert report["nonneg"]["weights"] == report["strict"]["weights"]
        _, out, _ = run(capsys, "scale", "paper/M1", "--exact")
        report = json.loads(out)
        assert report["nonneg"]["farkas"] == report["strict"]["farkas"]

    def test_pivot_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(scaler, "PIVOT_CAP_FACTOR", 0)
        code, out, err = run(capsys, "scale", "canonical/mercedes", "--exact")
        assert code == 3 and not out and "pivot cap" in err


class TestOneSolve:
    """One solve answers both oracle questions: the Gram solve on M1, whose
    Hadamard Gram matrix is nonsingular, and one simplex run on Mercedes,
    whose entries lie in Q(sqrt 3)."""

    @pytest.mark.parametrize("command", ["analyze", "scale"])
    @pytest.mark.parametrize("frame", ["paper/M1", "canonical/mercedes"])
    def test_phase1_runs_once(self, capsys, monkeypatch, command, frame):
        calls = []
        phase1 = scaler._phase1

        def counted(*args):
            calls.append(args)
            return phase1(*args)

        monkeypatch.setattr(scaler, "_phase1", counted)
        code, _, _ = run(capsys, command, frame, "--exact")
        runs = {"paper/M1": 0, "canonical/mercedes": 1}[frame]
        assert code == 0 and len(calls) == runs


class TestComplement:
    def test_random_parseval(self, capsys):
        code, out, _ = run(capsys, "complement", "random_parseval(5,2)",
                           "--seed", "4")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 3 and len(data["vectors"]) == 5

    def test_complement_roundtrips_through_file(self, tmp_path, capsys):
        code, out, _ = run(capsys, "complement", "random_parseval(6,2)",
                           "--seed", "9")
        path = tmp_path / "comp.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "analyze", str(path))
        assert code2 == 0
        assert json.loads(out2)["input"]["tightness"]["kind"] == "parseval"

    def test_non_parseval_exit_2(self, capsys):
        code, _, err = run(capsys, "complement", "paper/M1")
        assert code == 2 and err

    @pytest.mark.parametrize("spec, message", [
        ("random_parseval(5,2)", "has no exact representation"),
        ("paper/M1", "irrational output"),
    ])
    def test_exact_exit_2(self, capsys, spec, message):
        code, out, err = run(capsys, "complement", spec, "--seed", "4",
                             "--exact")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


class TestGraphCmd:
    def test_m1_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "paper/M1", "--exact")
        assert code == 0
        assert "v1 -- v2;" in out and "v3 -- v4;" in out

    def test_onb_edgeless_dot(self, capsys):
        _, out, _ = run(capsys, "graph", "onb(2)")
        assert "--" not in out and "v1;" in out

    def test_m2_star_dot(self, capsys):
        _, out, _ = run(capsys, "graph", "paper/M2", "--exact")
        assert out.count("v1 --") == 3

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "graph", "paper/M1", "--exact",
                        "--format", "json")
        data = json.loads(out)
        assert data["edges"] == [[1, 2], [3, 4]]

    def test_abstract_graph(self, capsys):
        _, out, _ = run(capsys, "graph", "--graph", "C5")
        assert out.count("--") == 5

    def test_corpus_frame_as_graph(self, capsys):
        code, out, _ = run(capsys, "graph", "--graph", "canonical/mercedes")
        assert code == 0
        assert out == run(capsys, "graph", "canonical/mercedes", "--exact")[1]

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_exact_frame_ignores_tol_zero(self, capsys, fmt):
        argv = ["graph", "paper/M", "--exact", "--format", fmt]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--tol-zero", "0.5") == plain


class TestFlaggedVertexKeepsEdges:
    """A float vector with <u, u> <= tol_zero is flagged zero_vector even
    when its products with other vectors clear tol_zero and keep edges:
    here <v1, v1> = 1e-12 and <v1, v2> = <v1, v4> = 1e-6."""

    VECTORS = [["1e-6", "0"], ["1e6", "1"], ["0", "1"], ["1", "1"]]

    def test_outputs(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"dimension": 2, "vectors": self.VECTORS}))
        code, dot, err = run(capsys, "graph", str(path))
        assert code == 0 and not err
        assert '  v1 [flags="zero_vector"];' in dot.splitlines()
        assert "  v1 -- v2;" in dot and "  v1 -- v4;" in dot
        _, doc, _ = run(capsys, "graph", str(path), "--format", "json")
        assert json.loads(doc)["flags"] == {
            "v1": ["zero_vector"], "v2": [], "v3": [], "v4": []}
        _, out, _ = run(capsys, "filters", str(path))
        report = json.loads(out)
        assert report["warnings"][0] == (
            "standing assumption violated (zero or isolated vectors: "
            "v1(zero_vector)); scalability filters disabled")
        assert not any(f["applicable"] for f in report["filters"]
                       if not f["experimental"])


# frame inputs of TestDocumentsAgree, and whether --exact is given: the
# generator calls of float frames have no exact representation
_DOCUMENT_INPUTS = [
    (spec, exact) for spec in ("paper/M1", "paper/M2", "paper/M",
                               "canonical/mercedes", "onb(3)",
                               "random_frame(6,3)", "random_frame(9,4)")
    for exact in (False, True)
] + [("random_parseval(5,2)", False), ("cycle_pattern_frame(6,5)", False)]


class TestDocumentsAgree:
    """The documents of one frame state each fact alike: `scale` echoes the
    input as `analyze` does, less its tol_zero and tightness, and gives the
    oracle block of `analyze`; `graph --format json` gives its edges."""

    @pytest.mark.parametrize("spec, exact", _DOCUMENT_INPUTS,
                             ids=[s + "-exact" * e for s, e in _DOCUMENT_INPUTS])
    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_agree(self, capsys, spec, exact, seed):
        common = [spec, "--seed", seed] + (["--exact"] if exact else [])
        code, out, _ = run(capsys, "analyze", *common)
        assert code == 0
        analysis = json.loads(out)
        code, out, _ = run(capsys, "scale", *common)
        assert code == 0
        scale = json.loads(out)
        code, out, _ = run(capsys, "graph", *common, "--format", "json")
        assert code == 0
        graph = json.loads(out)
        inputs = dict(analysis["input"])
        del inputs["tol_zero"], inputs["tightness"]
        assert scale["input"] == inputs
        assert scale["report_version"] == analysis["report_version"]
        assert analysis["oracle"] == {"nonneg": scale["nonneg"],
                                      "strict": scale["strict"]}
        assert graph["edges"] == analysis["graph"]["edges"]


class TestGeneratorCalls:
    """A generator call with the wrong number of integers, or with an
    unknown name, exits 2 with an error line."""

    @pytest.mark.parametrize("spec", [
        "onb()", "onb(3,1)", "random_frame(3)", "random_frame(4,2,3)",
        "random_parseval(5)", "cycle_pattern_frame(7,5,1)",
    ])
    def test_wrong_argument_count_exit_2(self, capsys, spec):
        code, out, err = run(capsys, "analyze", spec)
        assert code == 2 and not out
        assert err.startswith("error: ") and "argument" in err
        assert "Traceback" not in err

    def test_unknown_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "petersen(10)")
        assert code == 2 and err == "error: unknown generator 'petersen'\n"


class TestExactFlag:
    def test_exact_on_irrational_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "random_parseval(4,2)",
                           "--exact")
        assert code == 2 and err


class TestRejectedOptions:
    """Tolerances must be finite, --tol above 0 and --tol-zero at least 0,
    and --dim a positive integer; anything else exits 2 with argparse's
    error line, before any analysis."""

    COMMANDS = [["analyze", "random_frame(6,3)"], ["filters", "paper/M1"],
                ["scale", "paper/M1"], ["complement", "random_parseval(5,2)"],
                ["graph", "paper/M1"]]

    @staticmethod
    def rejected(capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out
        assert f"error: argument {option}: must be " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "x"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_tol(self, capsys, command, value):
        self.rejected(capsys, command + [f"--tol={value}"], "--tol")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-10", "x"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_tol_zero(self, capsys, command, value):
        self.rejected(capsys, command + [f"--tol-zero={value}"], "--tol-zero")

    def test_tolerances_in_range_accepted(self, capsys):
        code, out, _ = run(capsys, "analyze", "random_frame(6,3)", "--seed",
                           "2", "--tol", "1e-6", "--tol-zero", "0")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["tol"] == 1e-6
        assert report["conclusion"]["verdict"] == "not_scalable"

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "x"])
    def test_dim(self, tmp_path, capsys, value):
        path = tmp_path / "g.json"
        path.write_text('{"adjacency": [[0, 1], [1, 0]]}')
        self.rejected(capsys, ["filters", "--graph", str(path),
                               f"--dim={value}"], "--dim")

    @pytest.mark.parametrize("dimension", ["true", "false", "2.0"])
    def test_dimension_not_an_int(self, tmp_path, capsys, dimension):
        path = tmp_path / "f.json"
        path.write_text('{"dimension": %s, "vectors": [["1"], ["2"]]}'
                        % dimension)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and not out
        assert err.startswith("error: dimension must be a positive integer")
        assert "Traceback" not in err


SRC = str(Path(framescale.__file__).parents[1])


def _python(args, unbuffered: bool = True, timeout: float = 60,
            python: str = sys.executable, extra_env=None, **kwargs):
    """Run a fresh interpreter that imports framescale from this tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(extra_env or {})
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([python, *args], env=env, timeout=timeout,
                          **kwargs)


class TestNoEndlessDraw:
    """A random frame with no nonzero vector to draw fails at once.  A draw
    that can only give the zero vector would never end, so each check runs
    in its own process under a timeout."""

    def test_zero_dimension_exit_2(self):
        proc = _python(["-m", "framescale.cli", "analyze", "random_frame(2,0)"],
                       timeout=20, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")


# One process runs every call in turn and prints each exit code and stdout.
# The calls cover float and exact analyses, a frame over Q(sqrt 3)
# (canonical/mercedes), and a graph whose diameter_codim2 filter fires.
_ACROSS_CALLS = [
    ["analyze", "paper/M", "--exact"],
    ["analyze", "canonical/mercedes", "--exact"],
    ["analyze", "random_frame(9,4)", "--exact", "--seed", "3"],
    ["analyze", "random_parseval(10,4)", "--seed", "5"],
    ["analyze", "cycle_pattern_frame(8,6)", "--filters-only"],
    ["scale", "random_frame(8,5)", "--seed", "1"],
    ["filters", "--graph", "P6", "--dim", "4"],
    ["filters", "--graph", "paper/graph-K2K2-join-K13", "--dim", "6"],
    ["graph", "paper/M2", "--format", "json"],
]
_ACROSS_SCRIPT = (
    "import contextlib, io, sys\n"
    "from framescale.cli import main\n"
    f"for argv in {_ACROSS_CALLS!r}:\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        code = main(argv)\n"
    "    sys.stdout.write(f'{argv} -> {code}\\n{out.getvalue()}')\n"
)


@pytest.fixture(scope="module")
def reports_here() -> str:
    proc = _python(["-c", _ACROSS_SCRIPT], capture_output=True, text=True,
                   check=True)
    assert proc.stdout.count(" -> 0\n") == len(_ACROSS_CALLS)
    assert '"distant_pair"' in proc.stdout
    return proc.stdout


def _runs(path: str, extra_env: dict) -> bool:
    return not subprocess.run([path, "-c", "pass"], timeout=60,
                              env={**os.environ, **extra_env},
                              capture_output=True).returncode


def _interpreter(python: str):
    """The path of ``python`` on PATH and the environment it runs in, or
    None.  A pyenv shim that cannot run as it is (no ``PYENV_VERSION``
    selects it) is retried once with the newest installed version of its
    name, as ``pyenv versions --bare`` lists them."""
    path = shutil.which(python)
    if path is None:
        return None
    if _runs(path, {}):
        return path, {}
    pyenv = shutil.which("pyenv")
    if Path(path).parent.name != "shims" or pyenv is None:
        return None
    listed = subprocess.run([pyenv, "versions", "--bare"], timeout=60,
                            capture_output=True, text=True).stdout.split()
    prefix = python.removeprefix("python") + "."
    versions = [tuple(map(int, v.split("."))) for v in listed
                if v.startswith(prefix)
                and v.replace(".", "").isdigit()]
    if not versions:
        return None
    extra_env = {"PYENV_VERSION": ".".join(map(str, max(versions)))}
    return (path, extra_env) if _runs(path, extra_env) else None


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_reports_byte_identical_across_interpreters(reports_here, python):
    """The same calls give the same bytes on other interpreters on PATH;
    one that is missing, or that cannot run, is skipped."""
    found = _interpreter(python)
    if found is None:
        pytest.skip(f"{python} cannot run here")
    path, extra_env = found
    proc = _python(["-c", _ACROSS_SCRIPT], python=path, extra_env=extra_env,
                   capture_output=True, text=True, check=True)
    assert proc.stdout == reports_here


class TestProcess:
    """The command as its own process: start-up cost and a closed stdout."""

    def test_startup_loads_no_dataclass_machinery(self):
        # only the modules that framescale brings in: what site loaded
        # before it is not its doing
        script = (
            "import sys, contextlib, io\n"
            "before = set(sys.modules)\n"
            "import framescale.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = framescale.cli.main(['analyze', 'paper/M1', '--exact'])\n"
            "print(code, ' '.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = _python(["-c", script], capture_output=True, text=True,
                       check=True)
        code, *loaded = proc.stdout.split()
        assert code == "0" and "framescale.cli" in loaded
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_without_traceback(self, unbuffered):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            proc = _python(["-m", "framescale.cli", "analyze", "paper/M1",
                            "--exact"], unbuffered, stdout=write,
                           stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_PIPE
        assert proc.stderr == ""
