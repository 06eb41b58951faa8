"""Command-line interface: commands, exit codes, byte stability."""

from __future__ import annotations

import json
import math

import pytest

from framescale import scaler
from framescale.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_m1_not_scalable(self, capsys):
        code, out, _ = run(capsys, "analyze", "paper/M1", "--exact")
        assert code == 0
        report = json.loads(out)
        assert report["report_version"] == 2
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
        code, out, err = run(capsys, "scale", "paper/M1", "--exact")
        assert code == 3 and not out and "pivot cap" in err


class TestOneSolve:
    """One simplex run answers both oracle questions."""

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
        assert code == 0 and len(calls) == 1


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


class TestExactFlag:
    def test_exact_on_irrational_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "random_parseval(4,2)",
                           "--exact")
        assert code == 2 and err
