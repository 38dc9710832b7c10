import json

import pytest

from cnflearn import cli
from cnflearn.cli import main
from cnflearn.core import Prediction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSyntheticCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "synthetic", "--algo", "alg2", "--d", "4", "--n", "32",
            "--repeats", "2", "--seed", "5",
        )
        assert code == 0 and err == ""
        header, row = out.strip().splitlines()
        assert header.startswith("algo,d,d_prime")
        assert row.startswith("alg2,4,4,,32,2,5,")

    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "synthetic", "--algo", "madnb", "--d", "3", "--n", "16",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert payload["algo"] == "madnb"
        assert payload["bound_bits"] is None
        assert len(payload["trial_bits"]) == 1

    def test_reduction_flags(self, capsys):
        code, out, _ = run(
            capsys, "synthetic", "--algo", "alg2", "--d", "3", "--n", "8",
            "--reduction", "kcnf", "--k", "2",
        )
        assert code == 0
        assert ",kcnf," not in out  # reduction is echoed in json, not csv
        assert out.splitlines()[1].split(",")[2] == "18"

    def test_invalid_dimension_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "synthetic", "--algo", "alg2", "--d", "0")
        assert code == 2
        assert "d must be >= 1" in err

    def test_kcnf_without_width_exits_nonzero(self, capsys):
        code, _, err = run(
            capsys, "synthetic", "--algo", "alg2", "--d", "3", "--reduction", "kcnf"
        )
        assert code == 2
        assert "clause width" in err

    def test_unknown_algorithm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["synthetic", "--algo", "sgd", "--d", "3"])

    def test_numerical_failure_exits_4(self, capsys, monkeypatch):
        def unnormalised(config):
            return Prediction(0.0, 0.0)  # p0 + p1 = 2

        monkeypatch.setattr(cli, "run_synthetic", unnormalised)
        code, out, err = run(capsys, "synthetic", "--algo", "alg2", "--d", "3")
        assert code == 4 and out == ""
        assert "numerical error" in err and "must sum to 1" in err


class TestDatasetCommand:
    def test_small_file(self, capsys, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,class\nx,u,p\ny,v,e\nx,v,e\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "dataset", "--path", str(path), "--label-column", "class",
            "--positive-label", "e", "--algo", "alg2",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "algo,d,d_prime,k,n,accuracy,correct,mistakes,total_bits,bound_bits"
        assert row.startswith("alg2,4,4,,3,")

    def test_bayes_exact_on_contradictory_data_is_bad_input(self, capsys, tmp_path):
        # side (x, y) is labelled both ways, so no conjunction fits the file
        path = tmp_path / "contradiction.csv"
        path.write_text("a,b,class\nx,y,e\nx,y,p\nz,y,e\nx,w,p\n", encoding="utf-8")
        code, out, err = run(
            capsys, "dataset", "--path", str(path), "--label-column", "class",
            "--positive-label", "e", "--algo", "bayes-exact",
        )
        assert code == 2 and out == ""
        assert err == "error: no consistent hypothesis remains; the trace was not realizable\n"

    def test_missing_file_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dataset", "--path", str(tmp_path / "no.csv"),
            "--label-column", "class", "--positive-label", "e", "--algo", "alg2",
        )
        assert code == 2
        assert "cannot read" in err


class TestOracleCheckCommand:
    def test_prints_pass_per_suite(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--d", "6", "--trials", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)

    def test_bad_parameters_exit_nonzero(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--d", "1")
        assert code == 2 and "d must" in err


class TestBoundsTableCommand:
    def test_emits_rows_per_dimension_and_algorithm(self, capsys):
        code, out, _ = run(
            capsys, "bounds-table", "--d-list", "2,3", "--n", "64", "--repeats", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,algo,n,repeats,seed,max_bits,mean_bits,bound_bits"
        assert len(lines) == 5
        assert lines[1].split(",")[:2] == ["2", "alg1"]
        assert lines[1].split(",")[-1] == "8"

    def test_empty_d_list_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "bounds-table", "--d-list", ",")
        assert code == 2 and "d-list" in err
