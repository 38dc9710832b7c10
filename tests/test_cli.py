import json
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cnflearn import cli, harness
from cnflearn.cli import main
from cnflearn.core import Prediction
from cnflearn.predictors import PracticalPredictor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def overpay_alg2(monkeypatch):
    """Make alg2's batched scoring charge 64 bits a step more than it should."""
    score_columns = PracticalPredictor._score_columns

    def overpaid(self, sides, columns, labels):
        log_p, correct = score_columns(self, sides, columns, labels)
        return log_p - 64.0, correct

    monkeypatch.setattr(PracticalPredictor, "_score_columns", overpaid)


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

    def test_bound_violation_exits_3(self, capsys, monkeypatch):
        overpay_alg2(monkeypatch)
        code, out, err = run(capsys, "synthetic", "--algo", "alg2", "--d", "4", "--n", "64")
        assert code == 3 and out == ""
        assert err.startswith("bound violation: ")

    def test_numerical_failure_exits_4(self, capsys, monkeypatch):
        def unnormalised(config):
            return Prediction(0.0, 0.0)  # p0 + p1 = 2

        monkeypatch.setattr(cli, "run_synthetic", unnormalised)
        code, out, err = run(capsys, "synthetic", "--algo", "alg2", "--d", "3")
        assert code == 4 and out == ""
        assert "numerical error" in err and "must sum to 1" in err


# d' for each reduction and the guarantees, in bits on a realizable n-step
# trace over d' features, as the paper states them; the other algorithms state none
PAPER_D_PRIME = {
    "none": lambda d, k: d,
    "conj": lambda d, k: 2 * d,
    "disj": lambda d, k: 2 * d,
    "kcnf": lambda d, k: sum(math.comb(d, s) * 2 ** s for s in range(1, k + 1)),
}
PAPER_BOUNDS = {
    "bayes-exact": lambda d, n: float(d),
    "alg1": lambda d, n: 2.0 * d * d,
    "alg2": lambda d, n: (d + 1.0) * math.log2(n + 1.0),
}


def refused(algorithm, reduction, d, k):
    """Whether a documented refusal turns the synthetic run away."""
    if (reduction == "kcnf") != (k is not None) or k == 0:  # k only with kcnf, and at least 1
        return True
    d_prime = PAPER_D_PRIME[reduction](d, k)
    return (
        (reduction == "kcnf" and d_prime > 4_000_000)  # the clause budget
        or (algorithm == "bayes-exact" and d_prime > 20)  # the brute-force cap
        or (algorithm == "alg1" and d_prime < 2)  # the hybrid construction
    )


class TestSyntheticFlagSpace:
    # every algorithm behind every reduction, each over its own draws; capsys
    # is read out on every example, so none sees another's output
    @pytest.mark.parametrize("reduction", harness.REDUCTIONS)
    @pytest.mark.parametrize("algorithm", sorted(harness.ALGORITHMS))
    @settings(
        max_examples=20, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        d=st.integers(1, 8) | st.just(200),  # 200 takes k = 3 past the clause budget
        k=st.none() | st.integers(0, 3),
        n=st.integers(0, 64),
        repeats=st.integers(1, 3),
    )
    # the two sides of bayes-exact's cap, d' = 20 behind conj and 21 unmapped, which no d above gives
    @example(d=10, k=None, n=0, repeats=1)
    @example(d=21, k=None, n=8, repeats=1)
    def test_d_prime_and_bound_follow_the_paper(self, capsys, algorithm, reduction, d, k, n, repeats):
        argv = ["synthetic", "--algo", algorithm, "--reduction", reduction, "--d", str(d),
                "--n", str(n), "--repeats", str(repeats), "--format", "json"]
        code, out, err = run(capsys, *argv, *([] if k is None else ["--k", str(k)]))
        if refused(algorithm, reduction, d, k):
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.index("\n") == len(err) - 1
            return
        assert (code, err) == (0, "")
        report = json.loads(out)
        d_prime = PAPER_D_PRIME[reduction](d, k)
        bound = PAPER_BOUNDS.get(algorithm, lambda d, n: None)(d_prime, n)
        assert report["d_prime"] == d_prime
        assert report["bound_bits"] == (None if bound is None else float(f"{bound:.6g}"))
        assert (report["n"], len(report["trial_bits"])) == (n, repeats)


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

    def test_madnb_over_a_wide_clause_basis_on_coin_flip_data(self, capsys, tmp_path):
        # 60 two-valued columns give 28,800 clause features at k = 2, so
        # MADNB's two candidate joints reach about 2e7 bits over 800 rows:
        # past where normalising them fails the 1e-9 sum check
        rng = random.Random(0)
        lines = [",".join([f"c{j}" for j in range(60)] + ["class"])]
        for _ in range(800):
            lines.append(",".join([rng.choice("ab") for _ in range(60)] + [rng.choice("ep")]))
        path = tmp_path / "coin.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "dataset", "--path", str(path), "--label-column", "class",
            "--positive-label", "e", "--algo", "madnb", "--reduction", "kcnf", "--k", "2",
        )
        assert code == 0 and err == ""
        assert out.strip().splitlines()[1].startswith("madnb,120,28800,2,800,")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--reduction", "kcnf"], "the kcnf reduction needs a clause width k >= 1"),
            # harness._check_run's message, not the clause basis's own refusal
            (["--reduction", "kcnf", "--k", "0"], "the kcnf reduction needs a clause width k >= 1"),
            (["--reduction", "kcnf", "--k", "-1"], "the kcnf reduction needs a clause width k >= 1"),
            (["--reduction", "none", "--k", "3"], "k only applies to the kcnf reduction"),
            (["--reduction", "conj", "--k", "3"], "k only applies to the kcnf reduction"),
        ],
    )
    def test_reduction_and_width_checked_as_for_synthetic(self, capsys, tmp_path, flags, message):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,class\nx,u,p\ny,v,e\nx,v,e\n", encoding="utf-8")
        code, out, err = run(
            capsys, "dataset", "--path", str(path), "--label-column", "class",
            "--positive-label", "e", "--algo", "alg2", *flags,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, synthetic_err = run(capsys, "synthetic", "--algo", "alg2", "--d", "3", *flags)
        assert (code, synthetic_err) == (2, err)

    def test_missing_file_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dataset", "--path", str(tmp_path / "no.csv"),
            "--label-column", "class", "--positive-label", "e", "--algo", "alg2",
        )
        assert code == 2
        assert "cannot read" in err
        empty = tmp_path / "empty.csv"
        empty.write_text("\n", encoding="utf-8")
        code, out, err = run(
            capsys, "dataset", "--path", str(empty),
            "--label-column", "class", "--positive-label", "e", "--algo", "alg2",
        )
        assert (code, out) == (2, "")
        assert err == f"error: dataset {str(empty)!r} is empty\n"


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

    def test_failing_checks_print_fail_and_exit_1(self, capsys, monkeypatch):
        # a union count one too large breaks both complement identities, and
        # a penalty of d + 1 leaves alg1's window
        upow = harness.upow
        monkeypatch.setattr(harness, "upow", lambda sets, d: upow(sets, d) + 1)
        monkeypatch.setattr(harness, "hybrid_column_penalty", lambda d: d + 1)
        code, out, _ = run(capsys, "oracle-check", "--d", "6", "--trials", "20")
        assert code == 1
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in out.strip().splitlines()}
        assert status == {
            "consistent-count-complement": "FAIL",
            "mixture-vs-counting": "PASS",
            "independent-set-complement": "FAIL",
            "counting-construction": "PASS",
            "column-penalty-window": "FAIL",
        }


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

    def test_bound_violation_exits_3(self, capsys, monkeypatch):
        overpay_alg2(monkeypatch)
        code, out, err = run(capsys, "bounds-table", "--d-list", "4", "--n", "64", "--repeats", "2")
        assert code == 3 and out == ""
        assert err.startswith("bound violation: ")

    def test_empty_d_list_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "bounds-table", "--d-list", ",")
        assert code == 2 and "d-list" in err
