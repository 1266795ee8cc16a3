import json

import pytest

from permclass import class_a, cli
from permclass.series import ConsistencyError

from conftest import golden_text


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_both_matches(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "class_a",
                           "--n", "7", "--method", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith("MATCH") for line in lines)
    assert lines[-1].startswith("7\t1823\t1823")


def test_count_json_schema(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "class_b",
                           "--n", "4", "--method", "oracle",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "permclass/1"
    assert [r["oracle"] for r in payload["rows"]] == [1, 1, 2, 6, 22]


def test_count_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "count", "--class", "class_a", "--n", "6",
                         "--method", "both", "--format", "json")
    _, out2, _ = run_cli(capsys, "count", "--class", "class_a", "--n", "6",
                         "--method", "both", "--format", "json")
    assert out1 == out2


def test_count_fe_only_40_terms_ends_with_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "class_a",
                           "--n", "40", "--method", "functional_equation")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 41
    assert lines[-1] == golden_text(
        "class_a_fe_counts_40.tsv").strip().splitlines()[-1]


def test_count_budget_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--class", "class_a",
                           "--n", "9", "--method", "oracle",
                           "--node-budget", "50")
    assert code == cli.EXIT_BUDGET
    assert "budget" in err


def test_distribution_csv_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "distribution", "--class", "class_b",
                           "--n", "10", "--stat", "marked_trailing_run",
                           "--format", "csv")
    assert code == 0
    assert out == golden_text("class_b_marked_trailing_run.csv")


def test_guess_reproduces_eq5(capsys):
    code, out, _ = run_cli(capsys, "guess", "--class", "class_a",
                           "--terms", "40", "--dy", "3", "--dz", "4")
    assert code == 0
    assert "1:z^4*y^3" in out
    assert "margin:" in out


def test_guess_no_polynomial_found(capsys):
    code, out, _ = run_cli(capsys, "guess", "--class", "class_a",
                           "--terms", "20", "--dy", "1", "--dz", "1")
    assert code == cli.EXIT_NO_GUESS
    assert "no polynomial found" in out


def test_verify_fixture_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class", "class_a",
                           "--fixture", "eq5", "--order", "30")
    assert code == 0
    assert "PASS" in out


def test_verify_fixture_eq6_series_option(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class", "class_a",
                           "--fixture", "eq6", "--order", "25",
                           "--series", "fskew_at_f1")
    assert code == 0
    assert "PASS" in out


def test_verify_corrupted_file_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars: z y\n1:z*y 2:1\n")
    code, out, _ = run_cli(capsys, "verify", "--class", "class_a",
                           "--poly", str(bad), "--order", "20")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_verify_unparseable_file_distinct_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a polynomial\n")
    code, _, err = run_cli(capsys, "verify", "--class", "class_a",
                           "--poly", str(bad), "--order", "20")
    assert code == 2
    assert "cannot parse" in err


def test_verify_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "verify", "--class", "class_a",
                           "--fixture", "nope", "--order", "10")
    assert code == 2
    assert "unknown fixture" in err


def test_growth_class_a(capsys):
    code, out, _ = run_cli(capsys, "growth", "--class", "class_a",
                           "--terms", "40")
    assert code == 0
    assert "32/5" in out


def test_growth_class_b_json(capsys):
    code, out, _ = run_cli(capsys, "growth", "--class", "class_b",
                           "--terms", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["exact_growth"] - 5.6317595) < 1e-5


def test_kernel_check(capsys):
    code, out, _ = run_cli(capsys, "kernel-check", "--order", "15")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ("count", "--class", "class_a", "--n", "-1",
     "--method", "functional_equation"),
    ("count", "--class", "class_a", "--n", "-1", "--method", "oracle"),
    ("distribution", "--class", "class_a", "--n", "-1"),
    ("verify", "--class", "class_a", "--fixture", "eq5", "--order", "-3"),
    ("growth", "--class", "class_a", "--terms", "5"),
], ids=["count_fe", "count_oracle", "distribution", "verify_order",
        "growth_terms"])
def test_out_of_range_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_consistency_failure_exit_code(capsys, monkeypatch):
    def broken(n_max):
        raise ConsistencyError("non-integer coefficient at z^3")
    monkeypatch.setattr(class_a, "iterate", broken)
    code, _, err = run_cli(capsys, "count", "--class", "class_a", "--n", "5",
                           "--method", "functional_equation")
    assert code == cli.EXIT_INCONSISTENT
    assert err == "error: non-integer coefficient at z^3\n"
