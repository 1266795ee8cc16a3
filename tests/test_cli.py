import argparse
import importlib
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import permclass
from permclass import algebraic, class_a, class_b, cli, fixtures, oracle, perms
from permclass.polynomials import MultivariatePolynomial, NotDivisibleError
from permclass.series import ConsistencyError, UnivariateSeries

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


def test_count_mismatch_exit_code(capsys, monkeypatch):
    counts = class_b.counts

    def off_by_one(state):
        got = counts(state)
        got[4] += 1
        return got
    monkeypatch.setattr(class_b, "counts", off_by_one)
    code, out, _ = run_cli(capsys, "count", "--class", "class_b",
                           "--n", "6", "--method", "both")
    assert code == cli.EXIT_MISMATCH
    assert out.splitlines()[4] == "4\t22\t23\tMISMATCH"
    code, out, _ = run_cli(capsys, "count", "--class", "class_b",
                           "--n", "6", "--method", "both", "--format", "json")
    assert code == cli.EXIT_MISMATCH
    assert json.loads(out)["status"] == "mismatch"


def test_count_budget_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--class", "class_a",
                           "--n", "9", "--method", "oracle",
                           "--node-budget", "50")
    assert code == cli.EXIT_BUDGET
    assert "budget of 50" in err
    # lengths 1..4 form 1 + 2 + 6 + 18 = 27 children, length 5 another
    # 51, one per free slot of the 12 labels of length 4 (2 + 3 * 3 +
    # 8 * 5)
    assert "generating length 5; lengths up to 4 are complete;" in err
    assert "--node-budget" in err and oracle.BUDGET_ENV_VAR in err


def test_count_default_budget_stops_class_b(capsys, monkeypatch):
    """The default budget stops an oracle count that asks for too much
    with one line naming the last complete length."""
    monkeypatch.delenv(oracle.BUDGET_ENV_VAR, raising=False)
    code, out, err = run_cli(capsys, "count", "--class", "class_b",
                             "--n", "1000", "--method", "oracle")
    assert code == cli.EXIT_BUDGET and out == ""
    assert err.count("\n") == 1 and err.startswith("error: node budget")
    assert "generating length 43; lengths up to 42 are complete;" in err


def test_count_invalid_budget_env_var_names_it(capsys, monkeypatch):
    monkeypatch.setenv(oracle.BUDGET_ENV_VAR, "abc")
    code, out, err = run_cli(capsys, "count", "--class", "class_a",
                             "--n", "3", "--method", "oracle")
    assert code == 2 and out == ""
    assert err == ("error: PERMCLASS_NODE_BUDGET must be an integer, "
                   "got 'abc'\n")


def test_distribution_csv_matches_golden(capsys, monkeypatch,
                                        oracle_distributions_10):
    """The CLI's CSV of the oracle report equals the golden file; the
    report is the session fixture's, not a second oracle run."""
    def shared(b, n_max, stat, node_budget=None):
        assert (b, n_max, stat) == (
            perms.CLASS_B_BASIS, 10, "marked_trailing_run")
        return oracle_distributions_10["class_b"]
    monkeypatch.setattr(oracle, "statistic_distribution", shared)
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


def test_guess_class_b_degree8(capsys):
    """Class B's degree-8 polynomial guessed from its own series equals
    the bundled one; about 1.5 s."""
    code, out, _ = run_cli(capsys, "guess", "--class", "class_b",
                           "--terms", "190", "--dy", "8", "--dz", "17")
    assert code == 0
    lines = out.splitlines()
    term_list = next(ln for ln in lines if ln.startswith("term list: "))
    poly = MultivariatePolynomial.parse(term_list[len("term list: "):],
                                        ("z", "y"))
    degree8 = fixtures.degree8_min_poly()
    assert poly in (degree8, -degree8)
    assert "degrees: y 8, z 17" in lines
    assert "margin: 29" in lines
    assert "verification residual order: 191" in lines


def test_guess_insufficient_data_message(capsys):
    """--terms 28 gives a series to order 28; bounds (3, 4) need 29."""
    code, out, err = run_cli(capsys, "guess", "--class", "class_a",
                             "--terms", "28", "--dy", "3", "--dz", "4")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: need series order at least 29 for degree bounds (3, 4), "
        "have order 28"]


@pytest.mark.parametrize("class_id, dy, dz, margin", [
    ("class_a", 3, 4, 10), ("class_a", 5, 6, 32), ("class_a", 2, 2, None),
    ("class_b", 8, 17, 10), ("class_b", 1, 1, None),
])
def test_guess_at_the_fewest_terms_keeps_the_margin(capsys, class_id, dy,
                                                    dz, margin):
    """At the fewest --terms the bounds allow, an accepted guess still
    has GUESS_MARGIN_THRESHOLD equations to spare: its tight degrees
    need no more unknowns than the bounds."""
    terms = (dy + 1) * (dz + 1) + algebraic.GUESS_MARGIN_THRESHOLD - 1
    code, out, _ = run_cli(capsys, "guess", "--class", class_id,
                           "--terms", str(terms), "--dy", str(dy),
                           "--dz", str(dz), "--format", "json")
    if margin is None:
        assert code == cli.EXIT_NO_GUESS
    else:
        assert code == 0
        found = json.loads(out)["margin"]
        assert found >= algebraic.GUESS_MARGIN_THRESHOLD
        assert found == margin


def test_guess_prime_budget_exit_code(capsys, monkeypatch):
    """y = 1/(1 - 3^30 z) has a kernel vector with denominator 3^30 >
    2^47, which one 62-bit prime cannot reconstruct and two can."""
    c = 3 ** 30
    monkeypatch.setattr(cli, "_series_for", lambda class_id, source, order:
                        UnivariateSeries([c ** n for n in range(order + 1)],
                                         order))
    primes = []
    real = algebraic._kernel_vector_mod
    monkeypatch.setattr(algebraic, "_kernel_vector_mod",
                        lambda m, n, p: primes.append(p) or real(m, n, p))
    argv = ("guess", "--class", "class_a", "--terms", "20", "--dy", "1",
            "--dz", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(primes) == 2
    assert "term list: %d:z*y -1:y 1:1" % c in out
    monkeypatch.setattr(algebraic, "MAX_PRIMES", 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PRIME_BUDGET == 8 and out == ""
    assert err.splitlines() == [
        "error: no kernel vector passed the exact check over Z after 1 prime"]


def test_verify_fixture_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class", "class_a",
                           "--fixture", "eq5", "--order", "30")
    assert code == 0
    assert "PASS" in out


def test_verify_degree8_far_beyond_goldens(capsys):
    """Class B's f(z,1) to order 200 against the bundled degree-8
    polynomial, which the iteration does not use."""
    code, out, _ = run_cli(capsys, "verify", "--class", "class_b",
                           "--fixture", "degree8", "--order", "200")
    assert code == 0
    assert out.splitlines()[-1] == "verification: PASS"


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


def test_verify_huge_exponent_costs_log_products(tmp_path, capsys,
                                                series_products):
    """y^100000000 is formed by binary powering: a few dozen series
    products, where one product per unit of the exponent would never
    finish."""
    poly = tmp_path / "huge.txt"
    poly.write_text("vars: z y\n1:y^100000000 -1:z\n")
    code, out, _ = run_cli(capsys, "verify", "--class", "class_a",
                           "--poly", str(poly), "--order", "20")
    assert code == cli.EXIT_VERIFY_FAILED
    assert out.splitlines()[0] == "residual order: 0"
    assert len(series_products) <= 64


def test_verify_unparseable_file_distinct_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a polynomial\n")
    code, _, err = run_cli(capsys, "verify", "--class", "class_a",
                           "--poly", str(bad), "--order", "20")
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("body", ["0:1\n", "", "1:z -1:z\n"],
                         ids=["zero_term", "no_terms", "cancelling"])
def test_verify_zero_polynomial_rejected(tmp_path, capsys, body):
    zero = tmp_path / "zero.txt"
    zero.write_text("vars: z y\n" + body)
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(zero), "--order", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero polynomial" in err


@pytest.mark.parametrize("body, reason", [
    ("1:z^50\n", "no term in y"),
    ("1:z^50*y\n", "z-degree above the order 20"),
    ("1:y -1:y^-1\n", "cannot parse polynomial file"),
], ids=["no_y", "beyond_order", "negative_exponent"])
def test_verify_vacuous_polynomial_rejected(tmp_path, capsys, body, reason):
    """p(z, f) truncated to the order is zero for any f, or would read as
    zero through a negative exponent (y - y^-1): no check."""
    poly = tmp_path / "vacuous.txt"
    poly.write_text("vars: z y\n" + body)
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(poly), "--order", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_verify_foreign_variables_rejected(tmp_path, capsys):
    bad = tmp_path / "xy.txt"
    bad.write_text("vars: x y\n1:x*y\n")
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(bad), "--order", "20")
    assert code == 2
    assert out == ""
    assert err == "error: polynomial variables must be among z and y, " \
        "got x\n"


@pytest.mark.parametrize("header", ["vars: z y y", "vars: z z y"],
                         ids=["y_twice", "z_twice"])
def test_verify_repeated_variable_rejected(tmp_path, capsys, header):
    """A variable named twice in the header is refused before any term
    is read, not read as a missing or merged variable."""
    poly = tmp_path / "repeated.txt"
    poly.write_text(header + "\n1:z*y -1:1\n")
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(poly), "--order", "20")
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse polynomial file: repeated " \
        "variable name in %r\n" % header


@pytest.mark.parametrize("text, reason", [
    ("vars: z y\n1:x*y\n", "term '1:x*y': variable 'x' is not in the "
     "header"),
    ("vars: z y\n1:z**2*y\n", "term '1:z**2*y': variable '' is not in "
     "the header"),
    ("vars: z y\n1 z*y\n", "term '1': no ':' after the coefficient"),
    ("vars: z y\n1:z^2^3\n", "term '1:z^2^3': exponent '2^3' is not an "
     "integer"),
    ("vars: z y\n1:z^a\n", "term '1:z^a': exponent 'a' is not an "
     "integer"),
    ("vars: z y\nx:z\n", "term 'x:z': coefficient 'x' is not an integer"),
    ("vars: z y\n:y\n", "term ':y': coefficient '' is not an integer"),
    ("vars: z y\n1:y -1:y^-1\n", "term '-1:y^-1': exponent '-1' is "
     "negative"),
    ("", "missing 'vars:' header"),
], ids=["foreign_variable", "double_star", "no_colon", "double_caret",
        "bad_exponent", "bad_coefficient", "no_coefficient",
        "negative_exponent", "empty_file"])
def test_verify_malformed_term_named(tmp_path, capsys, text, reason):
    """A malformed polynomial file is refused with one line naming the
    term and its fault, not Python's own message."""
    poly = tmp_path / "bad.txt"
    poly.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(poly), "--order", "20")
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse polynomial file: %s\n" % reason


def test_verify_header_without_newline_has_no_terms(tmp_path, capsys):
    poly = tmp_path / "header.txt"
    poly.write_text("vars: z y")
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--poly", str(poly), "--order", "20")
    assert code == 2
    assert out == ""
    assert err == "error: the zero polynomial annihilates every series\n"


def test_verify_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "verify", "--class", "class_a",
                           "--fixture", "nope", "--order", "10")
    assert code == 2
    assert "unknown fixture" in err


@pytest.mark.parametrize("name", ["kernel_k", "kernel_m1", "kernel_m2",
                                  "growth_quartic"])
def test_verify_fixture_without_a_series_root_is_unknown(capsys, name):
    """The kernel factors are in t and the growth quartic has no y, so
    verify offers neither."""
    code, out, err = run_cli(capsys, "verify", "--class", "class_a",
                             "--fixture", name, "--order", "10")
    assert code == 2 and out == ""
    assert err == ("error: unknown fixture %r (choose from degree8, eq5, "
                   "eq6)\n" % name)


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


GROWTH_30 = {
    "class_a": ("ratio estimate: 5.899638\n"
                "extrapolated estimate: 6.368114\n"
                "singularity candidates: 0.156250000, 1.000000000\n"
                "exact growth: 6.400000 (32/5 at singularity 5/32)\n",
                {"candidates": [0.15625, 1.0], "class": "class_a",
                 "command": "growth", "exact_growth": 6.4,
                 "extrapolated": 6.368114007421383,
                 "note": "singularity 5/32, growth 32/5",
                 "ratio": 5.899637871557584, "schema": "permclass/1",
                 "terms": 30}),
    "class_b": ("ratio estimate: 5.351028\n"
                "extrapolated estimate: 5.630894\n"
                "growth quartic roots: 0.836109638, 5.631759539\n"
                "exact growth: 5.631760 (root of the quartic)\n",
                {"class": "class_b", "command": "growth",
                 "exact_growth": 5.631759538825,
                 "extrapolated": 5.630894408394084,
                 "quartic_roots": [0.836109638399, 5.631759538825],
                 "ratio": 5.351028340042421, "schema": "permclass/1",
                 "terms": 30}),
}


@pytest.mark.parametrize("class_id", sorted(GROWTH_30))
def test_growth_terms_30_exact_output(capsys, class_id):
    text, payload = GROWTH_30[class_id]
    code, out, err = run_cli(capsys, "growth", "--class", class_id,
                             "--terms", "30")
    assert (code, out, err) == (0, text, "")
    code, out, err = run_cli(capsys, "growth", "--class", class_id,
                             "--terms", "30", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == payload


EXACT_GROWTH = {"class_a": (6.4, "6.400000 (32/5 at singularity 5/32)"),
                "class_b": (5.631759538825, "5.631760 (root of the quartic)")}


@pytest.mark.parametrize("terms", [9, 10, 60])
@pytest.mark.parametrize("class_id", sorted(EXACT_GROWTH))
def test_growth_exact_line_and_json(capsys, class_id, terms):
    """Each class's rate is the candidate nearest the estimate, from the
    fewest terms the estimate takes on (30 terms: the whole output is
    pinned by test_growth_terms_30_exact_output)."""
    value, text = EXACT_GROWTH[class_id]
    code, out, err = run_cli(capsys, "growth", "--class", class_id,
                             "--terms", str(terms))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "exact growth: " + text
    code, out, err = run_cli(capsys, "growth", "--class", class_id,
                             "--terms", str(terms), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_growth"] == value


@pytest.mark.parametrize("class_id", sorted(EXACT_GROWTH))
def test_growth_estimate_far_from_every_candidate_exits_6(
        capsys, monkeypatch, class_id):
    monkeypatch.setattr(algebraic, "growth_estimate",
                        lambda counts: (100.0, 100.0))
    code, out, err = run_cli(capsys, "growth", "--class", class_id,
                             "--terms", "30")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "error: no growth candidate matches the estimate\n"


TABLES = {
    "count_both_text": (
        ("count", "--class", "class_a", "--method", "both", "--n", "4"),
        "0\t1\t1\tMATCH\n1\t1\t1\tMATCH\n2\t2\t2\tMATCH\n"
        "3\t6\t6\tMATCH\n4\t22\t22\tMATCH\n"),
    "count_both_csv": (
        ("count", "--class", "class_a", "--method", "both", "--n", "4",
         "--format", "csv"),
        "n,oracle,functional_equation,match\n0,1,1,true\n1,1,1,true\n"
        "2,2,2,true\n3,6,6,true\n4,22,22,true\n"),
    "count_oracle_csv": (
        ("count", "--class", "class_b", "--method", "oracle", "--n", "4",
         "--format", "csv"),
        "n,oracle\n0,1\n1,1\n2,2\n3,6\n4,22\n"),
    "distribution_text": (
        ("distribution", "--class", "class_a", "--n", "3"),
        "0,0,1\n1,1,1\n2,1,1\n2,2,1\n3,1,3\n3,2,2\n3,3,1\n"),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_exact_output(capsys, name):
    """The text and CSV tables of count and distribution, byte for byte
    (a CSV bool is lower case)."""
    argv, text = TABLES[name]
    assert run_cli(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize("command", [
    ("verify", "--fixture", "eq6", "--order", "1500"),
    ("guess", "--terms", "1500", "--dy", "3", "--dz", "4"),
], ids=["verify", "guess"])
def test_fskew_at_f1_for_class_b_rejected_before_iterating(
        capsys, monkeypatch, command):
    def iterate(n_max):
        raise AssertionError("iterate called")
    monkeypatch.setattr(class_b, "iterate", iterate)
    code, out, err = run_cli(capsys, *command, "--class", "class_b",
                             "--series", "fskew_at_f1")
    assert (code, out) == (2, "")
    assert err == "error: fskew_at_f1 only exists for class_a\n"


def test_kernel_check(capsys):
    code, out, _ = run_cli(capsys, "kernel-check", "--order", "15")
    assert code == 0
    assert "PASS" in out


def test_kernel_check_order_40_exact_output(capsys):
    code, out, err = run_cli(capsys, "kernel-check", "--order", "40")
    assert (code, err) == (0, "")
    assert out == ("m1(z, t1) residual order: 41\n"
                   "K(z, t1) residual order: 41\n"
                   "R residual order: 41\n"
                   "P residual order: 41\n"
                   "K cofactor: 1\n"
                   "kernel check: PASS\n")
    code, out, err = run_cli(capsys, "kernel-check", "--order", "40",
                             "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert {key: payload[key] for key in (
        "m1_residual_order", "kernel_residual_order", "r_residual_order",
        "p_residual_order", "status")} == {
        "m1_residual_order": 41, "kernel_residual_order": 41,
        "r_residual_order": 41, "p_residual_order": 41, "status": "pass"}


def test_kernel_check_fails_on_wrong_class_b_row(capsys, monkeypatch):
    """A wrong f row leaves m1 and K at t1 intact; the R and P residuals
    must fail the check."""
    iterate = class_b.iterate

    def corrupted(n_max):
        state = iterate(n_max)
        state.f.c[12][0] += 1
        return state
    monkeypatch.setattr(class_b, "iterate", corrupted)
    code, out, _ = run_cli(capsys, "kernel-check", "--order", "20")
    assert code == cli.EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[-1] == "kernel check: FAIL"
    # the row enters y0 = f(z,t1) and the y1..y3 series from z^12 on;
    # P's residual, formed from K's and R's values, fails with R's
    orders = {line.split(" residual order: ")[0]: int(line.split(": ")[1])
              for line in lines if " residual order: " in line}
    assert orders["m1(z, t1)"] == orders["K(z, t1)"] == 21
    assert 12 <= orders["R"] <= 20
    assert 12 <= orders["P"] <= 20


@pytest.mark.parametrize("argv", [
    ("count", "--class", "class_a", "--n", "-1",
     "--method", "functional_equation"),
    ("count", "--class", "class_a", "--n", "-1", "--method", "oracle"),
    ("distribution", "--class", "class_a", "--n", "-1"),
    ("verify", "--class", "class_a", "--fixture", "eq5", "--order", "-3"),
    ("growth", "--class", "class_a", "--terms", "5"),
    ("guess", "--class", "class_a", "--terms", "20", "--dy", "-1",
     "--dz", "2"),
    ("guess", "--class", "class_a", "--terms", "20", "--dy", "1",
     "--dz", "-2"),
    ("count", "--class", "class_a", "--n", "5", "--method", "oracle",
     "--node-budget", "-3"),
    ("distribution", "--class", "class_b", "--n", "0", "--stat",
     "gap_count"),
    ("distribution", "--class", "class_a", "--n", "0", "--stat",
     "gap_count", "--format", "json"),
    ("distribution", "--class", "class_b", "--n", "0", "--stat",
     "gap_count", "--format", "csv"),
], ids=["count_fe", "count_oracle", "distribution", "verify_order",
        "growth_terms", "guess_dy", "guess_dz", "count_node_budget",
        "gap_count_empty_text", "gap_count_empty_json",
        "gap_count_empty_csv"])
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


def test_inexact_interpolation_exit_code(capsys, monkeypatch):
    """From ``class_a._ONE_POINT_BELOW`` on, with every packed row value
    that the evaluator forms at T = t^2 = 2 off by one, the product
    values at T = 2 are off too, and the interpolation's division by k!
    leaves a remainder: exit 6 with one error line."""
    evaluate = class_a.tpoly_values

    def off_at_2(p, k):
        values = evaluate(p, k)
        if k >= 2:
            values[k + 2] += 1
        return values
    monkeypatch.setattr(class_a, "tpoly_values", off_at_2)
    code, out, err = run_cli(capsys, "count", "--class", "class_a", "--n",
                             str(class_a._ONE_POINT_BELOW),
                             "--method", "functional_equation")
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("error: values are not those of an integer "
                          "polynomial: Delta^") and err.count("\n") == 1


def test_overflowing_slot_exits_6(capsys, monkeypatch, pack_widths):
    """From ``class_a._ONE_POINT_BELOW`` on, with one slot of one packed
    product row off by 2^S, S the slot width, the interpolation is exact
    and every coefficient a nonnegative int, but the unpacked row no
    longer sums to its value at t = 1: exit 6 with one error line."""
    interpolate = class_a.tpoly_interpolate

    def overflow(values, start):
        blocks = interpolate(values, start)
        if len(values) == 7:
            blocks[0] += 1 << max(pack_widths)
        return blocks
    monkeypatch.setattr(class_a, "tpoly_interpolate", overflow)
    code, out, err = run_cli(capsys, "count", "--class", "class_a", "--n",
                             str(class_a._ONE_POINT_BELOW),
                             "--method", "functional_equation")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "error: row z^11 of fskew does not sum to its value " \
        "at t = 1\n"


def test_corrupted_one_point_product_exits_6(capsys, monkeypatch):
    """Below ``class_a._ONE_POINT_BELOW``, with one slot of the one dot
    product for row z^11 off by one, the row no longer sums to its value
    at t = 1: exit 6 with one error line.  Row s reads its product's
    slots, then its chain row's, so that product is the 19th reading."""
    unpack_bytes, readings = class_a._unpack_bytes, []

    def corrupted(q, size):
        slots = unpack_bytes(q, size)
        readings.append(q)
        if len(readings) == 19:
            slots[3] += 1
        return slots
    monkeypatch.setattr(class_a, "_unpack_bytes", corrupted)
    code, out, err = run_cli(capsys, "count", "--class", "class_a", "--n",
                             "20", "--method", "functional_equation")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "error: row z^11 of fskew does not sum to its value " \
        "at t = 1\n"
    assert len(readings) == 19


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "class_a", "--fixture", "eq5", "--order", "10"),
    ("growth", "--class", "class_a"),
], ids=["verify", "growth"])
def test_corrupted_fixture_exits_6_with_one_line(capsys, monkeypatch, argv):
    data_text = fixtures._data_text
    monkeypatch.setattr(fixtures, "_data_text",
                        lambda name: data_text(name) + " ")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err.startswith("error: checksum mismatch for eq5_min_poly.txt: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "class_a", "--fixture", "eq5", "--order", "5"),
    ("growth", "--class", "class_a"),
], ids=["verify", "growth"])
def test_missing_fixture_exits_6_with_one_line(capsys, monkeypatch, tmp_path,
                                               argv):
    """A package whose data directory holds CHECKSUMS but not the
    polynomial files names the missing file in one error line."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "CHECKSUMS").write_text(
        fixtures._data_text("CHECKSUMS"))
    monkeypatch.setattr(fixtures.resources, "files", lambda package: tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == ("error: cannot read bundled file eq5_min_poly.txt: "
                   "No such file or directory\n")


@pytest.mark.parametrize("error", [
    ArithmeticError("P is not linear in y0..y3"),
    NotDivisibleError("inexact polynomial division"),
], ids=["arithmetic", "not_divisible"])
def test_kernel_extraction_failure_exit_code(capsys, monkeypatch, error):
    def broken():
        raise error
    monkeypatch.setattr(algebraic, "kernel_extract", broken)
    code, out, err = run_cli(capsys, "kernel-check", "--order", "5")
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert err == "error: %s\n" % error


def test_kernel_transcription_error_exits_6(capsys, monkeypatch):
    """With one coefficient of m2 changed, K is no longer divisible by
    the displayed factored form: the cofactor division fails, and
    kernel-check exits 6 with one error line."""
    m2 = algebraic.m2_poly
    z, t = MultivariatePolynomial.variables("z", "t")
    monkeypatch.setattr(algebraic, "m2_poly", lambda: m2() + t ** 4 * z ** 2)
    with pytest.raises(NotDivisibleError):
        algebraic.kernel_extract()
    code, out, err = run_cli(capsys, "kernel-check", "--order", "10")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "error: inexact polynomial division\n"


def test_kernel_product_of_unknowns_exits_6(capsys, monkeypatch):
    """With a y1*y2 term added to P, P is no longer linear in y0..y3:
    kernel_extract raises, and kernel-check exits 6 with one error
    line."""
    _, y1, y2, *_ = MultivariatePolynomial.variables(*algebraic._KVARS)
    primitive = MultivariatePolynomial.primitive
    monkeypatch.setattr(MultivariatePolynomial, "primitive",
                        lambda self: primitive(self) + y1 * y2)
    with pytest.raises(ArithmeticError,
                       match=r"^P is not linear in y0\.\.y3$"):
        algebraic.kernel_extract()
    code, out, err = run_cli(capsys, "kernel-check", "--order", "10")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "error: P is not linear in y0..y3\n"


@pytest.mark.parametrize("argv", [
    ("guess", "--class", "class_a", "--terms", "40", "--dy", "3",
     "--dz", "4"),
    ("verify", "--class", "class_a", "--fixture", "eq5", "--order", "10"),
    ("growth", "--class", "class_a"),
    ("kernel-check",),
], ids=["guess", "verify", "growth", "kernel_check"])
def test_csv_only_for_tables(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def _readme_commands():
    """Every ``permclass ...`` line in README's code blocks."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme.read_text(),
                        re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("permclass ")]


def test_readme_commands_parse():
    """README's examples are valid command lines, both to the full parser
    and to the one-subcommand parser main builds; none is run."""
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
            cli.build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: %s" % line)


SUBCOMMANDS = ("count", "distribution", "guess", "verify", "growth",
               "kernel-check")


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main, argparse's exits
    included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *((name, "-h") for name in SUBCOMMANDS),
    ("growth", "--class", "class_a", "extra"),
    ("count", "--class", "class_a", "--n", "3", "--bogus"),
    ("count", "--class", "class_a"),
    ("verify", "--class", "class_a", "--order", "3"),
    ("distribution", "--class", "class_a", "--n", "3", "--stat", "nope"),
    ("guess", "--class", "class_a", "--terms", "40", "--dy", "3", "--dz",
     "4", "--format", "csv"),
    ("count", "--class", "class_a", "--n", "3", "--me", "oracle"),
    ("permute", "--n", "3"),
    (),
    ("-h",),
    ("--format", "json", "count"),
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_answers_as_the_full_parser(capsys, monkeypatch, argv):
    """main parses with a parser of the named subcommand alone; its
    output, errors and help included, is byte for byte that of the
    parser of all six."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _main_outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == _main_outcome(capsys, argv)


@pytest.mark.parametrize("argv, built", [
    *(((name, "-h"), [name]) for name in SUBCOMMANDS),
    (("-h",), list(SUBCOMMANDS)),
    (("permute",), list(SUBCOMMANDS)),
], ids=[*SUBCOMMANDS, "help", "unknown"])
def test_main_builds_only_the_named_subcommand(capsys, monkeypatch, argv,
                                               built):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    capsys.readouterr()
    assert calls == built


def _exit_codes(text):
    """The codes listed in the paragraph that begins "Exit codes:": the
    number opening each item, parenthetical remarks left out."""
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    items = re.sub(r"\([^()]*\)", "", paragraph)[len("Exit codes:"):]
    return {int(code) for code in re.findall(r"(?:^|[,;])\s*(\d+)\b",
                                             items)}


def _package_exceptions():
    """Every Exception subclass defined in a permclass module."""
    found = []
    for info in pkgutil.iter_modules(permclass.__path__):
        module = importlib.import_module("permclass." + info.name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__]
    return found


# constructor arguments of the exceptions that take more than a message
_EXCEPTION_ARGS = {"CliError": ("boom", 2), "PrimeBudgetError": (3,)}


@pytest.mark.parametrize("error", _package_exceptions(),
                         ids=lambda cls: cls.__name__)
def test_every_package_exception_has_a_documented_exit_code(
        capsys, monkeypatch, error):
    def raising(args):
        raise error(*_EXCEPTION_ARGS.get(error.__name__, ("boom",)))
    monkeypatch.setattr(cli, "cmd_count", raising)
    code, out, err = run_cli(capsys, "count", "--class", "class_a",
                             "--n", "3")
    assert code in _exit_codes(cli.__doc__) - {0}
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_codes_documented_once():
    """The exit codes are the same in cli, its docstring and README."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    codes = {0, 2} | {value for name, value in vars(cli).items()
                      if name.startswith("EXIT_")}
    assert _exit_codes(cli.__doc__) == codes
    assert _exit_codes(readme.read_text()) == codes
