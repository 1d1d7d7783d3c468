"""Command-line contract: exit codes, output lines, file side effects."""

import json

import pytest

from coinfactory.cli import main


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


# --- compile -------------------------------------------------------------------


def test_compile_writes_plan_file(tmp_path, capsys):
    out = tmp_path / "plan.json"
    rc, text = run(["compile", "p + 1/5", "--domain", "1/10:2/5", "--out", str(out)], capsys)
    assert rc == 0
    assert text.startswith(f"wrote {out} hash ")
    doc = json.loads(out.read_text())
    assert doc["root"]["kind"] == "double"


def test_compile_without_out_prints_hash(capsys):
    rc, text = run(["compile", "p^2", "--domain", "1/10:2/5"], capsys)
    assert rc == 0
    assert text.startswith("compiled hash ")


def test_compile_a_constant_with_a_long_binary_period(capsys):
    # 1/3**16 repeats its binary digits every 2 * 3**15 places
    rc, text = run(["compile", "1/43046721", "--domain", "1/10:2/5"], capsys)
    assert rc == 0
    assert text.startswith("compiled hash ")


def test_compile_reports_bound_errors(capsys):
    rc, text = run(["compile", "p + p", "--domain", "1/10:1/2"], capsys)
    assert rc == 2
    assert "error at 0..5" in text
    assert "sum can reach 1" in text


def test_compile_refuses_an_exact_doubler_that_cannot_run(tmp_path, capsys):
    # (p*p) - 1/200 on [1/10, 2/5] has no Bernstein form (it is negative at
    # p = 0), so it needs a doubler with eps' = 1/1600, whose schedule has no
    # first checkpoint below 2**40
    out = tmp_path / "plan.json"
    rc, text = run(["compile", "(p*p) - 1/200", "--domain", "1/10:2/5", "--backend", "exact",
                    "--out", str(out)], capsys)
    assert rc == 2
    assert text.startswith("error at 0..13: exact doubler with eps' = 1/1600: ")
    assert "no admissible first checkpoint" in text
    assert not out.exists()


def test_compile_a_polynomial_difference_to_one_bernstein_coin(tmp_path, capsys):
    # (p*p) - 0 is p^2, whose degree-2 Bernstein coefficients are (0, 0, 1):
    # one node, with no doubler
    out = tmp_path / "plan.json"
    rc, _ = run(["compile", "(p*p) - 0", "--domain", "1/10:2/5", "--backend", "exact",
                 "--out", str(out)], capsys)
    assert rc == 0
    root = json.loads(out.read_text())["root"]
    assert root["kind"] == "bernstein"
    assert root["data"]["b"] == ["0/1", "0/1", "1/1"]
    assert root["children"] == []


def test_compile_reports_syntax_errors(capsys):
    rc, text = run(["compile", "p +", "--domain", "1/10:2/5"], capsys)
    assert rc == 2
    assert "syntax error at offset 3" in text


# --- simulate ------------------------------------------------------------------


def test_simulate_walk_writes_report(tmp_path, capsys):
    path = tmp_path / "walk.json"
    rc, text = run(["simulate", "--target", "walk:200", "--p", "1/4",
                    "--runs", "400", "--seed", "42", "--report", str(path)], capsys)
    assert rc == 0
    assert text.startswith("estimate ")
    assert "wilson997 [" in text and "tosses mean" in text
    doc = json.loads(path.read_text())
    assert doc["runs"] == 400
    assert doc["p"] == "1/4"


def test_simulate_is_deterministic(tmp_path, capsys):
    args = ["simulate", "--target", "monomial:2", "--p", "1/3",
            "--runs", "300", "--seed", "9"]
    first = run(args + ["--report", str(tmp_path / "a.json")], capsys)
    second = run(args + ["--report", str(tmp_path / "b.json")], capsys)
    assert first == second
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_missing_plan_is_io_error(capsys):
    rc, text = run(["simulate", "--plan", "/nonexistent/plan.json",
                    "--p", "1/4", "--runs", "10"], capsys)
    assert rc == 1
    assert text.startswith("io error:")


def test_simulate_compiled_plan_round_trip(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    rc, _ = run(["compile", "p^2", "--domain", "1/10:2/5",
                 "--out", str(plan_path)], capsys)
    assert rc == 0
    rc, text = run(["simulate", "--plan", str(plan_path), "--p", "1/3",
                    "--runs", "200", "--seed", "4"], capsys)
    assert rc == 0
    assert text.startswith("estimate ")


@pytest.mark.parametrize("p", ["0", "1", "3/2"])
def test_simulate_p_outside_unit_interval_is_one_error_line(p, capsys):
    rc, text = run(["simulate", "--target", "monomial:2", "--p", p, "--runs", "10"], capsys)
    assert rc == 3
    assert text.splitlines() == [f"error: p = {p} must lie strictly inside (0, 1)"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_simulate_max_tosses_below_one_is_rejected(cap, capsys):
    rc, text = run(["simulate", "--target", "monomial:2", "--p", "1/3", "--runs", "10",
                    "--max-tosses", cap], capsys)
    assert rc == 3
    assert text.splitlines() == [f"error: max_tosses = {cap} must be at least 1"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_simulate_seed_outside_64_bits_is_rejected(seed, capsys):
    rc, text = run(["simulate", "--target", "monomial:2", "--p", "1/3", "--runs", "10",
                    "--seed", seed], capsys)
    assert rc == 3
    assert text.splitlines() == [f"error: seed = {seed} must lie in [0, 2**64)"]


def test_simulate_max_tosses_on_a_walk_target_is_one_error_line(capsys):
    rc, text = run(["simulate", "--target", "walk:200", "--p", "1/4", "--runs", "50",
                    "--max-tosses", "5"], capsys)
    assert rc == 3
    assert text.splitlines() == [
        "error: max_tosses applies only to envelope schedules, not to a WalkConfig target"]


# --- verify ---------------------------------------------------------------------


def test_verify_monomial_brackets_match_envelope(capsys):
    rc, text = run(["verify", "--target", "monomial:2", "--depth", "8",
                    "--p", "1/3"], capsys)
    assert rc == 0
    assert "oracle brackets at depth 8: [1/9, 1/9]" in text
    assert "envelope evaluation matches exactly" in text


def test_verify_idle_doubling_brackets_are_vacuous(capsys):
    rc, text = run(["verify", "--target", "double:3/25", "--depth", "16",
                    "--p", "1/4"], capsys)
    assert rc == 0
    assert "oracle brackets at depth 16: [0/1, 1/1]" in text
    assert "envelope evaluation matches exactly" in text


def test_verify_walk_closed_form(capsys):
    rc, text = run(["verify", "--target", "walk:14", "--depth", "14",
                    "--p", "1/4"], capsys)
    assert rc == 0
    assert "oracle brackets at depth 14: [33431251/67108864, 33431251/67108864]" in text
    assert "walk enumeration matches the closed form exactly" in text


def test_verify_plan_bias_interval_overlaps_bracket(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run(["compile", "p^2", "--domain", "1/10:2/5", "--out", str(plan_path)], capsys)
    rc, text = run(["verify", "--plan", str(plan_path), "--depth", "8",
                    "--p", "1/3"], capsys)
    assert rc == 0
    assert "plan bias interval [1/9, 1/9]" in text


def test_verify_a_compiled_bernstein_plan(tmp_path, capsys):
    plan_path = tmp_path / "cube.json"
    rc, _ = run(["compile", "(1 - p)^3 + p/2", "--domain", "1/10:2/5", "--backend", "exact",
                 "--out", str(plan_path)], capsys)
    assert rc == 0
    rc, text = run(["verify", "--plan", str(plan_path), "--depth", "12", "--p", "1/5"], capsys)
    assert rc == 0
    assert "plan bias interval [153/250, 153/250]" in text


def test_a_bernstein_node_outside_unit_coefficients_is_refused(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run(["compile", "(p*p) - 0", "--domain", "1/10:2/5", "--out", str(plan_path)], capsys)
    doc = json.loads(plan_path.read_text())
    doc["root"]["data"]["b"] = ["0/1", "0/1", "3/2"]
    plan_path.write_text(json.dumps(doc))
    rc, text = run(["verify", "--plan", str(plan_path), "--depth", "2", "--p", "1/3"], capsys)
    assert rc == 3
    assert text.splitlines() == ["error: Bernstein coefficients must lie in [0, 1]"]


def test_verify_walk_doubler_outside_its_bound_is_one_error_line(tmp_path, capsys):
    # the chain quotient doubles a child whose bias reaches 1/2 at p = 1/2,
    # where the walk's undershoot bound does not apply
    plan_path = tmp_path / "chain.json"
    rc, _ = run(["compile", "2*p / (p + 1/2)", "--domain", "1/10:2/5",
                 "--backend", "approx:2000", "--out", str(plan_path)], capsys)
    assert rc == 0
    rc, text = run(["verify", "--plan", str(plan_path), "--depth", "4",
                    "--p", "1/2"], capsys)
    assert rc == 3
    last = text.strip().splitlines()[-1]
    assert last.startswith("error:")
    assert "p = 1/2" in last


# --- envelope --------------------------------------------------------------------


def test_envelope_clean_schedule_with_dump(tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    rc, text = run(["envelope", "--target", "monomial:2", "--max-n", "64",
                    "--dump", str(csv_path)], capsys)
    assert rc == 0
    assert "up to n = 64" in text
    assert "zero violations" in text
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n,k,count_a,count_b"


def test_envelope_corrupt_fixture_pinpoints_cell(capsys):
    rc, text = run(["envelope", "--target", "fixture:corrupt-monomial",
                    "--max-n", "16"], capsys)
    assert rc == 3
    assert "violation: lower-consistency at (n=4, k=2)" in text


def test_envelope_max_n_below_one_is_rejected(capsys):
    rc, text = run(["envelope", "--target", "monomial:2", "--max-n", "-1"], capsys)
    assert rc == 3
    assert text.splitlines() == ["error: max checkpoint -1 must be at least 1"]


def test_envelope_rejects_non_schedule_target(capsys):
    rc, text = run(["envelope", "--target", "walk:10", "--max-n", "16"], capsys)
    assert rc == 3
    assert text.startswith("error:")


# --- tails ------------------------------------------------------------------------


def test_tails_fits_saved_report(tmp_path, capsys):
    # a constant plan stops at the first fair von Neumann heads, so its
    # toss count is geometric and the fit has a real slope to find
    plan_path = tmp_path / "third.json"
    rc, _ = run(["compile", "1/3", "--domain", "1/10:2/5",
                 "--out", str(plan_path)], capsys)
    assert rc == 0
    path = tmp_path / "third-report.json"
    rc, _ = run(["simulate", "--plan", str(plan_path), "--p", "1/2",
                 "--runs", "4000", "--seed", "5", "--report", str(path)], capsys)
    assert rc == 0
    rc, text = run(["tails", "--report", str(path)], capsys)
    assert rc == 0
    assert text.startswith("rho_hat ")
    assert "window" in text and "residual" in text


@pytest.mark.parametrize("content", [b"{not json", b'{"format": "caf\xe9"}', b"[1, 2]",
                                     b"[" * 3000 + b"]" * 3000],
                         ids=["not_json", "not_ascii", "not_an_object", "nested_too_deep"])
def test_a_malformed_plan_file_is_one_error_line(tmp_path, content, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, text = run(["verify", "--plan", str(path), "--depth", "2", "--p", "1/3"], capsys)
    assert rc == 3
    assert text.splitlines() == [f"error: not a plan file: {path}"]


@pytest.mark.parametrize("content, message", [
    (b"{not json", "not a report file"),
    (b'{"runs": "caf\xe9"}', "not a report file"),
    (b"{}", "malformed report: KeyError('wilson_997')"),
    (b"[1, 2]", "malformed report: TypeError"),
    (b'{"wilson_997": ["1/0", "1"], "tosses": {}}', "malformed report: KeyError('plan_hash')"),
    (b'{"runs": ' * 3000 + b"0" + b"}" * 3000, "not a report file"),
], ids=["not_json", "not_ascii", "empty_object", "not_an_object", "missing_field",
        "nested_too_deep"])
def test_a_malformed_report_file_is_one_error_line(tmp_path, content, message, capsys):
    path = tmp_path / "bad-report.json"
    path.write_bytes(content)
    rc, text = run(["tails", "--report", str(path)], capsys)
    assert rc == 3
    assert len(text.splitlines()) == 1
    assert text.startswith(f"error: {message}")


def test_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--target", "mystery:1", "--depth", "4", "--p", "1/3"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--target", "monomial:0", "--p", "1/3", "--runs", "10"],
    ["simulate", "--target", "monomial:2", "--p", "1/0", "--runs", "10"],
    ["compile", "p", "--domain", "1/0:1/2"],
], ids=["monomial_zero", "p_zero_denominator", "domain_zero_denominator"])
def test_rejected_argument_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["simulate", "--target", "walk:0", "--p", "1/3", "--runs", "10"],
     "invalid value 'walk:0': steps must be >= 1"),
    (["simulate", "--target", "walk:abc", "--p", "1/3", "--runs", "10"],
     "invalid value 'walk:abc': invalid literal for int()"),
    (["simulate", "--target", "monomial:x", "--p", "1/3", "--runs", "10"],
     "invalid value 'monomial:x': invalid literal for int()"),
    (["simulate", "--target", "monomial:2", "--p", "abc", "--runs", "10"],
     "invalid value 'abc': Invalid literal for Fraction"),
    (["compile", "p", "--domain", "1/10:2/5", "--backend", "approx:x"],
     "invalid value 'approx:x': invalid literal for int()"),
], ids=["walk_zero", "walk_not_int", "monomial_not_int", "p_not_fraction", "backend_not_int"])
def test_malformed_argument_values_are_usage_errors_naming_the_reason(argv, reason, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "_resolve_target" not in err and "_fraction" not in err


@pytest.mark.parametrize("expr", ["p", "p+1/5"])
@pytest.mark.parametrize("backend", ["approx:0", "approx:-3"])
def test_backend_with_steps_below_one_is_usage_error(expr, backend, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compile", expr, "--domain", "1/10:2/5", "--backend", backend])
    assert info.value.code == 2
    assert "invalid value" in capsys.readouterr().err
