import json

import pytest

from padicradial.cli import main
from padicradial.radial import RadialFunction, dump_radial, load_radial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_sigma_mode(capsys):
    code, out, _ = run(capsys, "constants", "--p", "2", "--alpha", "2", "--sigma", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d_abs 0.333333333333"
    assert lines[1].startswith("s_signed ")
    assert lines[2].startswith("a_bound ")


def test_constants_bad_sigma_exit_2(capsys):
    code, _, err = run(capsys, "constants", "--p", "2", "--alpha", "2", "--sigma", "-0.5")
    assert code == 2
    assert "max(-1/alpha, -1)" in err


def test_constants_gamma_mode(capsys):
    code, out, _ = run(capsys, "constants", "--p", "2", "--alpha", "1",
                       "--gamma", "0.25", "--nmax", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("C_0 ")
    assert lines[-1].startswith("C ")
    c_value = float(lines[-1].split()[1])
    for line in lines[:-1]:
        assert float(line.split()[1]) <= c_value * (1 + 1e-12)


def test_constants_c_is_c_0_next_to_degeneration(capsys):
    # C was 1442694.7901 here, 500 times below C_0
    code, out, _ = run(capsys, "constants", "--p", "2", "--alpha", "0.5",
                       "--gamma", "0.499999999", "--nmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "C_0 721347553.701" and lines[-1] == "C 721347553.701"


@pytest.mark.parametrize("argv", [
    ("constants", "--p", "2", "--alpha", "0.5", "--sigma", "-0.9999999999999999"),
    ("constants", "--p", "2", "--alpha", "0.5", "--gamma", "0.49999999999999994"),
    ("solve", "--p", "2", "--alpha", "0.5", "--gamma", "0.49999999999999994", "--u0", "1",
     "--rhs", "zero"),
])
def test_sigma_within_rounding_of_the_boundary_exit_2(capsys, argv):
    # the constants once exited 1 on a ZeroDivisionError, and the solve 3 at the work limit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "lies within rounding of the boundary max(-1/alpha, -1) = -1.0" in err


@pytest.mark.parametrize("rhs", ["cos-decay", "bounded-sigmoid"])
def test_solve_negative_amplitude_declares_its_magnitude(capsys, rhs):
    # the catalog once declared bound_M = A and refused a negative A for the user
    code, out, err = run(capsys, "solve", "--p", "3", "--alpha", "1.5", "--gamma", "0.25",
                         "--u0", "1", "--rhs", rhs, "--rhs-amplitude", "-0.1", "--extend-to", "3")
    assert code == 0 and err == ""
    assert "k_max 3" in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--p", "2", "--alpha", "1.5", "--gamma", "0.25", "--u0", "1", "--rhs", "zero",
      "--rhs-amplitude", "nan"], "amplitude must be finite"),
    (["sweep", "--rhs", "const", "--rhs-beta", "inf"], "decay_beta must be finite"),
])
def test_catalog_parameter_that_f_ignores_non_finite_exit_2(capsys, argv, message):
    # zero reads no amplitude and const no beta; both runs once exited 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_solve_past_the_weight_guard_exit_0(capsys):
    # the residual's weight p^(gamma n) passes the overflow guard at level 1123; the solve
    # once succeeded and then exited 2 on a MagnitudeError from the residual
    code, out, err = run(capsys, "solve", "--p", "2", "--alpha", "1", "--gamma", "0.9",
                         "--u0", "1", "--rhs", "cos-decay", "--extend-to", "1126")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "k_max 1126" in lines
    assert any(line.startswith("max_residual ") and line != "max_residual none" for line in lines)


@pytest.mark.parametrize("nmax", ["-1", "-3"])
def test_constants_negative_nmax_exit_2(capsys, nmax):
    # a negative --nmax once printed only the uniform constant C and exited 0
    code, out, err = run(capsys, "constants", "--p", "2", "--alpha", "1",
                         "--gamma", "0.25", "--nmax", nmax)
    assert code == 2 and out == ""
    assert f"--nmax must be >= 0, got {nmax}" in err


def test_constants_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "constants", "--p", "2", "--alpha", "1")
    assert code == 2


def test_apply_dalpha(tmp_path, capsys):
    path = tmp_path / "omega.txt"
    path.write_text(dump_radial(RadialFunction.indicator_unit_ball(2)))
    code, out, _ = run(capsys, "apply", "--op", "dalpha", "--alpha", "1",
                       "--input", str(path), "--levels=-1:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "-1 0.666666666667"
    assert lines[1] == "0 0.666666666667"
    assert lines[2] == "1 -0.333333333333"


def test_apply_ialpha_single_level(tmp_path, capsys):
    path = tmp_path / "omega.txt"
    path.write_text(dump_radial(RadialFunction.indicator_unit_ball(2)))
    code, out, _ = run(capsys, "apply", "--op", "ialpha", "--alpha", "2",
                       "--input", str(path), "--levels", "1")
    assert code == 0
    assert out.strip() == "1 -1"


def test_apply_ialpha_steep_left_tail_exit_0(tmp_path, capsys):
    # expm1((alpha + rho) ln p) of the tail seed overflows at rho = 440, p = 5
    path = tmp_path / "steep.txt"
    path.write_text("5 0 0 0.0 power:1.0:440 zero\n0 1.0\n")
    code, out, err = run(capsys, "apply", "--op", "ialpha", "--alpha", "2", "--input", str(path))
    assert (code, out, err) == (0, "0 0.04\n", "")


def test_apply_unknown_op(tmp_path, capsys):
    path = tmp_path / "omega.txt"
    path.write_text(dump_radial(RadialFunction.indicator_unit_ball(2)))
    code, _, err = run(capsys, "apply", "--op", "grad", "--alpha", "1",
                       "--input", str(path))
    assert code == 2


def test_apply_missing_input_exit_2(tmp_path, capsys):
    path = tmp_path / "missing.txt"
    code, out, err = run(capsys, "apply", "--op", "dalpha", "--alpha", "1.5", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("levels", ["x", "3:1", "1:", "0.5"])
def test_apply_bad_levels_exit_2(tmp_path, capsys, levels):
    path = tmp_path / "omega.txt"
    path.write_text(dump_radial(RadialFunction.indicator_unit_ball(2)))
    code, out, err = run(capsys, "apply", "--op", "ialpha", "--alpha", "1",
                         "--input", str(path), f"--levels={levels}")
    assert code == 2 and out == ""
    assert "--levels" in err


@pytest.mark.parametrize("flag,value", [("--p-list", "2,x"), ("--p-list", "2,3.5"),
                                        ("--alpha-list", "1,x")])
def test_sweep_bad_list_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "sweep", flag, value)
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_sweep_bad_tol_exit_2(capsys, tol):
    # the tolerance is the grid's: refused once, before any cell, not per row
    code, out, err = run(capsys, "sweep", f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tol must be finite and positive" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--rhs", "nosuch", "unknown catalog nonlinearity 'nosuch'"),
    ("--rhs-beta", "nan", "decay_beta must be finite"),
    ("--rhs-amplitude", "0", "bound_M must be positive"),
    ("--gamma-frac", "nan", "gamma_frac must be in [0, 1)"),
    ("--gamma-frac", "inf", "gamma_frac must be in [0, 1)"),
    ("--gamma-frac", "1.5", "gamma_frac must be in [0, 1)"),
    ("--gamma-frac", "-0.1", "gamma_frac must be in [0, 1)"),
    ("--u0", "nan", "u0 must be finite"),
    ("--u0", "-inf", "u0 must be finite"),
])
def test_sweep_bad_grid_option_exit_2(capsys, flag, value, message):
    # options shared by every cell are refused once, before any cell, not per row
    code, out, err = run(capsys, "sweep", f"{flag}={value}")
    assert code == 2 and out == ""
    assert message in err


def solve_config(tmp_path, **overrides):
    cfg = {
        "p": 2, "alpha": 1.5, "gamma": 0.25, "u0": 1.0,
        "rhs": "cos-decay", "rhs_amplitude": 0.1, "rhs_beta": 2.0,
        "tol": 1e-10,
    }
    cfg.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


def test_solve_zero_rhs_constant_solution(tmp_path, capsys):
    cfg = solve_config(tmp_path, rhs="zero", extend_to="6")
    csv = tmp_path / "sol.csv"
    code, out, _ = run(capsys, "solve", "--config", str(cfg), "--csv-out", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,radius_exponent,u,apriori_bound,residual,residual_uncertainty"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == fields[1]
        assert float(fields[2]) == 1.0


def test_solve_writes_report_and_solution(tmp_path, capsys):
    cfg = solve_config(tmp_path, extend_to="10")
    csv = tmp_path / "sol.csv"
    rep = tmp_path / "rep.json"
    sol = tmp_path / "sol.txt"
    code, out, _ = run(capsys, "solve", "--config", str(cfg),
                       "--csv-out", str(csv), "--report-out", str(rep),
                       "--solution-out", str(sol))
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["k_max"] == 10
    assert payload["hypotheses"]["residual_verifiable"] is True
    u = load_radial(sol.read_text())
    assert u.k_max == 10
    assert "max_residual" in out


def test_solve_residual_column_bounded(tmp_path, capsys):
    cfg = solve_config(tmp_path)
    csv = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--csv-out", str(csv))
    assert code == 0
    residuals = []
    for line in csv.read_text().strip().splitlines()[1:]:
        fields = line.split(",")
        if fields[4]:
            residuals.append(abs(float(fields[4])))
    assert residuals and max(residuals) <= 1e-8 * 1.1


def test_solve_prints_the_floor_budget(tmp_path, capsys):
    # the floor's bound summed up to k_max + 1, over 1 - q: each level counted once; the
    # bound is the second-order one of the seeded march, from k_min = -28
    code, out, _ = run(capsys, "solve", "--config", str(solve_config(tmp_path)))
    assert code == 0 and "\ntruncation_budget 7.02893523308e-14\n" in out
    assert "\nk_min -28\n" in out


def test_solve_gamma_gate_exit_2(tmp_path, capsys):
    cfg = solve_config(tmp_path, gamma=1.0)
    code, _, err = run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "gamma" in err


def test_solve_uncertifiable_window_floor_exit_3(capsys):
    # gamma close to alpha: the truncation budget cannot be met within the work
    # limit on the window width, a runtime failure (cos-decay: its F > 0 leaves a
    # second-order part below the seeded floor)
    code, _, err = run(capsys, "solve", "--p", "2", "--alpha", "0.5", "--gamma", "0.499999999",
                       "--u0", "1", "--rhs", "cos-decay")
    assert code == 3
    assert "work limit of 100000 window levels" in err


def test_solve_a_zero_rhs_next_to_degeneration_exit_0(capsys):
    # the same problem with f = 0 once met the work limit too; its seed is exact, so the
    # floor is the first candidate, the budget 0 and u = u0 at every level
    code, out, err = run(capsys, "solve", "--p", "2", "--alpha", "0.5", "--gamma", "0.499999999",
                         "--u0", "1", "--rhs", "zero")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:] if line[:1] in "-0123456789"]
    assert [int(r[0]) for r in rows] == list(range(-8, 44))
    assert {r[2] for r in rows} == {"1"}
    assert "\nk_min -8\n" in out and "\ntruncation_budget 0\n" in out


def test_solve_overflowing_c_uniform_f_exit_3(capsys):
    # c_uniform F overflows; q_N does not, so the floor search meets the work limit
    code, _, err = run(capsys, "solve", "--p", "2", "--alpha", "0.5", "--gamma", "0.4999",
                       "--u0", "1", "--rhs", "cos-decay", "--rhs-amplitude", "1e306")
    assert code == 3
    assert "work limit of 100000 window levels" in err


def test_solve_whose_hypotheses_pass_the_overflow_guard_exit_0(capsys):
    # F_l < p^(-alpha l) at l = -10 forms 100000007^40, past the overflow guard: that once
    # ended a successful solve with exit 2 on a MagnitudeError
    code, out, err = run(capsys, "solve", "--p", "100000007", "--alpha", "4", "--gamma", "0.5",
                         "--u0", "1", "--rhs", "cos-decay", "--extend-to", "1")
    assert code == 0 and err == ""
    assert "residuals unavailable: per-level Lipschitz bound fails at level 1:" in out


def test_solve_picard_sweep_out_of_the_double_range_exit_2(capsys):
    # a magnitude fault, not wrong metadata
    code, _, err = run(capsys, "solve", "--p", "2", "--alpha", "0.5", "--gamma", "0.49",
                       "--u0", "1", "--rhs", "cos-decay", "--rhs-amplitude", "1e306")
    assert code == 2
    assert "the step at level -106970 left the double range: -inf" in err


def test_solve_flag_overrides_config(tmp_path, capsys):
    cfg = solve_config(tmp_path, rhs="zero", u0=2.0, extend_to="5")
    csv = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--u0", "3.0",
                     "--csv-out", str(csv))
    assert code == 0
    first = csv.read_text().strip().splitlines()[1].split(",")
    assert float(first[2]) == 3.0


def test_solve_config_error_is_line_addressed(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("p = 2\nalpha == 1.5\n")
    code, _, err = run(capsys, "solve", "--config", str(path))
    assert code == 2
    assert "line 2" in err


def test_solve_config_skips_comments_blank_lines_and_empty_values(tmp_path, capsys):
    # an empty value leaves the key at its default: extend_to is then N + 35
    path = tmp_path / "run.cfg"
    path.write_text("# a zero right-hand side\np = 2  # the prime\n\nalpha = 1.5\n"
                    "gamma = 0.25\nu0 = 1.0\nrhs = zero\nextend_to =\n")
    rep = tmp_path / "rep.json"
    code, _, err = run(capsys, "solve", "--config", str(path), "--report-out", str(rep))
    assert (code, err) == (0, "")
    payload = json.loads(rep.read_text())
    assert (payload["p"], payload["local_radius_N"], payload["k_max"]) == (2, 8, 43)


@pytest.mark.parametrize("text, message", [
    ("alpha = 1.5\ngamma = 0.25\nu0 = 1.0\n", "missing required field 'p'"),
    ("p = 2\nalpha 1.5\n", "line 2: expected 'key = value', got 'alpha 1.5'"),
    ("p = 2\n\nbeta = 2.0\n", "line 3: unknown key 'beta'"),
])
def test_solve_config_refusals_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run(capsys, "solve", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.endswith(f"{message}\n")


def test_solve_csv_bit_stable(tmp_path, capsys):
    cfg = solve_config(tmp_path, extend_to="8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "solve", "--config", str(cfg), "--csv-out", str(a))[0] == 0
    assert run(capsys, "solve", "--config", str(cfg), "--csv-out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--depth", "120")
    assert code == 0
    assert "ALL PASS" in out
    assert "FAIL" not in out.replace("ALL PASS", "")


def test_verify_single_suite_and_family(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "right-inverse",
                       "--family", "indicator")
    assert code == 0
    assert all(line.split()[0] == "right-inverse" for line in out.strip().splitlines()[:-1])


def test_verify_shallow_depth_reports_honestly(capsys):
    # depth 5 is far too shallow for the kernel oracle; the suite must
    # print clear fail lines and exit 3 rather than fudge the tolerance
    code, out, _ = run(capsys, "verify", "--suite", "kernel", "--depth", "5")
    assert code == 3
    assert "FAIL" in out
    # the operator oracle completes its truncated ends in closed form from
    # the tail models, so it meets the documented tolerance even at depth 5
    code, out, _ = run(capsys, "verify", "--suite", "dalpha-oracle", "--depth", "5")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_sweep_rows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--p-list", "2", "--alpha-list", "1,1.5",
                     "--gamma-frac", "0.4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("p,alpha,gamma,")
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",ok")


def test_sweep_reports_a_failing_cell_as_a_row(capsys):
    # alpha - gamma = 6e-7 puts the window floor past the work limit: a runtime failure of
    # the cell, reported in its row while the sweep itself exits 0 (cos-decay: a const f
    # is its own exact seed, and solves)
    code, out, err = run(capsys, "sweep", "--p-list", "2", "--alpha-list", "1e-6",
                         "--rhs", "cos-decay")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["2,1e-06,4e-07,,,,,,,,failure: BudgetError"]


def test_sweep_keeps_good_rows_when_a_cell_overflows(capsys):
    # p^((alpha - gamma) n) = 100000007^38.5 leaves the double range at level 35
    code, out, _ = run(capsys, "sweep", "--p-list", "2,100000007", "--alpha-list", "1.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,1.5,") and lines[1].endswith(",ok")
    assert lines[2].startswith("100000007,") and lines[2].endswith("precondition: MagnitudeError")


@pytest.mark.parametrize("argv, message", [
    (("--suite", "haar", "--family", "nosuch"), "unknown test family 'nosuch'"),
    (("--suite", "bounds", "--depth", "-4"), "oracle depth must be >= 1, got -4"),
    (("--suite", "haar", "--depth", "-1"), "oracle depth must be >= 1, got -1"),
    (("--suite", "right-inverse", "--depth", "0"), "oracle depth must be >= 1, got 0"),
])
def test_verify_refuses_bad_options_before_any_cell(capsys, argv, message):
    # an unknown family once passed every cell that ignores the family, and a depth
    # below 1 passed the suites that sum no oracle and failed the haar suite cell by cell
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_refuses_a_right_inverse_family_without_an_admissible_member(capsys):
    # the constant right tail fails the summability conditions, so D^alpha I^alpha v = v
    # is not claimed for it; the suite once ran the other families instead and passed
    code, out, err = run(capsys, "verify", "--suite", "right-inverse",
                         "--family", "const-minus-indicator")
    assert code == 2 and out == ""
    assert "meets the summability conditions" in err
    code, out, _ = run(capsys, "verify", "--suite", "all", "--family", "const-minus-indicator")
    assert code == 2 and out == ""


def test_right_inverse_members_are_those_meeting_the_summability_conditions():
    from padicradial import cli
    assert cli._INVERSE_CELLS == [(p, alpha) for p in (2, 3) for alpha in (0.5, 1.0, 2.0)]
    for p, alpha in cli._INVERSE_CELLS:
        expected = [RadialFunction.indicator_unit_ball(p), RadialFunction.split_power(p, 0.0, -0.5),
                    RadialFunction.split_power(p, 0.5, -1.0)]
        members = cli._inverse_members(p, alpha, "all")
        assert [dump_radial(v) for v in members] == [dump_radial(v) for v in expected]
        assert cli._inverse_members(p, alpha, "const-minus-indicator") == []
