import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bohrlab import (
    ExactComplex,
    FrequencyModule,
    InputError,
    PiTimes,
    box_support,
    cli,
    lower_expression,
    parse_expression,
    parse_scalar_literal,
    print_expression,
    uniqueness_verdict,
)
from bohrlab.scalars import SymbolicReal

M = FrequencyModule.integers()


# ------------------------------------------------------------------
# parsing and lowering
# ------------------------------------------------------------------


def test_parse_single_character():
    f = lower_expression(parse_expression("chi(2)"))
    assert f.module.generators[0].value == 1.0
    assert [k.coords for k in f.ap.coeffs] == [(2,)]


def test_parse_cosine_combination():
    f = lower_expression(parse_expression("0.5*chi(1) + 0.5*chi(-1)"))
    assert abs(f.ap.eval(math.pi / 3) - 0.5) < 1e-12


def test_parse_hat():
    f = lower_expression(parse_expression("hat(-1,0,1)"))
    assert f.c0.breakpoints == (Fraction(-1), Fraction(0), Fraction(1))
    assert complex(f.c0.eval_exact(Fraction(0))) == 1


def test_parse_imaginary_coefficient():
    f = lower_expression(parse_expression("i*chi(1)"))
    assert f.ap.coeff(f.module.frequency(1)) == ExactComplex(Fraction(0), Fraction(1))


def test_parse_rational_frequencies_share_refined_generator():
    f = lower_expression(parse_expression("chi(1/2) + chi(1/3)"))
    gen = f.module.generators[0]
    assert gen.symbolic.terms["1"] == Fraction(1, 6)
    assert sorted(k.coords for k in f.ap.coeffs) == [(2,), (3,)]


def test_parse_symbol_frequency():
    f = lower_expression(parse_expression("chi(1*sqrt2) + chi(2*sqrt2)"))
    assert f.module.generators[0].symbol == "sqrt2"
    assert sorted(k.coords for k in f.ap.coeffs) == [(1,), (2,)]


def test_parse_mixed_symbols_get_distinct_generators():
    f = lower_expression(parse_expression("chi(1) + chi(1*pi)"))
    assert f.module.dim == 2


def test_parse_character_products_multiply():
    f = lower_expression(parse_expression("chi(1)*chi(2)"))
    assert [k.coords for k in f.ap.coeffs] == [(3,)]


def test_scaling_a_hat_is_allowed():
    f = lower_expression(parse_expression("2*hat(0,1,2)"))
    assert complex(f.c0.eval_exact(Fraction(1))) == 2


def test_hat_times_character_rejected():
    with pytest.raises(InputError, match="compactly supported"):
        lower_expression(parse_expression("hat(0,1,2)*chi(1)"))


def test_hat_times_hat_rejected():
    with pytest.raises(InputError, match="compactly supported"):
        lower_expression(parse_expression("hat(0,1,2)*hat(1,2,3)"))


def test_parse_error_carries_position():
    with pytest.raises(InputError, match="line 1, column 5"):
        parse_expression("chi(")


def test_unknown_symbol_rejected():
    with pytest.raises(InputError, match="unknown symbol"):
        parse_expression("chi(2*bogus)")


def test_unknown_name_rejected():
    with pytest.raises(InputError, match="unknown name"):
        parse_expression("cos(1)")


def test_malformed_number_rejected():
    with pytest.raises(InputError, match="malformed|unexpected"):
        parse_expression("1.2.3")


def test_unary_minus_allowed_at_head():
    f = lower_expression(parse_expression("-chi(1) + chi(2)"))
    assert f.ap.coeff(f.module.frequency(1)) == ExactComplex(Fraction(-1))


def test_scalar_literals():
    assert parse_scalar_literal("3/2") == Fraction(3, 2)
    assert parse_scalar_literal("-0.25") == Fraction(-1, 4)
    assert parse_scalar_literal("2*pi") == PiTimes(Fraction(2))
    s = parse_scalar_literal("sqrt2")
    assert abs(float(s) - math.sqrt(2)) < 1e-12


# ------------------------------------------------------------------
# round trip
# ------------------------------------------------------------------


def _random_source(rng, depth=0):
    choice = rng.integers(0, 8 if depth < 2 else 6)
    if choice == 0:
        return str(rng.integers(-9, 10))
    if choice == 1:
        return f"{rng.integers(-9, 10)}/{rng.integers(1, 10)}"
    if choice == 2:
        return "i"
    if choice == 3:
        q = f"{rng.integers(-5, 6)}"
        sym = rng.choice(["", "*pi", "*sqrt2"])
        return f"chi({q}{sym})"
    if choice == 4:
        a = int(rng.integers(-6, 3))
        b = a + int(rng.integers(1, 4))
        c = b + int(rng.integers(1, 4))
        return f"hat({a},{b},{c})"
    if choice == 5:
        return f"0.{rng.integers(1, 100):02d}"
    if choice == 6:
        n = int(rng.integers(2, 4))
        return " + ".join(_random_source(rng, depth + 1) for _ in range(n))
    parts = [_random_source(rng, depth + 1) for _ in range(int(rng.integers(2, 4)))]
    return "(" + ") * (".join(parts) + ")"


def test_roundtrip_200_case_corpus(rng):
    good = 0
    for _ in range(200):
        src = _random_source(rng)
        try:
            ast = parse_expression(src)
        except InputError:
            continue
        printed = print_expression(ast)
        assert parse_expression(printed) == ast, (src, printed)
        good += 1
    assert good >= 150  # the generator occasionally emits rejected forms


def test_roundtrip_handles_signs_and_nesting():
    for src in (
        "-3",
        "-chi(1)",
        "1 - 3",
        "2*(chi(1) + chi(2))",
        "(1 + i)*(1 - i)",
        "hat(-2,-1,0) + chi(-1/2)",
        "-1/2*chi(3*pi)",
    ):
        ast = parse_expression(src)
        assert parse_expression(print_expression(ast)) == ast


# ------------------------------------------------------------------
# CLI end to end
# ------------------------------------------------------------------


def run_cli(*args, **kw):
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab", *args],
        capture_output=True,
        text=True,
        **kw,
    )
    return proc


def test_cli_inner_orthonormality():
    proc = run_cli("inner", "chi(2)", "chi(2)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == ["1", "0"]
    proc = run_cli("inner", "chi(1)", "chi(3)")
    assert json.loads(proc.stdout)["value"] == ["0", "0"]


def test_cli_inner_across_symbols():
    proc = run_cli("inner", "chi(1)", "chi(1*sqrt2)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == ["0", "0"]


def test_cli_mean():
    proc = run_cli("mean", "3 + 2*chi(1*sqrt2)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == ["3", "0"]


def test_cli_mean_with_numeric_window():
    proc = run_cli("mean", "chi(1)", "--T", "100")
    report = json.loads(proc.stdout)
    numeric = complex(*report["numeric_value"])
    assert abs(numeric) <= report["error_bound"] + 1e-12


def test_cli_translate_by_pi():
    proc = run_cli("translate", "chi(1)+chi(2)", "--t", "pi")
    assert proc.returncode == 0
    terms = json.loads(proc.stdout)["result"]["ap"]["terms"]
    by_coord = {tuple(t["coords"]): (t["re"], t["im"]) for t in terms}
    assert by_coord[(1,)] == ("-1", "0")
    assert by_coord[(2,)] == ("1", "0")


def test_cli_verify_haar_uniqueness_forced():
    proc = run_cli(
        "verify-haar-uniqueness", "--generators", "1", "--freqs", "-3..3", "--shifts", "1"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "ForcedHaar"


def test_cli_verify_haar_uniqueness_undetermined():
    proc = run_cli(
        "verify-haar-uniqueness",
        "--generators", "1", "--freqs", "-3..3", "--shifts", "2*pi",
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["verdict"] == "Undetermined"
    assert len(report["surviving_frequencies"]) == 6


def _same_shift(a, b) -> bool:
    if isinstance(a, SymbolicReal) or isinstance(b, SymbolicReal):
        return type(a) is type(b) and (a.terms, a.approx) == (b.terms, b.approx)
    return type(a) is type(b) and a == b


def test_cli_witness_shifts_are_the_literals_given():
    literals = ["2*pi", "1/2*pi", "sqrt2", "1/3"]
    argv = ["verify-haar-uniqueness", "--generators", "1,sqrt2", "--freqs", "-4..4"]
    runs = [run_cli(*argv, "--shifts", ",".join(literals), timeout=20) for _ in range(2)]
    assert runs[0].returncode == 0 and runs[0].stdout == runs[1].stdout
    witnesses = _strict_json(runs[0].stdout)["witness_shifts"]
    # the same verdict in this process: each witness parses back to its killer
    module = cli._parse_module("1,sqrt2")
    shifts = [parse_scalar_literal(lit) for lit in literals]
    verdict = uniqueness_verdict(module, box_support(module, 4), shifts)
    assert set(witnesses) == {str(list(f.coords)) for f in verdict.killers}
    for f, t in verdict.killers.items():
        assert _same_shift(parse_scalar_literal(witnesses[str(list(f.coords))]), t)
    assert set(witnesses.values()) == {"2*pi", "1/2*pi", "sqrt2"}


@pytest.mark.parametrize(
    "generators, shifts",
    [("1", "sqrt1000000000000000000000007"), ("1,sqrt10000000019", "1/3")],
    ids=["large_sqrt_shift", "large_sqrt_generator"],
)
def test_cli_large_square_roots_finish(generators, shifts):
    t0 = time.perf_counter()
    proc = run_cli(
        "verify-haar-uniqueness", "--generators", generators, "--freqs", "-1..1",
        "--shifts", shifts, timeout=20,
    )
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 0, proc.stdout
    report = _strict_json(proc.stdout)
    assert report["verdict"] == "ForcedHaar"
    assert set(report["witness_shifts"].values()) == {shifts}


def test_cli_verify_extension():
    proc = run_cli("verify-extension", "--trials", "60", "--seed", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert report["worst_residual"] <= 1e-10


def test_cli_check_measure_hat_r_part(tmp_path):
    measure = {
        "r_part": {
            "breakpoints": ["0", "1/2", "1"],
            "values": ["0", "1", "0"],
            "atoms": [],
        },
        "bohr_part": {
            "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
            "entries": [
                {"coords": [-1], "re": "0", "im": "0"},
                {"coords": [0], "re": "1", "im": "0"},
                {"coords": [1], "re": "0", "im": "0"},
            ],
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure))
    proc = run_cli("check-measure", str(path), "--shifts", "1")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["verdict"] == "Violated"
    assert report["r_witness"] is not None


def test_cli_check_measure_standard(tmp_path):
    measure = {
        "r_part": {"breakpoints": [], "values": [], "atoms": []},
        "bohr_part": {
            "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
            "entries": [
                {"coords": [k], "re": "1" if k == 0 else "0", "im": "0"}
                for k in range(-2, 3)
            ],
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure))
    proc = run_cli("check-measure", str(path), "--shifts", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "ForcedStandard"
    assert report["gram_identity_defect"] <= 1e-10


def test_cli_check_bare_bohr_measure(tmp_path):
    measure = {
        "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
        "entries": [
            {"coords": [k], "re": "1", "im": "0"} for k in range(-1, 2)
        ],
    }
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(measure))
    proc = run_cli("check-measure", str(path), "--shifts", "1")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["invariant"] is False
    assert report["worst_frequency"] in ([1], [-1])


def test_cli_kronecker_success_and_verification():
    proc = run_cli(
        "kronecker", "--generators", "1,sqrt2", "--target", "0,pi", "--eps", "0.05"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    t = report["t"]
    for g, theta in ((1.0, 0.0), (math.sqrt(2.0), math.pi)):
        assert 2.0 * abs(math.sin(0.5 * (g * t - theta))) < 0.05


def test_cli_dependent_generators_exit_2():
    proc = run_cli(
        "verify-haar-uniqueness", "--generators", "1,1/2", "--freqs", "-2..2", "--shifts", "1"
    )
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


def test_cli_bad_expression_exit_2():
    proc = run_cli("mean", "chi(")
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


def test_cli_missing_file_exit_2(tmp_path):
    proc = run_cli("check-measure", str(tmp_path / "nope.json"), "--shifts", "1")
    assert proc.returncode == 2


def test_cli_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("check-measure", str(path), "--shifts", "1")
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name} in report")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        ["mean", "chi(1)", "--T", "nan"],
        ["mean", "chi(1)", "--T", "inf"],
        ["verify-extension", "--trials", "-5"],
        ["kronecker", "--generators", "1,sqrt2", "--target", "0,pi", "--eps", "nan"],
    ],
    ids=["mean_T_nan", "mean_T_inf", "extension_trials_negative", "kronecker_eps_nan"],
)
def test_cli_non_finite_or_non_positive_flags_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stdout
    assert "error" in _strict_json(proc.stdout)


@pytest.mark.parametrize("literal", ["NaN", "1e999"], ids=["nan", "inf"])
def test_cli_non_finite_json_moments_exit_2(tmp_path, literal):
    measure = {
        "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
        "entries": [
            {"coords": [k], "re": "1" if k == 0 else "@", "im": "0"} for k in range(-1, 2)
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure).replace('"@"', literal))
    proc = run_cli("check-measure", str(path), "--shifts", "1")
    assert proc.returncode == 2, proc.stdout
    assert "finite" in _strict_json(proc.stdout)["error"]


@pytest.mark.parametrize(
    "value, message",
    [("10", "at least 15"), ("fifty", "must be an integer")],
    ids=["below_15", "not_an_integer"],
)
def test_cli_bad_precision_env_exits_2(value, message):
    proc = run_cli("mean", "chi(1)", env=dict(os.environ, BOHR_PRECISION=value))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in _strict_json(proc.stdout)["error"]


@pytest.mark.parametrize(
    "flags",
    [["--eps", "1e-12"], ["--eps", "1e-320"], ["--eps", "0.1", "--t-max", "1e308"]],
    ids=["eps_1e-12", "eps_1e-320", "t_max_1e308"],
)
def test_cli_kronecker_extreme_flags_answer_in_time(flags):
    proc = run_cli(
        "kronecker", "--generators", "1,sqrt2", "--target", "0,pi", *flags, timeout=5
    )
    assert proc.returncode in (0, 1), proc.stdout
    assert "internal:" not in proc.stdout
    report = _strict_json(proc.stdout)
    if proc.returncode == 1:
        assert report["found"] is False
        assert report["reason"] in ("budget", "range")
        assert report["points_scanned"] >= 1


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "kronecker_approx", broken)
    code = cli.main(["kronecker", "--generators", "1,sqrt2", "--target", "0,pi", "--eps", "0.1"])
    assert code == cli.EXIT_INTERNAL_ERROR == 3
    assert _strict_json(capsys.readouterr().out)["error"] == "internal: RuntimeError: boom"


def test_cli_fuzzed_inputs_never_crash(rng, tmp_path, capsys):
    garbage = [
        "",
        "((((",
        "chi(1",
        "1 + + 2",
        "hat(3,2,1)",
        "chi(2*bogus)",
        "1/0",
        "***",
        "i i",
        "chi(1)) + 2",
        "9" * 400,
        "chi(hat)",
        "--",
    ]
    # null bytes cannot cross the OS argv boundary; exercise them directly
    with pytest.raises(InputError):
        parse_expression("\x00\x01")
    for _ in range(18):
        n = int(rng.integers(1, 12))
        garbage.append("".join(rng.choice(list("chi()ha+-*/0123456789. tpqrs")) for _ in range(n)))
    # in process: the handlers and the report, one argv at a time
    for src in garbage:
        code = cli.main(["mean", src])
        assert code in (0, 2), src
        _strict_json(capsys.readouterr().out)  # report is always valid JSON
    # across the process boundary: one expression and one measure file
    proc = run_cli("mean", "((((")
    assert proc.returncode == 2
    _strict_json(proc.stdout)
    bad = tmp_path / "fuzz.json"
    bad.write_text(json.dumps({"r_part": {"breakpoints": "zap"}}))
    proc = run_cli("check-measure", str(bad), "--shifts", "1")
    assert proc.returncode == 2
    _strict_json(proc.stdout)


@pytest.mark.parametrize("glued", [False, True], ids=["bare", "glued"])
def test_cli_repeated_measure_coordinate_exit_2(tmp_path, capsys, glued):
    # +-1 get the moment 1/2, then appear again with 0: neither may win
    entries = [{"coords": [k], "re": "1" if k == 0 else "1/2", "im": "0"} for k in (-1, 0, 1)]
    entries += [{"coords": [k], "re": "0", "im": "0"} for k in (-1, 1)]
    measure = {
        "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
        "entries": entries,
    }
    if glued:
        measure = {"r_part": {"breakpoints": [], "values": [], "atoms": []}, "bohr_part": measure}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure))
    code = cli.main(["check-measure", str(path), "--shifts", "1"])
    assert code == 2
    assert "[-1] appear twice" in _strict_json(capsys.readouterr().out)["error"]


def test_cli_frequency_box_is_bounded():
    # (2*100000 + 1)**4 is about 1.6e21 frequencies: refused before any is
    # built, at the cost of a command that does nothing
    t0 = time.perf_counter()
    run_cli("mean", "1", timeout=20)
    baseline = time.perf_counter() - t0
    t0 = time.perf_counter()
    proc = run_cli(
        "verify-haar-uniqueness", "--generators", "1,sqrt2,sqrt3,pi",
        "--freqs", "-100000..100000", "--shifts", "1", timeout=20,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2, proc.stdout
    assert "limit of 1048576 frequencies" in _strict_json(proc.stdout)["error"]
    assert elapsed < baseline + 1.0
