import ast
import importlib
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
    Generator,
    InputError,
    PiTimes,
    box_support,
    cli,
    extension_battery,
    lower_expression,
    parse_expression,
    parse_scalar_literal,
    uniqueness_verdict,
)
import bohrlab
from bohrlab import bohr, measures
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
        return type(a) is type(b) and (a.terms, float(a)) == (b.terms, float(b))
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
    haar = {
        "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
        "entries": [
            {"coords": [-1], "re": "0", "im": "0"},
            {"coords": [0], "re": "1", "im": "0"},
            {"coords": [1], "re": "0", "im": "0"},
        ],
    }
    hat = {"breakpoints": ["0", "1/2", "1"], "values": ["0", "1", "0"], "atoms": []}
    # one atom far below any tolerance still makes the line part violated
    atom = {"breakpoints": [], "values": [], "atoms": [["0", "1/10000000000000"]]}
    for r_part in (hat, atom):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"r_part": r_part, "bohr_part": haar}))
        proc = run_cli("check-measure", str(path), "--shifts", "1")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "Violated"
        assert report["r_witness"] == [-1.0, 0.0]


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
    # shifts whose float is 0 or out of range still force the standard measure
    glued = os.path.join(os.path.dirname(__file__), "golden", "glued.json")
    for shift in ("0." + "0" * 400 + "1*sqrt2", "1" + "0" * 400 + "*sqrt2"):
        proc = run_cli("check-measure", glued, "--shifts", shift)
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout)["verdict"] == "ForcedStandard"


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


def test_cli_exact_measure_file_gets_the_exact_psd_check(tmp_path, capsys, monkeypatch):
    exact_psd, calls = measures._exact_psd, []
    monkeypatch.setattr(measures, "_exact_psd", lambda m: calls.append(len(m)) or exact_psd(m))

    def check(moments):
        entries = [{"coords": [k], "re": re, "im": im} for k, (re, im) in moments.items()]
        measure = {
            "module": {"generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]},
            "entries": entries,
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(measure))
        code = cli.main(["check-measure", str(path), "--shifts", "2*pi"])
        return code, _strict_json(capsys.readouterr().out)

    # |mu_hat(1)| > mu_hat(0): the Gram block's smallest eigenvalue is -1e-11,
    # inside PSD_TOL, and the exact check refuses it
    over = "100000000001/100000000000"
    code, report = check({-1: (over, "0"), 0: ("1", "0"), 1: (over, "0")})
    assert code == 2 and "not positive definite" in report["error"]
    # a Dirac point at a quarter turn: rank-one blocks, certified exactly
    quarter = {0: ("1", "0"), 1: ("0", "1"), -1: ("0", "-1"), 2: ("-1", "0"), -2: ("-1", "0")}
    calls.clear()
    assert check(quarter)[0] == 0 and calls
    # Haar blocks are the identity: the eigenvalue filter decides them
    calls.clear()
    assert check({k: ("1" if k == 0 else "0", "0") for k in range(-3, 4)})[0] == 0
    assert calls == []


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
    [("10", "at least 15"), ("fifty", "must be an integer"), ("4301", "MAX_LITERAL_DIGITS")],
    ids=["below_15", "not_an_integer", "above_max_literal_digits"],
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

    monkeypatch.setattr(bohr, "kronecker_approx", broken)  # the handler imports it when it runs
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


# ------------------------------------------------------------------
# what a command loads, and inputs refused before any work
# ------------------------------------------------------------------

_LOADED = (
    "import runpy, sys\n"
    "sys.argv[0] = 'bohrlab'\n"
    "try:\n"
    "    runpy.run_module('bohrlab', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
    "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["mean", "chi(1)"], ("mpmath", "bohrlab.measures", "bohrlab.bohr", "bohrlab.hilbert")),
        (
            ["kronecker", "--generators", "1,sqrt2", "--target", "0,pi", "--eps", "0.1"],
            ("mpmath", "bohrlab.measures", "bohrlab.hilbert"),
        ),
        (
            ["translate", "chi(1)", "--t", "1"],
            ("bohrlab.measures", "bohrlab.fleischhack", "bohrlab.bohr", "bohrlab.hilbert"),
        ),
    ],
    ids=["mean", "kronecker", "translate"],
)
def test_cli_command_loads_only_what_it_runs(argv, absent):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "bohrlab.cli" in loaded and not loaded & set(absent)
    assert "error" not in _strict_json(proc.stdout)


def test_package_import_loads_no_module_until_a_name_is_read():
    code = (
        "import sys, bohrlab\n"
        "before = sorted(m for m in sys.modules if m.startswith('bohrlab') or m == 'mpmath')\n"
        "from bohrlab import FrequencyModule, cli\n"
        "print(before, 'bohrlab.frequencies' in sys.modules, 'FrequencyModule' in dir(bohrlab))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['bohrlab']", "True", "True"]


def test_benchmark_imports_and_package_exports_resolve():
    # the benchmark imports these names; a deleted export must fail here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    imported = []
    for name in ("workloads.py", "run.py"):
        with open(os.path.join(root, "perfbench", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported += [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("bohrlab", "bohrlab.jsonio")
            for alias in node.names
        ]
    assert ("bohrlab.jsonio", "qmeasure_from_json") in imported
    for module, name in imported:  # resolved as ``from module import name`` does
        getattr(importlib.__import__(module, fromlist=[name]), name)
    for name in bohrlab.__all__:
        getattr(bohrlab, name)


def _main_in_time(argv, capsys):
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    return code, _strict_json(capsys.readouterr().out), elapsed


def test_cli_deep_parentheses_are_an_input_error(capsys):
    from bohrlab.parser import MAX_NESTING

    code, report, elapsed = _main_in_time(["mean", "(" * 3000 + "chi(1)" + ")" * 3000], capsys)
    assert code == 2 and "MAX_NESTING" in report["error"] and elapsed < 0.5
    deepest = "(" * MAX_NESTING + "chi(1)" + ")" * MAX_NESTING
    assert cli.main(["mean", deepest]) == 0
    assert parse_expression(deepest) == parse_expression("chi(1)")
    capsys.readouterr()
    with pytest.raises(InputError, match="MAX_NESTING"):
        parse_expression("(" + deepest + ")")


def test_cli_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, report, elapsed = _main_in_time(["check-measure", str(path), "--shifts", "1"], capsys)
    assert code == 2 and "recursion limit" in report["error"] and elapsed < 0.5


def test_cli_trials_are_capped(capsys):
    from bohrlab.fleischhack import MAX_TRIALS

    code, report, elapsed = _main_in_time(["verify-extension", "--trials", "100000000"], capsys)
    assert code == 2 and "MAX_TRIALS" in report["error"] and elapsed < 0.5
    assert cli.main(["verify-extension", "--trials", "1"]) == 0
    with pytest.raises(InputError, match="MAX_TRIALS"):
        extension_battery(FrequencyModule.make(1), trials=MAX_TRIALS + 1)


def test_decimal_literals_are_capped_on_the_text():
    from bohrlab.scalars import MAX_LITERAL_DIGITS, parse_rational

    for text in ("1e1000000", "1e10000000", "-1E+4301", "1" * (MAX_LITERAL_DIGITS + 1), "0.5e99999999999999999999"):
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="MAX_LITERAL_DIGITS"):
            parse_rational(text)
        assert time.perf_counter() - t0 < 0.5
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)
    with pytest.raises(InputError, match="MAX_LITERAL_DIGITS"):
        Generator("c", "1e10000000", Fraction(1))


_BIG = "1e10000000"


@pytest.mark.parametrize("field", ["re", "im", "breakpoint", "atom_position", "atom_mass", "decimal"])
def test_cli_json_decimal_fields_are_capped(field, tmp_path, capsys):
    module = {"generators": [{"symbol": None, "decimal": _BIG if field == "decimal" else "1", "rational_scale": [1, 1]}]}
    entries = [{"coords": [k], "re": "1" if k == 0 else "0", "im": "0"} for k in range(-1, 2)]
    entries[0][field if field in ("re", "im") else "re"] = _BIG if field in ("re", "im") else "0"
    r_part = {"breakpoints": [], "values": [], "atoms": []}
    if field == "breakpoint":
        r_part.update(breakpoints=["0", _BIG, "2e10000000"], values=["0", "1", "0"])
    elif field.startswith("atom"):
        r_part["atoms"] = [[_BIG, "1/2"] if field == "atom_position" else ["0", _BIG]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"r_part": r_part, "bohr_part": {"module": module, "entries": entries}}))
    code, report, elapsed = _main_in_time(["check-measure", str(path), "--shifts", "1"], capsys)
    assert code == 2 and "MAX_LITERAL_DIGITS" in report["error"] and elapsed < 0.5


def test_cli_long_literal_is_out_of_range_not_malformed(capsys):
    code, report, _ = _main_in_time(["translate", "chi(1)", "--t", "1" + "0" * 5000], capsys)
    assert code == 2
    assert "out of range" in report["error"] and "malformed" not in report["error"]


def test_equal_symbolic_shifts_share_one_turn_table():
    from bohrlab.frequencies import turn_table

    m = FrequencyModule.make(1, "sqrt2")
    a, b = parse_scalar_literal("sqrt2"), parse_scalar_literal("1*sqrt2")
    assert a == b and hash(a) == hash(b) and a is not b
    assert turn_table(m, a) is turn_table(m, b)
    assert a != parse_scalar_literal("2*sqrt2") and a != SymbolicReal.rational(1)
    assert SymbolicReal({"sqrt3": 1, "1": 0}) == SymbolicReal.of_symbol("sqrt3", Fraction(1))
    with pytest.raises(AttributeError):
        a.terms = {}
