"""Command-line interface: expression evaluation and batch verifiers.

Every command prints one strict JSON report to stdout (no NaN or
Infinity).  Exit codes: 0 when the requested computation or verification
succeeded, 1 when a verifier falsified its claim (the report carries a
witness) or a search missed, 2 for input errors, including non-finite
numeric flags, and 3 for internal errors.

Each handler imports the modules it runs, so a command loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import InputError
from .scalars import check_precision, coeff_to_json_pair

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _parse_module(text: str):
    from .frequencies import FrequencyModule
    from .parser import parse_generator_literal

    gens = [parse_generator_literal(part) for part in text.split(",") if part.strip()]
    if not gens:
        raise InputError("no generators given")
    return FrequencyModule(tuple(gens))


def _parse_shifts(text: str) -> tuple[list[str], list]:
    """The shift literals, stripped, and the shifts they parse to."""
    from .parser import parse_scalar_literal

    literals = [part.strip() for part in text.split(",") if part.strip()]
    if not literals:
        raise InputError("no shifts given")
    return literals, [parse_scalar_literal(lit) for lit in literals]


def _parse_freq_range(text: str, module):
    from .measures import box_support

    text = text.strip()
    if ".." not in text:
        raise InputError("frequency range must look like '-3..3'")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise InputError(f"bad frequency range {text!r}") from exc
    if lo != -hi or hi < 0:
        raise InputError("frequency range must be symmetric: '-k..k'")
    return box_support(module, hi)


def _check_numeric_flags(args) -> None:
    """Reject NaN and infinite float flags, a negative --tol and a
    non-positive --trials before any handler runs."""
    for name in ("T", "tol", "eps", "t_max"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise InputError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "tol", 0.0) < 0:
        raise InputError("--tol must be nonnegative")
    if getattr(args, "trials", 1) <= 0:
        raise InputError("--trials must be positive")


def _freq_list_json(freqs) -> list:
    return [list(f.coords) for f in freqs]


# ------------------------------------------------------------------
# command handlers: each returns (exit_code, report_dict)
# ------------------------------------------------------------------


def _cmd_mean(args) -> tuple[int, dict]:
    from .parser import lower_expression, parse_expression

    f = lower_expression(parse_expression(args.expr))
    value = f.ap.bohr_mean()
    report = {"value": coeff_to_json_pair(value)}
    if args.T is not None:
        if args.T <= 0:
            raise InputError("T must be positive")
        approx = f.ap.bohr_mean_numeric(args.T)
        report["numeric_value"] = [approx.real, approx.imag]
        report["error_bound"] = f.ap.mean_error_bound(args.T)
        report["T"] = args.T
    return EXIT_OK, report


def _cmd_inner(args) -> tuple[int, dict]:
    from .parser import build_module, collect_freq_literals, lower_expression, parse_expression

    ast_f = parse_expression(args.f)
    ast_g = parse_expression(args.g)
    # lower both onto one module covering the union of their frequencies
    module, _ = build_module(collect_freq_literals(ast_f) + collect_freq_literals(ast_g))
    f = lower_expression(ast_f, module=module)
    g = lower_expression(ast_g, module=module)
    value = f.ap.inner(g.ap)
    return EXIT_OK, {"value": coeff_to_json_pair(value)}


def _cmd_translate(args) -> tuple[int, dict]:
    from .jsonio import extended_to_json
    from .parser import lower_expression, parse_expression, parse_scalar_literal

    f = lower_expression(parse_expression(args.expr))
    t = parse_scalar_literal(args.t)
    return EXIT_OK, {"t": args.t, "result": extended_to_json(f.translate(t))}


def _cmd_verify_haar_uniqueness(args) -> tuple[int, dict]:
    from .measures import uniqueness_verdict

    module = _parse_module(args.generators)
    support = _parse_freq_range(args.freqs, module)
    literals, shifts = _parse_shifts(args.shifts)
    verdict = uniqueness_verdict(module, support, shifts, args.tol)
    # a witness is reported as the first literal that parsed to its value
    literal_of = {}
    for lit, t in zip(literals, shifts):
        literal_of.setdefault(t, lit)
    report = {
        "verdict": verdict.verdict,
        "surviving_frequencies": _freq_list_json(verdict.surviving),
        "witness_shifts": {
            str(list(f.coords)): literal_of[t] for f, t in verdict.killers.items()
        },
    }
    return (EXIT_OK if verdict.forced else EXIT_FALSIFIED), report


def _cmd_verify_extension(args) -> tuple[int, dict]:
    from .fleischhack import extension_battery

    module = _parse_module(args.generators)
    ok, worst, exact_zero = extension_battery(
        module, trials=args.trials, tol=args.tol, seed=args.seed
    )
    report = {
        "passed": ok,
        "trials": args.trials,
        "worst_residual": worst,
        "exact_zero_cases": exact_zero,
        "tol": args.tol,
    }
    return (EXIT_OK if ok else EXIT_FALSIFIED), report


def _cmd_check_measure(args) -> tuple[int, dict]:
    from .fleischhack import q_invariance_verdict
    from .jsonio import fsmeasure_from_json, matrix_to_json, qmeasure_from_json
    from .measures import uniqueness_verdict

    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise InputError("the measure file nests deeper than the JSON decoder's recursion limit") from None
        except ValueError as exc:  # malformed JSON, or an integer past CPython's digit limit
            raise InputError(str(exc)) from None
    _, shifts = _parse_shifts(args.shifts)
    if isinstance(data, dict) and "r_part" in data:
        mu = qmeasure_from_json(data)
        rep = q_invariance_verdict(mu, shifts, args.tol)
        basis, gram = max(mu.bohr_part.gram_blocks(), key=lambda bg: len(bg[0]))
        report = {
            "type": "glued-space measure",
            "verdict": rep.verdict,
            "r_mass": rep.r_mass,
            "r_witness": None
            if rep.r_witness is None
            else [float(rep.r_witness[0]), float(rep.r_witness[1])],
            "surviving_frequencies": _freq_list_json(rep.bohr_verdict.surviving),
            "bohr_invariant": rep.bohr_invariance.ok,
            "worst_moment_violation": rep.bohr_invariance.worst,
            "haar_distance": rep.haar_distance,
            "gram_identity_defect": rep.gram_identity_defect,
            "gram_basis": _freq_list_json(basis),
            "gram_matrix": matrix_to_json(gram),
        }
        return (EXIT_FALSIFIED if rep.verdict == "Violated" else EXIT_OK), report
    mu = fsmeasure_from_json(data)
    inv = mu.is_invariant(shifts, args.tol)
    verdict = uniqueness_verdict(mu.module, mu.support, shifts, args.tol)
    basis, gram = max(mu.gram_blocks(), key=lambda bg: len(bg[0]))
    report = {
        "type": "character-group measure",
        "invariant": inv.ok,
        "worst_violation": inv.worst,
        "worst_frequency": None if inv.worst_freq is None else list(inv.worst_freq.coords),
        "verdict": verdict.verdict,
        "surviving_frequencies": _freq_list_json(verdict.surviving),
        "gram_basis": _freq_list_json(basis),
        "gram_matrix": matrix_to_json(gram),
    }
    return (EXIT_OK if inv.ok else EXIT_FALSIFIED), report


def _cmd_kronecker(args) -> tuple[int, dict]:
    from .bohr import BohrPoint, kronecker_approx
    from .parser import parse_scalar_literal

    module = _parse_module(args.generators)
    angles = [parse_scalar_literal(part) for part in args.target.split(",") if part.strip()]
    psi = BohrPoint.from_angles(module, angles)
    result = kronecker_approx(psi, args.eps, args.t_max)
    if result.found:
        return EXIT_OK, {
            "found": True,
            "t": result.t,
            "gap": result.gap,
            "points_scanned": result.points_scanned,
        }
    return EXIT_FALSIFIED, {
        "found": False,
        "reason": result.reason,
        "best_gap": result.gap,
        "points_scanned": result.points_scanned,
    }


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bohrlab",
        description="Exact almost-periodic algebra and translation-invariance verifiers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="Bohr mean of an expression")
    p.add_argument("expr")
    p.add_argument("--T", type=float, default=None, help="also report the finite-window average")
    p.set_defaults(handler=_cmd_mean)

    p = sub.add_parser("inner", help="Bohr-mean inner product of two expressions")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_inner)

    p = sub.add_parser("translate", help="pull an expression back along a shift")
    p.add_argument("expr")
    p.add_argument("--t", required=True, help="shift amount, e.g. '1', '1/2*pi'")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser(
        "verify-haar-uniqueness",
        help="do the given shifts force the Haar moments on the support?",
    )
    p.add_argument("--generators", default="1")
    p.add_argument("--freqs", required=True, help="symmetric coordinate range '-3..3'")
    p.add_argument("--shifts", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_verify_haar_uniqueness)

    p = sub.add_parser(
        "verify-extension",
        help="randomized agreement battery for the extended action",
    )
    p.add_argument("--generators", default="1,sqrt2")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_extension)

    p = sub.add_parser("check-measure", help="invariance report for a measure file")
    p.add_argument("file")
    p.add_argument("--shifts", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_check_measure)

    p = sub.add_parser("kronecker", help="search a preimage of a target character")
    p.add_argument("--generators", required=True)
    p.add_argument("--target", required=True, help="angles, e.g. '0,pi'")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--t-max", type=float, default=1e6, dest="t_max")
    p.set_defaults(handler=_cmd_kronecker)

    return ap


_VALUE_FLAGS = (
    "--freqs",
    "--shifts",
    "--target",
    "--generators",
    "--t",
    "--T",
    "--eps",
    "--t-max",
)


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag' '-value' pairs so argparse does not read values that
    start with a dash (like '-3..3') as option names."""
    out: list[str] = []
    k = 0
    while k < len(argv):
        arg = argv[k]
        if (
            arg in _VALUE_FLAGS
            and k + 1 < len(argv)
            and argv[k + 1].startswith("-")
            and argv[k + 1] not in _VALUE_FLAGS
        ):
            out.append(f"{arg}={argv[k + 1]}")
            k += 2
        else:
            out.append(arg)
            k += 1
    return out


def _emit(report: dict, code: int) -> int:
    print(json.dumps(report, indent=2, allow_nan=False))
    return code


def main(argv=None) -> int:
    ap = build_arg_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_dash_values(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message to stderr
        if exc.code in (0, None):
            return EXIT_OK
        return _emit({"error": "invalid command-line arguments"}, EXIT_INPUT_ERROR)
    try:
        check_precision()  # a bad BOHR_PRECISION is an input error, not a crash
        _check_numeric_flags(args)
        code, report = args.handler(args)
        text = json.dumps(report, indent=2, allow_nan=False)
    except (InputError, OSError) as exc:
        return _emit({"error": str(exc)}, EXIT_INPUT_ERROR)
    except Exception as exc:  # fuzzed inputs must not crash the process
        return _emit({"error": f"internal: {type(exc).__name__}: {exc}"}, EXIT_INTERNAL_ERROR)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
