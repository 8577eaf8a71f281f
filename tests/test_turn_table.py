"""The per-shift turn table against the per-frequency SymbolicReal oracle
of tests/util.py, on random supports over modules with rational, pi,
square-root and opaque generators, under every shift kind."""

import math
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bohrlab import (
    APFunction,
    FSMeasure,
    FrequencyModule,
    Generator,
    InputError,
    PiTimes,
    SymbolicReal,
    iota,
    unitarity_check,
    uniqueness_verdict,
)
from bohrlab import frequencies
from bohrlab.fleischhack import (
    C0Function,
    ExtendedFunction,
    QMeasure,
    RealPoint,
    RPart,
    extension_agreement_check,
    q_invariance_verdict,
)
from bohrlab.frequencies import turn_of, turn_table
from bohrlab.measures import box_support, check_symmetric_support
from bohrlab.scalars import EC_ONE, EC_ZERO, PRECISION, working_precision
from util import (
    chord_of,
    in_two_pi_z,
    mp_value,
    phase_of,
    pushforward,
    random_psd_measure,
    reference_exact,
    reference_chord,
    reference_in_two_pi_z,
    reference_phase,
    reference_product,
    reference_turn,
)

TOLS = (1e-12, 1e-30)
BIG = 2**62 - 1


@pytest.fixture(scope="module")
def modules():
    return [
        FrequencyModule.make(1),
        FrequencyModule.make("pi"),
        FrequencyModule.make("e"),
        FrequencyModule.make(1, "sqrt2"),
        FrequencyModule.make("pi", "e"),
        # one symbol in two generators: 23*g2 - g1 = 0 is beyond the relation scan
        FrequencyModule.make("sqrt2", ("sqrt2", Fraction(1, 23))),
        FrequencyModule.make(1, "sqrt2", "sqrt3"),
        FrequencyModule.make("pi", "e", "sqrt5"),
        FrequencyModule.make(1, "sqrt2", "sqrt3", "pi"),
        FrequencyModule.make(Fraction(1, 3), "sqrt2", "e", "sqrt7"),
    ]


def _symbolic(tag, q=1):
    return SymbolicReal.of_symbol(tag, Fraction(q))


def _plain_shifts(rng):
    return [
        3,
        -2,
        Fraction(5, 7),
        Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13))),
        0.731,
        float(rng.uniform(-4, 4)),
        PiTimes(Fraction(1, 3)),
        PiTimes(Fraction(2)),
        PiTimes(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))),
    ]


def _symbolic_shifts():
    return [
        _symbolic("sqrt2"),
        _symbolic("sqrt3", Fraction(2, 3)),
        _symbolic("pi", Fraction(1, 2)),
        _symbolic("e"),
        SymbolicReal({"1": Fraction(1), "sqrt2": Fraction(1)}),
        SymbolicReal({"1": Fraction(3, 4)}),
    ]


def _random_support(module, rng, radius=3, draws=8):
    coords = {tuple(int(c) for c in rng.integers(-radius, radius + 1, module.dim)) for _ in range(draws)}
    freqs = {module.zero()}
    for c in coords:
        f = module.frequency(*c)
        freqs |= {f, -f}
    return check_symmetric_support(freqs)


def _big_support(module):
    d = module.dim
    rows = [(BIG,) + (0,) * (d - 1), (BIG - 7,) + (3,) * (d - 1), (1 - BIG,) * d, (2**61,) + (-BIG,) * (d - 1)]
    freqs = {module.zero()}
    for c in rows:
        f = module.frequency(*c)
        freqs |= {f, -f}
    return check_symmetric_support(freqs)


def _typed(values):
    return [(type(v), v) for v in values]


def _readings(table, rows):
    return {
        **{tol: table.in_two_pi_z(rows, tol).tolist() for tol in TOLS},
        "exact": table.exact(rows).tolist(),
        "turns": _typed(table.turns(rows)),
        "chords": table.chords(rows).tolist(),
        "phases": _typed(table.phases(rows)),
    }


def _reference_readings(support, t):
    return {
        **{tol: [reference_in_two_pi_z(f, t, tol) for f in support] for tol in TOLS},
        "exact": [reference_exact(reference_product(f, t)) for f in support],
        "turns": _typed([reference_turn(f, t) for f in support]),
        "chords": [reference_chord(f, t) for f in support],
        "phases": _typed([reference_phase(f, t) for f in support]),
    }


def _check_rows(module, support, t, oracle_bits=0):
    """The table's readings of the support's own rows (kept in the table's
    view) and of a fresh list of them against the oracle, which runs with
    ``oracle_bits`` more bits of precision than the table."""
    table = turn_table(module, t)
    kept, fresh = _readings(table, support.rows), _readings(table, list(support.rows))
    with mp.workprec(mp.mp.prec + oracle_bits):
        expected = _reference_readings(support, t)
    assert kept == expected
    assert fresh == expected


def _reference_verdict(support, shifts, tol):
    killers, surviving = {}, []
    for f in support:
        if f.is_zero():
            continue
        killer = next((t for t in shifts if not reference_in_two_pi_z(f, t, tol)), None)
        if killer is None:
            surviving.append(f)
        else:
            killers[f] = killer
    return killers, surviving


def _reference_worst(mu, shifts):
    worst, worst_f, worst_t = 0.0, None, None
    for t in shifts:
        for f in mu.support:
            if not f.is_zero():
                v = abs(mu.entries[f]) * reference_chord(f, t)
                if v > worst:
                    worst, worst_f, worst_t = v, f, t
    return worst, worst_f, worst_t


def test_table_matches_the_oracle_on_plain_shifts(modules, rng):
    for module in modules:
        for _ in range(3):
            support = _random_support(module, rng)
            shifts = _plain_shifts(rng)
            for t in shifts:
                _check_rows(module, support, t)
            for tol in TOLS:
                verdict = uniqueness_verdict(module, support, shifts, tol)
                killers, surviving = _reference_verdict(support, shifts, tol)
                assert verdict.killers == killers
                assert list(verdict.surviving) == surviving
            mu = random_psd_measure(module, support, rng)
            rep = mu.is_invariant(shifts)
            assert (rep.worst, rep.worst_freq, rep.worst_shift) == _reference_worst(mu, shifts)
            proj = mu.project_to_invariant(shifts[-3:])
            for f in support:
                killed = any(not reference_in_two_pi_z(f, t) for t in shifts[-3:])
                expected = EC_ONE if f.is_zero() else EC_ZERO if killed else mu.entries[f]
                assert proj.entries[f] == expected


def test_table_matches_the_oracle_near_the_coordinate_limit(modules, rng):
    for module in modules:
        support = _big_support(module)
        shifts = _plain_shifts(rng)
        for t in shifts:
            _check_rows(module, support, t)
        killers, surviving = _reference_verdict(support, shifts, 1e-12)
        verdict = uniqueness_verdict(module, support, shifts)
        assert (verdict.killers, list(verdict.surviving)) == (killers, surviving)
        # the clique index looks differences up as Python integers, so its
        # PSD check runs at these coordinates too
        haar = FSMeasure.haar(module, support)
        assert haar.psd_defect() == 1.0
        rep = haar.is_invariant(shifts)
        assert (rep.worst, rep.worst_freq, rep.worst_shift) == _reference_worst(haar, shifts)


def test_unitarity_worst_pair_matches_the_oracle(modules, rng):
    for module in modules[:7]:
        for _ in range(3):
            coords = {tuple(int(c) for c in rng.integers(-2, 3, module.dim)) for _ in range(4)}
            basis = sorted((module.frequency(*c) for c in coords), key=lambda f: f.coords)
            support = check_symmetric_support({a - b for a in basis for b in basis})
            mu = random_psd_measure(module, support, rng)
            for t in _plain_shifts(rng):
                worst, pair = 0.0, None
                for a in basis:
                    for b in basis:
                        v = abs(mu.entries[a - b]) * reference_chord(a - b, t)
                        if v > worst:
                            worst, pair = v, (a, b)
                rep = unitarity_check(mu, basis, t)
                assert (rep.defect, rep.worst_pair) == (worst, pair)


def test_numeric_decision_keeps_full_precision_at_tiny_tolerance():
    # x = 2*pi + 1e-20 is opaque, so 3x is decided numerically: it is in
    # 2*pi*Z at tol 1e-12 but not at tol 1e-30
    decimal = mp.nstr(2 * mp.pi + mp.mpf("1e-20"), 50)
    module = FrequencyModule((Generator("x", decimal, Fraction(1)),))
    f = module.frequency(3)
    assert not turn_table(module, 1).exact([f.coords])[0]
    assert in_two_pi_z(f, 1, 1e-12) and reference_in_two_pi_z(f, 1, 1e-12)
    assert not in_two_pi_z(f, 1, 1e-30) and not reference_in_two_pi_z(f, 1, 1e-30)
    assert 0.0 < chord_of(f, 1) == reference_chord(f, 1) < 1e-18


def test_symbolic_shifts_never_change_an_exact_decision(modules, rng):
    upgraded = 0
    for module in modules:
        support = _random_support(module, rng)
        rows = [f.coords for f in support]
        for t in _symbolic_shifts():
            table = turn_table(module, t)
            exact = table.exact(rows).tolist()
            turns = table.turns(rows)
            for tol in TOLS:
                decided = table.in_two_pi_z(rows, tol).tolist()
                for f, e, d, u in zip(support, exact, decided, turns):
                    if reference_exact(reference_product(f, t)):
                        assert e and d == reference_in_two_pi_z(f, t, tol)
                        if isinstance(reference_turn(f, t), Fraction):
                            assert u == reference_turn(f, t)
                    elif tol == TOLS[0]:
                        upgraded += e
                        assert d == reference_in_two_pi_z(f, t, tol)
    assert upgraded > 0


def test_symbolic_product_is_summed_per_generator():
    # (1 + sqrt2)*sqrt2 = 2 + sqrt2: opaque for the oracle, exact here
    module = FrequencyModule.make(1, "sqrt2")
    f = module.frequency(1, 1)
    t = _symbolic("sqrt2")
    assert not reference_exact(reference_product(f, t))
    assert turn_table(module, t).exact([f.coords])[0]
    assert not in_two_pi_z(f, t) and not reference_in_two_pi_z(f, t)
    assert chord_of(f, t) == pytest.approx(reference_chord(f, t), abs=1e-15)
    # a symbol shared by two generators cancels exactly, as in the oracle
    shared = FrequencyModule.make("sqrt2", ("sqrt2", Fraction(1, 23)))
    zero = shared.frequency(-1, 23)
    for s in (_symbolic("sqrt3"), _symbolic("e")):
        assert reference_exact(reference_product(zero, s))
        assert turn_table(shared, s).exact([zero.coords])[0]
        assert in_two_pi_z(zero, s, 1e-30) and turn_of(zero, s) == Fraction(0)
    # sqrt2*sqrt2 = 2 for both
    g = module.frequency(0, 1)
    assert reference_exact(reference_product(g, t))
    assert turn_of(g, t) == reference_turn(g, t)
    assert phase_of(g, t) == reference_phase(g, t)


@pytest.mark.parametrize("tag", ["x", "(sqrt2)*pi", "?(e)x(sqrt2)", "sqrt1"])
def test_a_shift_term_without_a_known_value_is_an_input_error(tag):
    module = FrequencyModule.make(1, "sqrt2")
    t = SymbolicReal({"sqrt2": Fraction(1), tag: Fraction(2, 3)})
    with pytest.raises(InputError, match=re.escape(repr(tag))):
        turn_table(module, t)


# ------------------------------------------------------------------
# the integer turn path, shared by every shift kind
# ------------------------------------------------------------------

EXTREME_SHIFTS = (
    5e-324,  # 2**-1074, the least subnormal
    -0.0,
    1e308,
    -(2.0**-1022),
    -1.7976931348623157e308,
    Fraction(3**126 + 1, 5**86 + 2),  # 200-bit numerator and denominator
    Fraction(-(2**199 + 7), 3**126),
    PiTimes(Fraction(10**40 + 1, 3)),
    PiTimes(Fraction(-(2**200 + 1), 7)),
)


def _extreme_support(module):
    d = module.dim
    rows = [
        (2**62,) + (0,) * (d - 1),
        (-(2**62),) + (1,) * (d - 1),
        (2**100,) + (-3,) * (d - 1),
        (1,) * (d - 1) + (-(2**100),),
        (5,) * d,
    ]
    freqs = {module.zero()}
    for c in rows:
        f = module.frequency(*c)
        freqs |= {f, -f}
    return check_symmetric_support(freqs)


def _within(got, expected, eps):
    """Readings equal, except that float turns (mod 1), chords and float
    phases may differ by ``eps``."""
    for key, values in got.items():
        for a, b in zip(values, expected[key]):
            if isinstance(key, float) or key == "exact":
                assert a == b
            elif key == "chords":
                assert abs(a - b) <= eps
            elif a[0] is not b[0]:
                raise AssertionError(f"{key}: {a!r} against {b!r}")
            elif a[0] is float:
                assert min(abs(a[1] - b[1]), 1 - abs(a[1] - b[1])) <= eps
            elif a[0] is complex:
                assert abs(a[1] - b[1]) <= eps
            else:
                assert a == b


def test_extreme_plain_shifts_match_the_oracle(modules):
    # |lambda*t| reaches 2**1127 here, so the oracle runs with 1,500 more
    # bits.  The table keeps the working precision as a fixed-point turn:
    # within sum|c_k| + 1 < 2**102 units of 2**-bits, bits = 233, of the
    # oracle's, so a tiny turn such as 5e-324 * 2**100 reads as 0.
    for module in modules:
        support = _extreme_support(module)
        for t in EXTREME_SHIFTS:
            table = turn_table(module, t)
            got = _readings(table, support.rows)
            with mp.workprec(mp.mp.prec + 1500):
                expected = _reference_readings(support, t)
            _within(got, expected, 2.0**-130)
            assert _readings(table, list(support.rows)) == got


def test_a_precision_switch_rebuilds_the_turn_constants(modules, rng):
    shifts = _plain_shifts(rng) + [1e300, Fraction(3**126 + 1, 5**86 + 2)]
    for module in (modules[3], modules[7], modules[9]):
        support = _random_support(module, rng)
        for dps in (None, 80, 30, None):
            dps = dps or PRECISION.dps
            with working_precision(dps), mp.workdps(dps):  # the library's, then the oracle's
                for t in shifts:
                    _check_rows(module, support, t, oracle_bits=1200)


def _near_two_pi():
    decimal = mp.nstr(2 * mp.pi + mp.mpf("1e-20"), 50)
    return FrequencyModule((Generator("x", decimal, Fraction(1)), Generator.rational(1)))


def test_two_tolerances_on_one_table_and_support():
    module = _near_two_pi()
    support = box_support(module, 3)
    table = turn_table(module, 1)
    for tol in (1e-12, 1e-30, 1e-12, 0.0, 1e-30):
        assert table.in_two_pi_z(support.rows, tol).tolist() == [reference_in_two_pi_z(f, 1, tol) for f in support]
    # x*1 is within 1e-12 of 2*pi but not within 1e-30
    f = module.frequency(1, 0)
    assert in_two_pi_z(f, 1, 1e-12) and not in_two_pi_z(f, 1, 1e-30)


def test_alternating_supports_on_one_table(modules, rng):
    for module in modules:
        supports = [_random_support(module, rng), _big_support(module), _random_support(module, rng, radius=1)]
        for t in (Fraction(5, 7), 0.731, PiTimes(Fraction(1, 3)), _symbolic("e")):
            table = turn_table(module, t)
            expected = [_reference_readings(s, t) for s in supports]
            for k in (0, 1, 0, 2, 1, 1, 2, 0):
                assert turn_table(module, t) is table
                assert _readings(table, supports[k].rows) == expected[k]


def test_results_cannot_be_mutated_into_a_later_result():
    module = FrequencyModule.make(1, "sqrt2", "e")
    support = box_support(module, 1)
    table = turn_table(module, PiTimes(Fraction(1, 2)))
    rows = support.rows
    before = _readings(table, rows)
    table.in_two_pi_z(rows)[:] = True
    table.exact(rows)[:] = False
    table.turns(rows).clear()
    table.phases(rows).clear()
    chords = table.chords(rows)
    with pytest.raises(ValueError):
        chords[0] = 1.0
    chords.copy()[:] = 1.0
    assert _readings(table, rows) == before


def test_every_shift_kind_runs_no_mpmath_after_warm_up(rng, monkeypatch):
    module = FrequencyModule.make(1, "sqrt2", "e")
    support = box_support(module, 2)
    mu = random_psd_measure(module, support, rng)
    basis = [module.zero(), module.frequency(1, 0, 0), module.frequency(0, 1, 1)]
    for t in (0.5, PiTimes(Fraction(1, 4)), _symbolic("sqrt2"), _symbolic("sqrt3"), _symbolic("e")):
        turn_table(module, t)  # the module's turn constants per tag at this precision

    def no_fixed_point(*args):
        raise AssertionError("_fixed_point ran")

    def no_constant(*args):
        raise AssertionError("a symbol constant was computed")

    assert not hasattr(frequencies, "mp")  # mpmath is not a runtime dependency
    monkeypatch.setattr(frequencies, "_fixed_point", no_fixed_point)
    monkeypatch.setattr(frequencies, "symbol_fixed", no_constant)
    for _ in range(40):
        q, r = (Fraction(int(rng.integers(-50, 51)) or 1, int(rng.integers(1, 50))) for _ in range(2))
        symbolic = [
            _symbolic("sqrt2", q),
            _symbolic("e", r),
            SymbolicReal({"sqrt3": q, "e": r}),
        ]
        shifts = [
            *symbolic,  # first, so that the verdict reads them before its early exit
            float(rng.uniform(-3, 3)),
            Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 50))),
            PiTimes(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))),
        ]
        uniqueness_verdict(module, support, shifts)
        mu.project_to_invariant(shifts).is_invariant(shifts)
        for t in (shifts[3], *symbolic):
            unitarity_check(mu, basis, t)
        for t in (shifts[5], *symbolic):
            pushforward(mu, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_shifts_are_input_errors(bad, rng):
    module = FrequencyModule.make(1, "sqrt2")
    support = box_support(module, 1)
    mu = random_psd_measure(module, support, rng)
    basis = [module.zero(), module.frequency(1, 0)]
    f = module.frequency(1, 1)
    ap = APFunction(module, {f: 1})
    calls = [
        lambda: turn_table(module, bad),
        lambda: turn_of(f, bad),
        lambda: phase_of(f, bad),
        lambda: chord_of(f, bad),
        lambda: in_two_pi_z(f, bad),
        lambda: iota(module, bad),
        lambda: mu.is_invariant([bad]),
        lambda: mu.project_to_invariant([bad]),
        lambda: uniqueness_verdict(module, support, [bad]),
        lambda: uniqueness_verdict(module, support, [1, bad]),  # 1 kills every moment
        lambda: unitarity_check(mu, basis, bad),
        lambda: ap.translate(bad),
        lambda: ap.continuity_modulus(bad, 1),
        lambda: ap.continuity_modulus(0.5, bad),
    ]
    for call in calls:
        with pytest.raises(InputError, match="the shift must be finite, got"):
            call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_bad_tolerances_are_input_errors(tol, rng):
    module = FrequencyModule.make(1, "sqrt2", "e")
    support = box_support(module, 1)
    mu = random_psd_measure(module, support, rng)
    basis = [module.zero(), module.frequency(1, 0, 0)]
    t = PiTimes(Fraction(1, 2))
    r_part = RPart(C0Function([0, 1, 2], [0, 1, 0]))
    calls = [
        lambda: q_invariance_verdict(QMeasure(r_part, FSMeasure.haar(module, support)), [1], tol),
        lambda: extension_agreement_check(1, RealPoint(0), ExtendedFunction(r_part.density, APFunction.zero(module)), tol),
        lambda: turn_table(module, t).in_two_pi_z(support.rows, tol),
        lambda: in_two_pi_z(module.frequency(0, 0, 1), t, tol),
        lambda: uniqueness_verdict(module, support, [t], tol),
        lambda: uniqueness_verdict(module, support, [], tol),
        lambda: mu.project_to_invariant([t], tol),
        lambda: mu.is_invariant([t], tol),
        lambda: unitarity_check(mu, basis, t, tol),
    ]
    for call in calls:
        with pytest.raises(InputError, match="tolerance must be"):
            call()


def test_zero_tolerance_is_accepted():
    module = FrequencyModule.make(1, "sqrt2", "e")
    support = box_support(module, 1)
    for tol in (0.0, -0.0, 0):
        verdict = uniqueness_verdict(module, support, [PiTimes(Fraction(1, 2))], tol)
        assert verdict.killers == _reference_verdict(support, [PiTimes(Fraction(1, 2))], tol)[0]


# ------------------------------------------------------------------
# property test: random modules, shifts of every kind and rows
# ------------------------------------------------------------------

SYMBOLS = ("1", "pi", "sqrt2", "sqrt3", "sqrt5", "e")
SHIFT_SYMBOLS = SYMBOLS + ("sqrt999999999989",)  # a large symbol tests the constants' precision margin
_small = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)
_large = st.builds(
    lambda sign, n, m: Fraction(sign * n, m),
    st.sampled_from((-1, 1)),
    st.integers(2**100, 2**140),
    st.integers(1, 2**40),
)
_coefficients = st.one_of(_small, _large)
_coords = st.one_of(st.integers(-2, 2), st.integers(-(10**6), 10**6))


@st.composite
def _modules(draw):
    tags = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4, unique=True))
    specs = [q if tag == "1" else (tag, q) for tag, q in zip(tags, (draw(_small) for _ in tags))]
    try:
        return FrequencyModule.make(*specs)
    except InputError:  # a near-relation among the scaled generators
        assume(False)


_shifts = st.one_of(
    st.integers(-(2**140), 2**140),
    _coefficients,
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(PiTimes, _coefficients),
    st.builds(_symbolic, st.sampled_from(SHIFT_SYMBOLS), _coefficients),
    st.builds(
        lambda tags, q, r: _symbolic(tags[0], q) + _symbolic(tags[1], r),
        st.lists(st.sampled_from(SHIFT_SYMBOLS), min_size=2, max_size=2, unique=True),
        _coefficients,
        _coefficients,
    ),
)


def _check_turn_bound(module, t):
    """Each per-generator fixed-point turn lies within J*1.0001 units of
    2**-bits of the turn of g_k*t, J the number of t's terms, computed in
    mpmath with twice the table's bits plus t's size."""
    table = turn_table(module, t)
    one = 1 << table.bits
    size = max(math.frexp(float(t))[1], 0)
    terms = len(t.terms) if isinstance(t, SymbolicReal) else 1
    with mp.workprec(2 * table.bits + size + 64):
        value = mp_value(t)
        for g, turn in zip(module.generators, table._turns.tolist()):
            ref = mp.ldexp(mp_value(g) * value / (2 * mp.pi), table.bits)
            gap = (turn - ref) % one
            assert min(gap, one - gap) <= terms * 1.0001
    return table


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    _modules(),
    _shifts,
    st.lists(st.lists(_coords, min_size=4, max_size=4), min_size=1, max_size=6),
    st.sampled_from((30, 80)),
)
@example(FrequencyModule.make(1, "sqrt2"), _symbolic("sqrt2", Fraction(2**100 + 1, 3)), [[0, 1, 0, 0], [3, -2, 0, 0]], 30)
def test_turn_table_properties(module, t, coords, dps):
    rows = [tuple(c[: module.dim]) for c in coords]
    table = _check_turn_bound(module, t)
    exact, turns = table.exact(rows).tolist(), table.turns(rows)
    decided = {tol: table.in_two_pi_z(rows, tol).tolist() for tol in TOLS}
    for i, row in enumerate(rows):
        f = module.frequency(*row)
        if reference_exact(reference_product(f, t)):
            assert exact[i]
            for tol in TOLS:
                assert decided[tol][i] == reference_in_two_pi_z(f, t, tol)
            expected = reference_turn(f, t)
            if isinstance(expected, Fraction):
                assert turns[i] == expected
    # another precision: the constants are rebuilt for its bits
    with working_precision(dps), mp.workdps(dps):
        assert _check_turn_bound(module, t).bits != table.bits
