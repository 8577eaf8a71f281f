"""The per-shift turn table against the per-frequency SymbolicReal oracle
of tests/util.py, on random supports over modules with rational, pi,
square-root and opaque generators, under every shift kind."""

from fractions import Fraction

import mpmath as mp
import pytest

from bohrlab import (
    FSMeasure,
    FrequencyModule,
    Generator,
    PiTimes,
    SymbolicReal,
    unitarity_check,
    uniqueness_verdict,
)
from bohrlab.frequencies import chord_of, in_two_pi_z, phase_of, turn_of, turn_table
from bohrlab.measures import check_symmetric_support
from bohrlab.scalars import EC_ONE, EC_ZERO
from util import (
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
    return SymbolicReal.of_symbol(tag, Fraction(q), mp.sqrt(int(tag[4:])) if tag.startswith("sqrt") else +getattr(mp, tag))


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
        SymbolicReal({"1": Fraction(1), "sqrt2": Fraction(1)}, 1 + mp.sqrt(2)),
        SymbolicReal({"1": Fraction(3, 4)}, mp.mpf(3) / 4),
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


def _check_rows(module, support, t):
    table = turn_table(module, t)
    rows = [f.coords for f in support]
    for tol in TOLS:
        assert table.in_two_pi_z(rows, tol).tolist() == [reference_in_two_pi_z(f, t, tol) for f in support]
    assert table.exact(rows).tolist() == [reference_exact(reference_product(f, t)) for f in support]
    assert _typed(table.turns(rows)) == _typed([reference_turn(f, t) for f in support])
    folded = [reference_turn(f, t, folded=True) for f in support]
    assert _typed(table.turns(rows, folded=True)) == _typed(folded)
    assert table.chords(rows).tolist() == [reference_chord(f, t) for f in support]
    assert _typed(table.phases(rows)) == _typed([reference_phase(f, t) for f in support])


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
