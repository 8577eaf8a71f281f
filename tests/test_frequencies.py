import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from bohrlab import FrequencyModule, Generator, InputError
from bohrlab.frequencies import RELATION_BOUND, RELATION_TOL, turn_of
from bohrlab.scalars import SQUAREFREE_LIMIT, PiTimes, symbol_kind
from util import brute_relation, chord_of, in_two_pi_z


def test_coordinatewise_addition():
    m = FrequencyModule.make(1, "sqrt2")
    a = m.frequency(1, 0)
    b = m.frequency(0, 2)
    assert (a + b).coords == (1, 2)


def test_inverse_pair_sums_to_zero():
    m = FrequencyModule.integers()
    a = m.frequency(3)
    assert (a + (-a)).is_zero()


def test_value_is_additive_over_irrational_generators():
    m = FrequencyModule.make(1, "sqrt2")
    f = m.frequency(1, 1)
    # oracle: 50-digit evaluation of 1 + sqrt(2)
    expected = float(mp.mpf(1) + mp.sqrt(2))
    assert abs(f.value - expected) < 1e-12
    assert abs(f.value - (m.frequency(1, 0).value + m.frequency(0, 1).value)) < 1e-12


def test_zero_vector_value():
    m = FrequencyModule.make(1, "sqrt2")
    assert m.zero().value == 0.0


def test_pi_generator_value():
    m = FrequencyModule.make("pi")
    # oracle: 2*pi from the multiprecision constant
    assert abs(m.frequency(2).value - float(2 * mp.pi)) < 1e-12


def test_dependent_rational_generators_rejected():
    with pytest.raises(InputError, match="dependent"):
        FrequencyModule.make(1, Fraction(1, 2))


def test_dependent_pi_multiples_rejected():
    with pytest.raises(InputError, match="dependent"):
        FrequencyModule.make("pi", ("pi", Fraction(1, 3)))


def test_zero_generator_rejected():
    with pytest.raises(InputError):
        FrequencyModule.make(0)


def test_rational_canonicalization_gcd():
    m = FrequencyModule.from_rationals([1, Fraction(1, 2)])
    assert m.dim == 1
    assert m.generators[0].symbolic.terms["1"] == Fraction(1, 2)
    m2 = FrequencyModule.from_rationals([Fraction(1, 2), Fraction(1, 3)])
    assert m2.generators[0].symbolic.terms["1"] == Fraction(1, 6)


def test_module_mismatch_is_input_error():
    a = FrequencyModule.integers().frequency(1)
    b = FrequencyModule.make(2).frequency(1)
    with pytest.raises(InputError):
        a + b


def test_group_laws_on_random_triples(rng):
    m = FrequencyModule.make(1, "sqrt2", "sqrt3")
    for _ in range(50):
        a = m.frequency(*rng.integers(-9, 10, 3))
        b = m.frequency(*rng.integers(-9, 10, 3))
        c = m.frequency(*rng.integers(-9, 10, 3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + m.zero() == a
        assert (a + (-a)).is_zero()


def test_value_homomorphism_on_random_pairs(rng):
    m = FrequencyModule.make(1, "sqrt2")
    for _ in range(50):
        a = m.frequency(*rng.integers(-9, 10, 2))
        b = m.frequency(*rng.integers(-9, 10, 2))
        lhs = (a + b).value
        rhs = a.value + b.value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_turn_exact_for_pi_shift():
    m = FrequencyModule.integers()
    f = m.frequency(1)
    assert turn_of(f, PiTimes(Fraction(1))) == Fraction(1, 2)
    assert turn_of(f, PiTimes(Fraction(1, 2))) == Fraction(1, 4)
    assert turn_of(m.frequency(4), PiTimes(Fraction(1, 2))) == Fraction(0)


def test_in_two_pi_z_exact_decisions():
    m = FrequencyModule.integers()
    f = m.frequency(3)
    assert in_two_pi_z(f, PiTimes(Fraction(2)))  # 3 * 2pi
    assert not in_two_pi_z(f, PiTimes(Fraction(1)))  # 3pi
    assert not in_two_pi_z(f, 1)  # 3 is not a multiple of 2pi: exact
    assert in_two_pi_z(m.zero(), 1)


def test_in_two_pi_z_sqrt_generator():
    m = FrequencyModule.make("sqrt2")
    f = m.frequency(5)
    assert not in_two_pi_z(f, 1)
    assert not in_two_pi_z(f, PiTimes(Fraction(2, 5)))  # 2pi*sqrt2: opaque, numeric
    assert in_two_pi_z(m.zero(), PiTimes(Fraction(2)))


def test_chord_exact_zero_on_periodic_shift():
    m = FrequencyModule.integers()
    assert chord_of(m.frequency(7), PiTimes(Fraction(2))) == 0.0
    # oracle: |e^{i*pi} - 1| = 2
    assert chord_of(m.frequency(1), PiTimes(Fraction(1))) == pytest.approx(2.0, abs=1e-15)


def test_generator_symbol_decimal_consistency():
    with pytest.raises(InputError, match="does not match"):
        Generator("pi", "2.71828", Fraction(1))


def test_generator_decimal_tolerance_is_relative_above_one():
    # named() writes dps significant digits, so the error grows with the value
    big = Generator.named("sqrt10000000019")
    assert FrequencyModule((Generator.rational(1), big)).dim == 2
    value = mp.sqrt(10000000019)
    for rel in (mp.mpf(10) ** -30, mp.mpf(10) ** -12):
        wrong = mp.nstr(value * (1 + rel), mp.mp.dps)
        with pytest.raises(InputError, match="does not match"):
            Generator("sqrt10000000019", wrong, Fraction(1))
    assert symbol_kind("sqrt10000000019") == "algebraic"


def test_square_roots_above_the_squarefree_limit_are_opaque():
    assert symbol_kind(f"sqrt{SQUAREFREE_LIMIT + 39}") == "opaque"
    assert symbol_kind("sqrt1000000000000000000000007") == "opaque"
    assert symbol_kind("sqrt200560490130") == "algebraic"  # the primes up to 31
    assert symbol_kind("sqrt12") == "opaque"  # 2**2 * 3


def test_relation_scan_finds_small_relations():
    # 7*(3/7) - 3*1 = 0
    with pytest.raises(InputError, match="dependent"):
        FrequencyModule.make(1, Fraction(3, 7))


def test_big_module_budget_guard():
    with pytest.raises(InputError, match="budget"):
        FrequencyModule.make(*[("pi", Fraction(1, k)) for k in range(1, 8)])


def test_five_generator_module_builds_in_under_a_second():
    start = time.perf_counter()
    FrequencyModule.make(1, "sqrt2", "sqrt3", "pi", "e")
    assert time.perf_counter() - start < 1.0


def _float_generator(x: float) -> Generator:
    return Generator(None, repr(float(x)), 1)


def _oracle_message(gens) -> str | None:
    """The refusal the full scan gives: its first hit over its gcd."""
    rel = brute_relation(np.array([g.value for g in gens]), RELATION_BOUND, RELATION_TOL)
    if not rel.any():
        return None
    rel = rel // math.gcd(*rel.tolist())
    combo = " + ".join(f"{int(c)}*g{k+1}" for k, c in enumerate(rel) if c != 0)
    return f"generators are rationally dependent: {combo} = 0 within {RELATION_TOL}"


def _refusal(gens) -> str | None:
    try:
        FrequencyModule.make(*gens)
    except InputError as exc:
        return str(exc)
    return None


def _random_relation_sets(rng, n=300):
    """Random d=1..3 float sets; every other one (d >= 2) with a planted
    relation whose coefficients lie within the bound."""
    sets = []
    while len(sets) < n:
        planted = len(sets) % 2 == 1
        d = int(rng.integers(2 if planted else 1, 4))
        v = rng.uniform(0.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
        if planted:
            c = rng.integers(-RELATION_BOUND, RELATION_BOUND + 1, d)
            k = int(rng.integers(d))
            if c[k] == 0 or np.count_nonzero(c) < 2:
                continue
            v[k] = -(c @ v - c[k] * v[k]) / c[k]
            if abs(v[k]) < 1e-3:
                continue
        sets.append([_float_generator(x) for x in v])
    return sets


def test_relation_check_refuses_exactly_what_the_full_scan_refuses(rng):
    sets = _random_relation_sets(rng)
    refused = 0
    for gens in sets:
        expected = _oracle_message(gens)
        assert _refusal(gens) == expected, [g.value for g in gens]
        refused += expected is not None
    assert refused >= len(sets) // 2


def _large_relation_sets(rng, n=120):
    """Random d=1..3 sets of magnitude 1e6..1e10, where one float64 step
    of a coefficient sum can exceed the tolerance: integers with one
    planted exact relation between two entries (every other set, d >= 2),
    random integers and random floats."""
    sets = []
    while len(sets) < n:
        d = int(rng.integers(1, 4))
        kind = len(sets) % 4
        if kind % 2 == 1 and d >= 2:
            base = int(rng.integers(10**6, 10**9))
            v = [base * int(m) for m in rng.integers(1, RELATION_BOUND + 1, 2)]
            v += [int(x) for x in rng.integers(10**6, 10**10, d - 2)]
        elif kind == 0:
            v = [int(x) for x in rng.integers(10**6, 10**10, d)]
        else:
            v = list(rng.uniform(1e6, 1e10, d))
        signs = rng.choice([-1, 1], d)
        sets.append([_float_generator(float(s * x)) for s, x in zip(signs, v)])
    return sets


def test_relation_check_matches_the_full_scan_at_large_magnitudes(rng):
    sets = _large_relation_sets(rng)
    refused = 0
    for gens in sets:
        expected = _oracle_message(gens)
        assert _refusal(gens) == expected, [g.value for g in gens]
        refused += expected is not None
    assert refused >= len(sets) // 5


ADVERSARIAL_SETS = {
    "coefficient_at_bound": [1, Fraction(20, 19)],
    "coefficient_past_bound": [1, Fraction(21, 19)],
    "near_relation": [Generator.rational(1), Generator(None, "1.0000000001", 1)],
    "second_half_only": ["sqrt2", 1, Fraction(1, 2)],
    "first_half_only": [1, Fraction(1, 2), "sqrt2", "sqrt3"],
    "opaque_pair": ["e", ("e", Fraction(2, 3))],
    "opaque_in_second_half": ["sqrt2", "e", ("e", Fraction(-5, 7))],
    "opaque_independent": [1, "e", ("pi", Fraction(1, 2))],
    "d4_independent": [1, "sqrt2", "sqrt3", "pi"],
    # float64 steps near the sums exceed the tolerance from 2^24 on
    "large_dependent_pair": [10**7, 3 * 10**7],
    "huge_dependent_pair": [10**8, 2 * 10**8],
    "large_independent_pair": [10**7, ("sqrt2", 10**7)],
    "one_step_past_2_23": [2**23, _float_generator(2**23 + 2**-29)],
    "huge_dependent_d3": [10**9, 3 * 10**9, "sqrt2"],
}
ACCEPTED_SETS = (
    "coefficient_past_bound",
    "opaque_independent",
    "d4_independent",
    "large_independent_pair",
    "one_step_past_2_23",
)


def _generators(specs) -> list[Generator]:
    out = []
    for s in specs:
        if isinstance(s, Generator):
            out.append(s)
        elif isinstance(s, str):
            out.append(Generator.named(s))
        elif isinstance(s, tuple):
            out.append(Generator.named(*s))
        else:
            out.append(Generator.rational(s))
    return out


@pytest.mark.parametrize("name", list(ADVERSARIAL_SETS))
def test_relation_check_matches_the_full_scan_on_adversarial_sets(name):
    gens = _generators(ADVERSARIAL_SETS[name])
    expected = _oracle_message(gens)
    assert (expected is None) == (name in ACCEPTED_SETS)
    assert _refusal(gens) == expected


def test_relation_message_is_the_primitive_relation():
    assert _refusal(_generators([1, Fraction(1, 2)])) == (
        "generators are rationally dependent: 1*g1 + -2*g2 = 0 within 1e-09"
    )


def test_module_hash_agrees_with_equality():
    from bohrlab.jsonio import module_from_json, module_to_json

    a = FrequencyModule.make(1, "sqrt2")
    b = FrequencyModule.make(1, "sqrt2")
    c = module_from_json(module_to_json(a))
    for other in (b, c):
        assert other is not a
        assert other == a and hash(other) == hash(a)
        assert other.frequency(2, -1) == a.frequency(2, -1)
        assert hash(other.frequency(2, -1)) == hash(a.frequency(2, -1))
    assert {a.frequency(1, 1): 1}[c.frequency(1, 1)] == 1


def test_module_pickled_in_another_process_hashes_like_a_fresh_one():
    import os
    import pickle
    import subprocess
    import sys

    code = (
        "import pickle, sys; from bohrlab import FrequencyModule; "
        "sys.stdout.buffer.write(pickle.dumps(FrequencyModule.make(1, 'sqrt2')))"
    )
    fresh = FrequencyModule.make(1, "sqrt2")
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert out.returncode == 0, out.stderr.decode()
        loaded = pickle.loads(out.stdout)
        assert loaded == fresh and hash(loaded) == hash(fresh)


def test_precision_env_override():
    import os
    import subprocess
    import sys

    # Inherit the parent's environment so the child finds bohrlab the same
    # way (PYTHONPATH or an install); only the precision is overridden.
    out = subprocess.run(
        [sys.executable, "-c", "import mpmath, bohrlab; print(mpmath.mp.dps)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, BOHR_PRECISION="30"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "30"
