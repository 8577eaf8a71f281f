"""The precision model and the integer constants: ``scalars.symbol_fixed``
against mpmath within its stated bounds, ``Generator.named`` decimals
against ``mpmath.nstr``, and a precision switch that reaches every turn
constant.  mpmath is the test oracle only; the library does not import it."""

from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import FrequencyModule, Generator, PiTimes
from bohrlab.frequencies import TURN_GUARD_BITS, turn_table
from bohrlab.scalars import MAX_LITERAL_DIGITS, PRECISION, dps_to_bits, symbol_fixed, working_precision
from util import symbol_value

_DIGITS = st.integers(15, 400)
_TAGS = st.one_of(
    st.sampled_from(["1", "pi", "e", "sqrt2", "sqrt4", "sqrt99980001"]),
    st.integers(2, 10**40).map(lambda n: f"sqrt{n}"),
)


def test_bits_follow_the_oracle_rule():
    assert dps_to_bits(50) == 169
    for dps in range(1, MAX_LITERAL_DIGITS + 1):
        assert dps_to_bits(dps) == mp.libmp.dps_to_prec(dps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 10**40), _DIGITS)
def test_square_root_constants_are_floors(n, dps):
    bits = dps_to_bits(dps)
    with mp.workprec(2 * bits + 200):
        ref = mp.ldexp(mp.sqrt(n), bits)
        assert 0 <= ref - symbol_fixed(f"sqrt{n}", bits) < 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["pi", "e"]), _DIGITS)
def test_pi_and_e_constants_are_within_one_unit(tag, dps):
    bits = dps_to_bits(dps)
    with mp.workprec(bits + 64):
        assert abs(mp.ldexp(symbol_value(tag), bits) - symbol_fixed(tag, bits)) < 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_TAGS, st.sampled_from((15, 30, 50, 80)))
def test_named_decimals_are_the_oracle_strings(tag, dps):
    with working_precision(dps), mp.workdps(dps):
        assert Generator.named(tag).decimal == mp.nstr(symbol_value(tag), dps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.fractions(max_denominator=10**6).filter(bool))
def test_floats_are_correctly_rounded(q):
    with mp.workprec(400):
        assert PiTimes(q).value == float(mp.pi * q.numerator / q.denominator)
        assert Generator.named("e", q).value == float(mp.e * q.numerator / q.denominator)
        assert FrequencyModule.make(1, "sqrt2").frequency(3, -2).value == float(3 - 2 * mp.sqrt(2))


def test_a_switch_to_80_digits_reaches_every_turn_constant():
    module = FrequencyModule.make(1, "sqrt2")  # built, and its constants read, at 50 digits
    turn_table(module, Fraction(1))
    with working_precision(80):
        table = turn_table(module, Fraction(1))
        assert table.bits == dps_to_bits(80) + TURN_GUARD_BITS
        one = 1 << table.bits
        with mp.workdps(160):
            ref = mp.ldexp(mp.sqrt(2) / (2 * mp.pi), table.bits) % one
        gap = abs(int(table._turns[1]) - ref)
        assert min(gap, one - gap) <= 1.0001  # TurnTable's bound for a one-term shift
    assert turn_table(module, Fraction(1)).bits == PRECISION.bits + TURN_GUARD_BITS == 233
