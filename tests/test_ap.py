import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import APFunction, ExactComplex, FrequencyModule, InputError, PiTimes
from util import quad_mean, random_exact_ap

M = FrequencyModule.integers()


def chi(k):
    return APFunction.character(M, k)


def test_characters_multiply_by_adding_frequencies():
    assert chi(1) * chi(2) == chi(3)


def test_star_of_character_flips_frequency():
    assert chi(5).star() == chi(-5)


def test_square_of_cosine_pair_expands_exactly(rng):
    f = chi(1) + chi(-1)
    sq = f * f
    # hand expansion: chi_2 + 2*chi_0 + chi_{-2}
    assert sq.coeff(M.frequency(2)) == ExactComplex(Fraction(1))
    assert sq.coeff(M.frequency(0)) == ExactComplex(Fraction(2))
    assert sq.coeff(M.frequency(-2)) == ExactComplex(Fraction(1))
    for t in rng.uniform(-10, 10, 100):
        assert abs(sq.eval(t) - f.eval(t) ** 2) < 1e-10


def test_eval_character_at_zero():
    assert chi(17).eval(0) == 1


def test_eval_cosine_identity():
    f = (chi(1) + chi(-1)) / 2
    assert abs(f.eval(math.pi / 3) - 0.5) < 1e-12


def test_eval_constant():
    f = APFunction.constant(M, ExactComplex(Fraction(7, 3)))
    for t in (0.0, 1.7, -22.5):
        assert abs(f.eval(t) - 7 / 3) < 1e-14


def test_module_mismatch_rejected():
    other = FrequencyModule.make(2)
    with pytest.raises(InputError):
        chi(1) + APFunction.character(other, 1)
    with pytest.raises(InputError):
        chi(1).inner(APFunction.character(other, 1))


def test_bohr_mean_of_constant():
    assert complex(APFunction.constant(M, 1).bohr_mean()) == 1


def test_bohr_mean_of_character_vanishes():
    assert complex(chi(1).bohr_mean()) == 0


def test_bohr_mean_is_linear_over_mixed_module():
    m = FrequencyModule.make(1, "sqrt2")
    f = APFunction.constant(m, 3) + APFunction.character(m, 0, 1) * 2
    assert complex(f.bohr_mean()) == 3


def test_numeric_mean_of_constant_is_exact():
    f = APFunction.constant(M, 1)
    for T in (1.0, 10.0, 12345.6):
        assert f.bohr_mean_numeric(T) == 1 + 0j


def test_numeric_mean_of_character_is_small():
    val = chi(1).bohr_mean_numeric(100.0)
    assert abs(val) <= 1.0 / 100.0


def test_numeric_mean_error_decays_like_one_over_T():
    f = chi(1) + chi(2)
    # envelope regression: bucket maxima of |numeric - exact| over a log sweep
    Ts = np.logspace(1, 4, 60)
    errs = np.array([abs(f.bohr_mean_numeric(T)) for T in Ts])
    buckets = errs.reshape(6, 10).max(axis=1)
    mids = Ts.reshape(6, 10)[:, 5]
    slope = np.polyfit(np.log(mids), np.log(buckets), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_numeric_mean_error_bound_random(rng):
    for _ in range(25):
        f = random_exact_ap(M, rng)
        exact = complex(f.bohr_mean())
        for T in (10.0, 100.0, 1000.0):
            err = abs(f.bohr_mean_numeric(T) - exact)
            assert err <= f.mean_error_bound(T) + 1e-12


def test_inner_orthonormal_characters():
    one = ExactComplex(Fraction(1))
    assert chi(2).inner(chi(2)) == one
    assert complex(chi(1).inner(chi(3))) == 0


def test_inner_coefficient_formula():
    f = chi(1) * 2 + chi(2) * ExactComplex(Fraction(0), Fraction(1))
    val = f.inner(chi(2))
    assert val == ExactComplex(Fraction(0), Fraction(1))


def test_inner_matches_quadrature_oracle(rng):
    for _ in range(3):
        f = random_exact_ap(M, rng, max_terms=3)
        g = random_exact_ap(M, rng, max_terms=3)
        h = f * g.star()
        T = 4000.0
        approx = quad_mean(h, T)
        bound = h.mean_error_bound(T) + 1e-6  # quadrature discretization slack
        assert abs(approx - complex(f.inner(g))) <= bound


def test_inner_hermitian_and_positive(rng):
    for _ in range(25):
        f = random_exact_ap(M, rng)
        g = random_exact_ap(M, rng)
        assert complex(f.inner(g)) == complex(g.inner(f)).conjugate()
        ff = f.inner(f)
        assert isinstance(ff, ExactComplex)
        assert ff.im == 0
        # <f, f> = sum |c|^2 exactly
        total = sum(c.re**2 + c.im**2 for c in f.coeffs.values())
        assert ff.re == total


def test_translate_identity_at_zero():
    f = chi(1) + chi(4) * 3
    assert f.translate(0) == f


def test_translate_character_phase():
    t = PiTimes(Fraction(1, 2))
    g = chi(1).translate(t)
    assert g.coeff(M.frequency(1)) == ExactComplex(Fraction(0), Fraction(1))


def test_translate_by_pi_flips_odd_frequencies():
    f = chi(1) + chi(2)
    g = f.translate(PiTimes(Fraction(1)))
    assert g.coeff(M.frequency(1)) == ExactComplex(Fraction(-1))
    assert g.coeff(M.frequency(2)) == ExactComplex(Fraction(1))


def test_translate_matches_pointwise_shift(rng):
    f = random_exact_ap(M, rng)
    for t in rng.uniform(-5, 5, 10):
        g = f.translate(float(t))
        for x in rng.uniform(-5, 5, 10):
            assert abs(g.eval(x) - f.eval(x + t)) < 1e-10


def test_translate_one_parameter_group_law(rng):
    for _ in range(20):
        f = random_exact_ap(M, rng)
        s, t = rng.uniform(-8, 8, 2)
        lhs = f.translate(float(s)).translate(float(t))
        rhs = f.translate(float(s) + float(t))
        for x in rng.uniform(-5, 5, 5):
            assert abs(lhs.eval(x) - rhs.eval(x)) < 1e-10


def test_continuity_modulus_examples():
    assert chi(1).continuity_modulus(0.7, 0.7) == 0.0
    # oracle: |1 - e^{i*pi}| = 2
    val = chi(1).continuity_modulus(PiTimes(Fraction(0)), PiTimes(Fraction(1)))
    assert val == pytest.approx(2.0, abs=1e-15)


def test_continuity_modulus_lipschitz_decay(rng):
    f = random_exact_ap(M, rng)
    lip = sum(abs(c) * abs(fr.value) for fr, c in f.terms())
    t = 0.25  # dyadic, so t + delta is exact for dyadic deltas
    for k in range(1, 27):
        delta = 2.0 ** (-k)
        assert f.continuity_modulus(t, t + delta) <= lip * delta * (1 + 1e-9)


@st.composite
def exact_ap(draw):
    n = draw(st.integers(1, 4))
    coeffs = {}
    for _ in range(n):
        k = draw(st.integers(-4, 4))
        re = Fraction(draw(st.integers(-6, 6)), 4)
        im = Fraction(draw(st.integers(-6, 6)), 4)
        coeffs[M.frequency(k)] = ExactComplex(re, im)
    return APFunction(M, coeffs)


@settings(max_examples=40, deadline=None)
@given(exact_ap(), exact_ap(), exact_ap())
def test_star_algebra_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert (f * g).star() == f.star() * g.star()
    assert f.star().star() == f
    assert (f + g).star() == f.star() + g.star()


@settings(max_examples=30, deadline=None)
@given(exact_ap(), exact_ap())
def test_products_evaluate_pointwise(f, g):
    for t in (0.0, 0.37, -2.5):
        assert abs((f * g).eval(t) - f.eval(t) * g.eval(t)) < 1e-10
