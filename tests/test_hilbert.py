import math
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    box_support,
    gram_matrix,
    l2_inner,
    translation_matrix,
    unitarity_check,
    unitarity_defect_matrix,
    uniqueness_verdict,
)
from util import random_exact_ap, random_psd_measure

M = FrequencyModule.integers()
F3 = box_support(M, 3)


def basis(*ks):
    return [M.frequency(k) for k in ks]


def test_haar_gram_is_identity():
    g = gram_matrix(FSMeasure.haar(M, F3), basis(0, 1, 2))
    assert np.array_equal(g.matrix, np.eye(3))


def test_point_mass_gram_is_all_ones():
    g = gram_matrix(FSMeasure.point_mass_identity(M, F3), basis(0, 1, 2))
    assert np.array_equal(g.matrix, np.ones((3, 3)))


def test_singleton_basis_gram():
    g = gram_matrix(FSMeasure.haar(M, F3), basis(5))
    assert np.array_equal(g.matrix, np.eye(1))


def test_missing_moment_reports_differences():
    mu = FSMeasure.haar(M, box_support(M, 1))
    with pytest.raises(InputError, match=r"\(3,\)"):
        gram_matrix(mu, basis(0, 3))


def test_missing_basis_differences_are_listed_in_order():
    mu = FSMeasure.haar(M, box_support(M, 1))
    for check in (lambda b: gram_matrix(mu, b), lambda b: unitarity_check(mu, b, 1)):
        with pytest.raises(InputError) as exc:
            check(basis(2, 0, 1))
        assert str(exc.value) == "measure is missing moments for differences: [(-2,), (2,)]"
    m2 = FrequencyModule.make(1, "sqrt2")
    mu = FSMeasure.haar(m2, box_support(m2, 1))
    with pytest.raises(InputError) as exc:
        gram_matrix(mu, [m2.frequency(0, 0), m2.frequency(1, 1), m2.frequency(-1, 0)])
    missing = "[(-2, -1), (2, 1)]"
    assert str(exc.value) == f"measure is missing moments for differences: {missing}"


def test_translation_matrix_identity_at_zero():
    assert np.array_equal(translation_matrix(0, basis(0, 1, 2)), np.eye(3))


def test_translation_matrix_pi():
    d = translation_matrix(PiTimes(Fraction(1)), basis(1))
    assert d[0, 0] == -1.0  # exact quarter-turn phase


def test_translation_matrix_is_unitary_group(rng):
    b = basis(-2, 0, 1, 3)
    for _ in range(10):
        s, t = (float(x) for x in rng.uniform(-6, 6, 2))
        ds, dt = translation_matrix(s, b), translation_matrix(t, b)
        assert np.max(np.abs(ds.conj().T @ ds - np.eye(4))) < 1e-14
        assert np.max(np.abs(ds @ dt - translation_matrix(s + t, b))) < 1e-12


def test_unitarity_haar_any_shift(rng):
    haar = FSMeasure.haar(M, F3)
    for t in (0.0, 1.0, float(rng.uniform(-9, 9)), PiTimes(Fraction(5, 3))):
        rep = unitarity_check(haar, basis(0, 1, 2), t)
        assert rep.ok and rep.defect == 0.0


def test_unitarity_point_mass_defect_value():
    pm = FSMeasure.point_mass_identity(M, F3)
    rep = unitarity_check(pm, basis(0, 1), 1)
    assert not rep.ok
    # oracle: max defect entry is |e^i - 1| = 2 sin(1/2)
    assert rep.defect == pytest.approx(2.0 * math.sin(0.5), abs=1e-14)


def test_unitarity_any_measure_at_zero_shift(rng):
    mu = random_psd_measure(M, F3, rng)
    assert unitarity_check(mu, basis(0, 1, 2), 0).ok


def test_unitarity_matches_invariance_with_equal_defects(rng):
    for _ in range(60):
        mu = random_psd_measure(M, F3, rng)
        ks = sorted(rng.choice(range(4), size=int(rng.integers(2, 4)), replace=False))
        b = [M.frequency(int(k) - 1) for k in ks]
        t = float(rng.uniform(-8, 8))
        rep_u = unitarity_check(mu, b, t, tol=1e-9)
        diffs = {a - c for a in b for c in b}
        sub = {f: mu.entries[f] for f in diffs}
        sub[M.zero()] = mu.entries[M.zero()]
        closure = {f for d in sub for f in (d, -d)}
        mu_diff = FSMeasure(M, {f: mu.entries[f] for f in closure})
        rep_i = mu_diff.is_invariant([t], tol=1e-9)
        assert rep_u.ok == rep_i.ok
        assert abs(rep_u.defect - rep_i.worst) <= 1e-12


def test_defect_matrix_magnitude_matches_scalar_defect(rng):
    mu = random_psd_measure(M, F3, rng)
    b = basis(0, 1, 2)
    t = 0.83
    rep = unitarity_check(mu, b, t)
    dm = unitarity_defect_matrix(mu, b, t)
    assert np.max(np.abs(dm)) == pytest.approx(rep.defect, abs=1e-12)


def test_forced_haar_plus_unitarity_gives_identity_gram(rng):
    assert uniqueness_verdict(M, F3, [1]).forced
    for _ in range(20):
        mu = random_psd_measure(M, F3, rng).project_to_invariant([1])
        assert unitarity_check(mu, basis(0, 1, 2), 1.0, tol=1e-10).ok
        g = gram_matrix(mu, basis(0, 1, 2))
        assert g.identity_defect() <= 1e-10


def test_l2_inner_haar_reduces_to_coefficient_formula(rng):
    haar = FSMeasure.haar(M, F3)
    f = random_exact_ap(M, rng, radius=1)
    g = random_exact_ap(M, rng, radius=1)
    assert complex(l2_inner(haar, f, g)) == complex(f.inner(g))


def test_l2_inner_of_character_with_itself_is_one(rng):
    from bohrlab import APFunction

    mu = random_psd_measure(M, F3, rng)
    f = APFunction.character(M, 1)
    assert abs(complex(l2_inner(mu, f, f)) - 1) < 1e-14


def test_l2_inner_point_mass_cross_term():
    from bohrlab import APFunction

    pm = FSMeasure.point_mass_identity(M, F3)
    f = APFunction.character(M, 1)
    g = APFunction.character(M, 2)
    assert complex(l2_inner(pm, f, g)) == 1


def test_l2_inner_positive_on_random_functions(rng):
    for _ in range(20):
        mu = random_psd_measure(M, F3, rng)
        f = random_exact_ap(M, rng, radius=1)
        val = complex(l2_inner(mu, f, f))
        assert abs(val.imag) < 1e-12
        assert val.real >= -1e-10


def test_strong_continuity_surrogate(rng):
    # ||(D_t - D_s) v||_2 is bounded by the sup-norm continuity modulus
    for _ in range(30):
        f = random_exact_ap(M, rng)
        b = list(f.coeffs.keys())
        v = np.array([complex(c) for c in f.coeffs.values()])
        s, t = (float(x) for x in rng.uniform(-7, 7, 2))
        dt, ds = translation_matrix(t, b), translation_matrix(s, b)
        lhs = float(np.linalg.norm((dt - ds) @ v))
        assert lhs <= f.continuity_modulus(t, s) + 1e-12
