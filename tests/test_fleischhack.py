import math
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    CompactComplement,
    ExactComplex,
    ExtendedFunction,
    FSMeasure,
    FrequencyModule,
    FunctionPreimage,
    InputError,
    OpenReal,
    PiTimes,
    QMeasure,
    RPart,
    RealPoint,
    box_support,
    extension_agreement_check,
    extension_battery,
    iota,
    q_invariance_verdict,
    r_part_invariance_verdict,
    theta_tilde,
    topology_membership,
    xi_eval,
)
from util import random_exact_ap, random_hat, random_point, random_rpart

M = FrequencyModule.integers()
M2 = FrequencyModule.make(1, "sqrt2")


def ext(c0, ap):
    return ExtendedFunction(c0, ap)


def pure_c0(c0, module=M):
    return ExtendedFunction(c0, APFunction.zero(module))


# ------------------------------------------------------------------
# C0 model
# ------------------------------------------------------------------


def test_c0_requires_zero_endpoints():
    with pytest.raises(InputError, match="zero first and last"):
        C0Function((0, 1), (1, 1))


def test_c0_requires_increasing_breakpoints():
    with pytest.raises(InputError, match="increasing"):
        C0Function((0, 0, 1), (0, 1, 0))


def test_c0_hat_evaluation():
    h = C0Function.hat(-1, 0, 1)
    assert h.eval_exact(Fraction(0)) == ExactComplex(Fraction(1))
    assert h.eval_exact(Fraction(1, 2)) == ExactComplex(Fraction(1, 2))
    assert h.eval_exact(Fraction(5)) == ExactComplex(Fraction(0))
    assert h.eval_exact(Fraction(-17, 10)) == ExactComplex(Fraction(0))


def test_c0_translation_is_exact_closure():
    h = C0Function.hat(0, 1, 2, Fraction(3, 2))
    g = h.translate(Fraction(5, 4))
    assert g.breakpoints == (Fraction(-5, 4), Fraction(-1, 4), Fraction(3, 4))
    for x in (Fraction(0), Fraction(1, 3), Fraction(-1)):
        assert g.eval_exact(x) == h.eval_exact(x + Fraction(5, 4))


def test_c0_sum_is_piecewise_linear_on_union_grid():
    a = C0Function.hat(0, 1, 2)
    b = C0Function.hat(1, 2, 3)
    s = a + b
    assert s.eval_exact(Fraction(1)) == ExactComplex(Fraction(1))
    assert s.eval_exact(Fraction(3, 2)) == ExactComplex(Fraction(1))
    assert s.eval_exact(Fraction(2)) == ExactComplex(Fraction(1))


def test_c0_trims_flat_zero_tails():
    f = C0Function((0, 1, 2, 3, 4), (0, 0, 1, 0, 0))
    assert f.breakpoints == (Fraction(1), Fraction(2), Fraction(3))


def test_c0_sup_norm_and_slope():
    h = C0Function.hat(0, 1, 3, 2)
    assert h.sup_norm() == 2.0
    assert h.max_slope() == 2.0  # left flank rises 2 over width 1


def test_c0_pullback_lipschitz_bound(rng):
    for _ in range(20):
        f = random_hat(rng)
        L = f.max_slope()
        t = float(rng.uniform(-3, 3))
        s = t + float(rng.uniform(-0.5, 0.5))
        ft, fs = f.translate(t), f.translate(s)
        diff = ft + fs.scaled(-1)
        assert diff.sup_norm() <= L * abs(t - s) + 1e-12


# ------------------------------------------------------------------
# evaluation and the extended action
# ------------------------------------------------------------------


def test_xi_eval_hat_peak():
    f = pure_c0(C0Function.hat(-1, 0, 1))
    assert xi_eval(RealPoint(0), f) == ExactComplex(Fraction(1))


def test_xi_eval_torus_point_kills_c0(rng):
    for _ in range(10):
        f = pure_c0(random_hat(rng))
        psi = random_point(M, rng)
        assert complex(xi_eval(psi, f)) == 0


def test_xi_eval_real_point_sees_both_parts():
    f = ext(C0Function.hat(-1, 0, 1), APFunction.character(M, 1))
    x = 0.25
    expected = 0.75 + np.exp(1j * x)
    assert abs(complex(xi_eval(RealPoint(x), f)) - expected) < 1e-14


def test_theta_tilde_real_branch():
    assert theta_tilde(1, RealPoint(2.5)) == RealPoint(3.5)


def test_theta_tilde_identity_both_branches(rng):
    p = RealPoint(Fraction(7, 3))
    assert theta_tilde(0, p) == p
    psi = random_point(M2, rng)
    assert theta_tilde(0, psi).distance(psi) == 0.0


def test_theta_tilde_on_identity_gives_iota():
    t = PiTimes(Fraction(1, 3))
    moved = theta_tilde(t, BohrPoint.identity(M))
    assert moved == iota(M, t)


def test_theta_tilde_group_law(rng):
    for _ in range(20):
        s, t = (float(x) for x in rng.uniform(-6, 6, 2))
        p = RealPoint(Fraction(float(rng.uniform(-5, 5))))
        lhs = theta_tilde(s, theta_tilde(t, p))
        rhs = theta_tilde(Fraction(s) + Fraction(t), p)
        assert lhs == rhs  # exact on the real branch
        psi = random_point(M2, rng)
        lhs2 = theta_tilde(s, theta_tilde(t, psi))
        rhs2 = theta_tilde(s + t, psi)
        assert lhs2.distance(rhs2) < 1e-12


def test_theta_tilde_preserves_branch(rng):
    assert isinstance(theta_tilde(1.3, RealPoint(0)), RealPoint)
    assert isinstance(theta_tilde(1.3, random_point(M, rng)), BohrPoint)


def test_agreement_residual_zero_at_zero_shift(rng):
    f = ext(random_hat(rng), random_exact_ap(M, rng))
    assert extension_agreement_check(0, RealPoint(1.5), f).residual == 0.0


def test_agreement_pure_c0_real_point_is_exact(rng):
    for _ in range(50):
        f = pure_c0(random_hat(rng))
        t = float(rng.uniform(-10, 10))
        p = RealPoint(Fraction(float(rng.uniform(-5, 5))))
        rep = extension_agreement_check(t, p, f)
        assert rep.residual == 0.0


def test_agreement_torus_point_character_chain(rng):
    # both routes give e^{i lambda t} psi(lambda) on the torus branch
    psi = random_point(M, rng)
    lam = M.frequency(2)
    f = ext(C0Function.hat(0, 1, 2), APFunction.character(M, 2))
    t = 0.77
    lhs = complex(xi_eval(theta_tilde(t, psi), f))
    rhs = np.exp(1j * lam.value * t) * complex(psi.char_value(lam))
    assert abs(lhs - rhs) < 1e-12
    rep = extension_agreement_check(t, psi, f)
    assert rep.ok


def test_agreement_random_battery(rng):
    ok, worst, exact_zero = extension_battery(M2, trials=300, tol=1e-10, seed=7)
    assert ok
    assert worst <= 1e-10
    assert exact_zero > 0


# ------------------------------------------------------------------
# topology basis sets
# ------------------------------------------------------------------


def test_open_real_membership():
    b = OpenReal(((Fraction(1), Fraction(3)),))
    assert topology_membership(RealPoint(2), b)
    assert not topology_membership(RealPoint(1), b)  # open interval
    assert not topology_membership(BohrPoint.identity(M), b)


def test_compact_complement_membership(rng):
    b = CompactComplement(((Fraction(-5), Fraction(5)),))
    assert topology_membership(random_point(M, rng), b)
    assert not topology_membership(RealPoint(0), b)
    assert not topology_membership(RealPoint(5), b)  # closed K
    assert topology_membership(RealPoint(6), b)


def test_function_preimage_membership():
    f = ExtendedFunction(C0Function.zero(), APFunction.character(M, 1))
    disk = (ExactComplex(Fraction(1)), Fraction(1, 10))
    b = FunctionPreimage(f, (disk,))
    # oracle: |e^{0.05 i} - 1| = 2 sin(0.025) = 0.04999...< 0.1
    assert 2.0 * math.sin(0.025) < 0.1
    assert topology_membership(RealPoint(0.05), b)
    assert not topology_membership(RealPoint(3.0), b)
    # the identity character lands exactly on the center
    assert topology_membership(BohrPoint.identity(M), b)


def test_function_preimage_exact_distance():
    f = ExtendedFunction(C0Function.zero(), APFunction.character(M, 1))
    # value at the half-turn point is exactly -1: distance to center 1 is 2
    psi = BohrPoint(M, (Fraction(1, 2),))
    b_in = FunctionPreimage(f, ((ExactComplex(Fraction(-1)), Fraction(1, 100)),))
    b_out = FunctionPreimage(f, ((ExactComplex(Fraction(1)), Fraction(2)),))
    assert topology_membership(psi, b_in)
    assert not topology_membership(psi, b_out)  # exact: 2 < 2 fails


# ------------------------------------------------------------------
# measures and the line-part elimination
# ------------------------------------------------------------------


def test_zero_r_part_is_invariant():
    rep = r_part_invariance_verdict(RPart.zero(), 1.0)
    assert rep.invariant
    assert rep.max_diff == 0.0


def test_unit_mass_hat_violation_witness():
    # hat with feet 0,1 and peak 2 has mass exactly 1
    r = RPart(C0Function.hat(0, Fraction(1, 2), 1, 2))
    assert r.mass() == 1
    rep = r_part_invariance_verdict(r, 1)
    assert not rep.invariant
    lo, hi = rep.witness
    shift_mass = r.interval_mass(lo + 1, hi + 1)
    assert abs(r.interval_mass(lo, hi) - shift_mass) > Fraction(1, 10**12)
    assert rep.mass_interval == 1 and rep.mass_shifted == 0


def test_constant_density_not_expressible():
    # a translation-invariant density would need nonzero tails
    with pytest.raises(InputError, match="zero first and last"):
        C0Function((0, 1), (1, 1))


def test_interval_mass_exact_trapezoid():
    r = RPart(C0Function.hat(0, 1, 2, 1))
    assert r.interval_mass(0, 2) == 1
    assert r.interval_mass(0, 1) == Fraction(1, 2)
    assert r.interval_mass(Fraction(1, 2), Fraction(3, 2)) == Fraction(3, 4)


def test_atoms_count_into_interval_mass():
    r = RPart(C0Function.zero(), atoms=[(Fraction(1, 2), Fraction(1, 4))])
    assert r.interval_mass(0, 1) == Fraction(1, 4)
    assert r.interval_mass(Fraction(1, 2), 1) == Fraction(1, 4)  # half-open
    assert r.interval_mass(0, Fraction(1, 2)) == 0


def test_atom_violates_invariance():
    r = RPart(C0Function.zero(), atoms=[(0, Fraction(1, 2))])
    rep = r_part_invariance_verdict(r, Fraction(3, 2))
    assert not rep.invariant


def test_random_positive_mass_always_violated(rng):
    for _ in range(30):
        r = random_rpart(rng, n_hats=int(rng.integers(1, 4)))
        assert r.mass() > Fraction(1, 10**6)
        t = float(rng.uniform(0.1, 10.0))
        rep = r_part_invariance_verdict(r, t)
        assert not rep.invariant
        lo, hi = rep.witness
        tq = Fraction(t)
        diff = abs(r.interval_mass(lo, hi) - r.interval_mass(lo + tq, hi + tq))
        assert float(diff) > 1e-12


def test_r_part_shift_zero_rejected():
    with pytest.raises(InputError, match="nonzero"):
        r_part_invariance_verdict(RPart.zero(), 0)


# ------------------------------------------------------------------
# glued-space measures
# ------------------------------------------------------------------


def test_qmeasure_standard_is_forced_standard():
    qm = QMeasure.standard(M, box_support(M, 2))
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "ForcedStandard"
    assert rep.r_mass == 0.0
    assert rep.haar_distance == 0.0
    assert rep.gram_identity_defect == 0.0


def test_qmeasure_with_hat_r_part_is_violated():
    density = C0Function.hat(0, Fraction(1, 2), 1, 1).scaled(Fraction(1, 2))
    qm = QMeasure(RPart(density), FSMeasure.haar(M, box_support(M, 2)))
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "Violated"
    assert rep.r_witness is not None


def test_qmeasure_trivial_support_is_forced():
    qm = QMeasure.standard(M, [M.zero()])
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "ForcedStandard"
    assert rep.bohr_verdict.surviving == ()


def test_qmeasure_undetermined_with_periodic_shift():
    qm = QMeasure.standard(M, box_support(M, 2))
    rep = q_invariance_verdict(qm, [PiTimes(Fraction(2))])
    assert rep.verdict == "Undetermined"


def test_qmeasure_bohr_violation_detected():
    pm = FSMeasure.point_mass_identity(M, box_support(M, 1))
    qm = QMeasure(RPart.zero(), pm)
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "Violated"
    assert not rep.bohr_invariance.ok


def test_qmeasure_mass_budget():
    heavy = C0Function.hat(0, 1, 2, 3)  # mass 3 > 1
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        QMeasure(RPart(heavy), FSMeasure.haar(M, box_support(M, 1)))


def test_q_verdict_needs_nonzero_shift():
    qm = QMeasure.standard(M, box_support(M, 1))
    with pytest.raises(InputError):
        q_invariance_verdict(qm, [0])


def test_forced_standard_bounds_r_mass_and_gram(rng):
    # any measure that passes with a forcing shift set has negligible line
    # mass and identity moments
    tiny = C0Function.hat(0, 1, 2, 1).scaled(Fraction(1, 10**13))
    qm = QMeasure(RPart(tiny), FSMeasure.haar(M, box_support(M, 2)))
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "ForcedStandard"
    assert rep.r_mass <= 1e-12
    assert rep.gram_identity_defect <= 1e-10
