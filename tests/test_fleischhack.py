import math
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    ExactComplex,
    ExtendedFunction,
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    QMeasure,
    RPart,
    RealPoint,
    box_support,
    extension_agreement_check,
    extension_battery,
    iota,
    parse_scalar_literal,
    q_invariance_verdict,
    r_part_invariance_verdict,
    theta_tilde,
    xi_eval,
)
from util import (
    identity_point,
    point_mass_identity,
    random_exact_ap,
    random_hat,
    random_point,
    random_psd_measure,
    random_rpart,
    reference_r_part_verdict,
    turn_distance,
)

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


def test_c0_pullback_lipschitz_bound(rng):
    # |f| is convex along a segment, so both maxima sit at breakpoints
    for _ in range(20):
        f = random_hat(rng)
        segments = zip(zip(f.breakpoints, f.breakpoints[1:]), zip(f.values, f.values[1:]))
        L = max(abs(vb - va) / float(b - a) for (a, b), (va, vb) in segments)
        t = float(rng.uniform(-3, 3))
        s = t + float(rng.uniform(-0.5, 0.5))
        diff = f.translate(t) + f.translate(s).scaled(-1)
        assert max((abs(v) for v in diff.values), default=0.0) <= L * abs(t - s) + 1e-12


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
    # exact on exact turns: the identity and the half-turn point
    f = ext(C0Function.hat(0, 1, 2), APFunction.character(M, 1))
    assert xi_eval(identity_point(M), f) == ExactComplex(Fraction(1))
    assert xi_eval(BohrPoint(M, (Fraction(1, 2),)), f) == ExactComplex(Fraction(-1))


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
    assert turn_distance(theta_tilde(0, psi), psi) == 0.0


def test_theta_tilde_on_identity_gives_iota():
    t = PiTimes(Fraction(1, 3))
    moved = theta_tilde(t, identity_point(M))
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
        assert turn_distance(lhs2, rhs2) < 1e-12


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
# measures and the line-part elimination
# ------------------------------------------------------------------


def test_zero_r_part_is_invariant():
    rep = r_part_invariance_verdict(RPart.zero(), 1.0)
    assert rep.invariant
    assert rep.witness is None
    assert rep.mass_interval == 0 and rep.mass_shifted == 0


def test_unit_mass_hat_violation_witness():
    # hat with feet 0,1 and peak 2 has mass exactly 1
    r = RPart(C0Function.hat(0, Fraction(1, 2), 1, 2))
    assert r.mass() == 1
    rep = r_part_invariance_verdict(r, 1)
    assert not rep.invariant
    lo, hi = rep.witness
    shift_mass = r.interval_mass(lo + 1, hi + 1)
    assert abs(r.interval_mass(lo, hi) - shift_mass) > Fraction(1, 10**12)
    assert rep.mass_interval == 0 and rep.mass_shifted == 1


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


def _random_line_part(rng, kind):
    """Random hats, atoms alone, or hats with atoms left of, right of or on
    both sides of the density."""
    density = C0Function.zero()
    if kind != "atoms":
        for _ in range(int(rng.integers(1, 4))):
            density = density + random_hat(rng)
    bps = density.breakpoints or (Fraction(0),)
    positions = []
    if kind in ("atoms", "left", "both"):
        positions.append(bps[0] - Fraction(int(rng.integers(1, 40)), 8))
    if kind in ("atoms", "right", "both"):
        positions.append(bps[-1] + Fraction(int(rng.integers(1, 40)), 8))
    return RPart(density, [(x, Fraction(int(rng.integers(1, 9)), 16)) for x in positions])


def test_line_verdict_agrees_with_the_interval_scan(rng):
    kinds = ("hats", "atoms", "left", "right", "both")
    for k in range(250):
        r = RPart.zero() if k % 25 == 0 else _random_line_part(rng, kinds[k % 5])
        if k % 2:
            t = Fraction(int(rng.integers(4, 80)), int(rng.integers(1, 9)))
        else:
            t = float(rng.uniform(0.5, 10.0))
        t = -t if rng.random() < 0.5 else t
        rep = r_part_invariance_verdict(r, t)
        assert rep.invariant == reference_r_part_verdict(r, t)[0] == (r.mass() == 0)
        if not rep.invariant:
            lo, hi = rep.witness
            tau = abs(Fraction(t))
            assert hi - lo == tau
            assert r.interval_mass(lo, hi) == rep.mass_interval == 0
            assert r.interval_mass(lo + tau, hi + tau) == rep.mass_shifted > 0


def test_wide_hat_is_decided_with_two_interval_masses(monkeypatch):
    calls = []
    interval_mass = RPart.interval_mass

    def counting(self, lo, hi):
        calls.append((lo, hi))
        return interval_mass(self, lo, hi)

    monkeypatch.setattr(RPart, "interval_mass", counting)
    rep = r_part_invariance_verdict(RPart(C0Function.hat(0, 1, 10**6)), Fraction(1, 1000))
    assert len(calls) <= 2
    assert not rep.invariant
    assert rep.witness == (Fraction(-1, 1000), Fraction(0))
    assert rep.mass_interval == 0 and rep.mass_shifted == Fraction(1, 2 * 10**6)


def test_symbolic_shifts_are_decided_by_their_exact_value():
    tiny = parse_scalar_literal("0." + "0" * 400 + "1*sqrt2")
    huge = parse_scalar_literal("1" + "0" * 400 + "*sqrt2")
    assert float(tiny) == 0.0
    support = box_support(M2, 1)
    for t in (tiny, huge):
        rep = q_invariance_verdict(QMeasure.standard(M2, support), [t])
        assert rep.verdict == "ForcedStandard"
    # a positive line mass needs the first nonzero shift pinned on the line
    atom = QMeasure(RPart(C0Function.zero(), [(0, Fraction(1, 2))]), FSMeasure.haar(M2, support))
    with pytest.raises(InputError, match="pins to 0 on the line"):
        q_invariance_verdict(atom, [tiny, 1])
    with pytest.raises(InputError, match="must be finite"):
        q_invariance_verdict(atom, [huge])
    rep = q_invariance_verdict(atom, [1, tiny])
    assert rep.verdict == "Violated"
    assert rep.r_witness == (Fraction(-1), Fraction(0))


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


def test_haar_distance_is_the_largest_nonzero_moment(rng):
    # read from the moment sizes, bit for bit the distance to a built Haar measure
    support = box_support(M2, 2)
    for k in range(300):
        haar_weight = 0.25 if k % 3 == 0 else None  # float mixture weights
        mu = random_psd_measure(M2, support, rng, int(rng.integers(1, 4)), haar_weight)
        rep = q_invariance_verdict(QMeasure(RPart.zero(), mu), [1])
        assert rep.haar_distance.hex() == mu.max_abs_diff(FSMeasure.haar(M2, support)).hex()
    assert q_invariance_verdict(QMeasure.standard(M2, [M2.zero()]), [1]).haar_distance == 0.0


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
    pm = point_mass_identity(M, box_support(M, 1))
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
    # a line part of any positive mass, however small, is violated with the
    # exact witness; ForcedStandard has zero line mass and identity moments
    tiny = C0Function.hat(0, 1, 2, 1).scaled(Fraction(1, 10**13))
    qm = QMeasure(RPart(tiny), FSMeasure.haar(M, box_support(M, 2)))
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "Violated"
    assert rep.r_witness == (Fraction(-1), Fraction(0))
    assert qm.r_part.interval_mass(-1, 0) == 0
    assert qm.r_part.interval_mass(0, 1) == Fraction(1, 2 * 10**13)
    assert rep.gram_identity_defect is None
    rep = q_invariance_verdict(QMeasure.standard(M, box_support(M, 2)), [1])
    assert rep.verdict == "ForcedStandard"
    assert rep.r_mass == 0
    assert rep.gram_identity_defect <= 1e-10


_LINE_CALLS = {
    "q_verdict": lambda bad: q_invariance_verdict(QMeasure.standard(M2, box_support(M2, 1)), [bad]),
    "q_verdict_second": lambda bad: q_invariance_verdict(QMeasure.standard(M2, box_support(M2, 1)), [1, bad]),
    "r_part_verdict": lambda bad: r_part_invariance_verdict(RPart(C0Function.hat(0, 1, 2)), bad),
    "c0_translate": lambda bad: C0Function.hat(0, 1, 2).translate(bad),
    "real_point": lambda bad: RealPoint(bad),
    "theta_tilde": lambda bad: theta_tilde(bad, RealPoint(0)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", list(_LINE_CALLS))
def test_non_finite_line_values_are_input_errors(call, bad):
    with pytest.raises(InputError, match="must be finite, got"):
        _LINE_CALLS[call](bad)
