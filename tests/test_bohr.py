import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    APFunction,
    BohrPoint,
    ExactComplex,
    FrequencyModule,
    InputError,
    PiTimes,
    iota,
    kronecker_approx,
    kronecker_residual,
)
from bohrlab import bohr
from bohrlab.bohr import MAX_WINDOWS, _first_return, _in_sweep_order, _returns
from util import (
    brute_kronecker,
    identity_point,
    random_exact_ap,
    random_point,
    reference_window_sweep,
    turn_distance,
)

M1 = FrequencyModule.integers()
M2 = FrequencyModule.make(1, "sqrt2")


def test_identity_is_neutral(rng):
    e = identity_point(M2)
    psi = random_point(M2, rng)
    assert e * psi == psi


def test_angle_addition_mod_two_pi():
    # 3pi/2 + 3pi/2 = pi on the circle
    psi = BohrPoint.from_angles(M1, [PiTimes(Fraction(3, 2))])
    prod = psi * psi
    assert prod.turns == (Fraction(1, 2),)


def test_group_laws_random(rng):
    for _ in range(30):
        a, b, c = (random_point(M2, rng) for _ in range(3))
        assert turn_distance((a * b) * c, a * (b * c)) < 1e-12
        assert turn_distance(a * b, b * a) < 1e-12


def test_character_property(rng):
    psi = random_point(M2, rng)
    for _ in range(20):
        lam = M2.frequency(*rng.integers(-5, 6, 2))
        mu = M2.frequency(*rng.integers(-5, 6, 2))
        lhs = complex(psi.char_value(lam + mu))
        rhs = complex(psi.char_value(lam)) * complex(psi.char_value(mu))
        assert abs(lhs - rhs) < 1e-12
        assert abs(abs(complex(psi.char_value(lam))) - 1.0) < 1e-12


def test_iota_at_zero_is_identity():
    assert iota(M2, 0) == identity_point(M2)


def test_iota_is_homomorphism_exact_turns():
    x, y = PiTimes(Fraction(1, 3)), PiTimes(Fraction(5, 6))
    lhs = iota(M1, x) * iota(M1, y)
    rhs = iota(M1, PiTimes(Fraction(1, 3) + Fraction(5, 6)))
    assert lhs.turns == rhs.turns  # exact Fractions on both sides


def test_iota_is_homomorphism_float(rng):
    for _ in range(25):
        x, y = rng.uniform(-50, 50, 2)
        lhs = iota(M2, float(x)) * iota(M2, float(y))
        rhs = iota(M2, float(x) + float(y))
        assert turn_distance(lhs, rhs) < 1e-12


def test_iota_pi_half_turn_and_char():
    psi = iota(M1, PiTimes(Fraction(1, 2)))
    assert psi.turns == (Fraction(1, 4),)
    assert psi.char_value(M1.frequency(1)) == ExactComplex(Fraction(0), Fraction(1))


def test_point_eval_constant():
    psi = BohrPoint(M1, (0.37,))
    f = APFunction.constant(M1, 1)
    assert complex(psi.eval_ap(f)) == 1


def test_point_eval_agrees_with_function_eval(rng):
    # iota(x) evaluates a trig polynomial to f(x)
    for _ in range(20):
        f = random_exact_ap(M2, rng)
        x = float(rng.uniform(-10, 10))
        assert abs(complex(iota(M2, x).eval_ap(f)) - f.eval(x)) < 1e-10


def test_translated_point_eval_picks_up_phase(rng):
    # (iota(t) + psi)(chi_lambda) = e^{i lambda t} psi(chi_lambda)
    psi = random_point(M2, rng)
    t = float(rng.uniform(-5, 5))
    lam = M2.frequency(2, -1)
    lhs = complex((iota(M2, t) * psi).char_value(lam))
    rhs = np.exp(1j * lam.value * t) * complex(psi.char_value(lam))
    assert abs(lhs - rhs) < 1e-12


def test_eval_module_mismatch():
    psi = identity_point(M1)
    with pytest.raises(InputError):
        psi.eval_ap(APFunction.character(M2, 1, 0))


# ------------------------------------------------------------------
# kronecker approximation
# ------------------------------------------------------------------


def test_kronecker_requires_positive_eps():
    with pytest.raises(InputError):
        kronecker_approx(identity_point(M1), 0.0, 10.0)


def test_kronecker_d1_exact_preimage():
    theta = 2.5
    psi = BohrPoint.from_angles(M1, [theta])
    res = kronecker_approx(psi, 0.05, 1e4)
    assert res.found
    assert abs(res.t - theta) < 1e-9
    assert kronecker_residual(psi, res.t) < 1e-9
    # d=1 is the first window of the sweep: t = theta/g exactly
    m = FrequencyModule.make("sqrt2")
    res = kronecker_approx(BohrPoint.from_angles(m, [theta]), 1e-6, 1e4)
    assert res.found and res.reason is None
    assert res.t == theta / math.sqrt(2.0)
    assert res.points_scanned == 1


def test_kronecker_d2_target_with_grid_oracle():
    psi = BohrPoint.from_angles(M2, [0, PiTimes(Fraction(1))])
    eps = 0.05
    res = kronecker_approx(psi, eps, 1e6)
    assert res.found
    assert kronecker_residual(psi, res.t) < eps
    # independent brute-force oracle at the guaranteed step
    gens = [1.0, math.sqrt(2.0)]
    step = eps / (2.0 * math.sqrt(2.0))
    t_oracle = brute_kronecker(gens, [0.0, math.pi], eps, 0.0, 5000.0, step)
    assert t_oracle is not None
    assert max(
        2.0 * abs(math.sin(0.5 * (g * t_oracle - th)))
        for g, th in zip(gens, [0.0, math.pi])
    ) < eps


def test_kronecker_accepts_exact_preimage_point():
    psi = iota(M1, 5.0)
    assert kronecker_residual(psi, 5.0) < 1e-12
    res = kronecker_approx(psi, 1e-6, 1e4)
    assert res.found
    assert kronecker_residual(psi, res.t) < 1e-6


def test_kronecker_range_miss_is_reported():
    # an unreachable gap: eps far below what the few windows in [-0.5, 0.5] reach
    psi = BohrPoint.from_angles(M2, [1.0, 2.0])
    res = kronecker_approx(psi, 1e-9, 0.5)
    assert not res.found and res.t is None
    assert res.reason == "range"
    # ceil(0.5 * sqrt2 / pi) + 2 windows cover [-0.5, 0.5]
    assert res.points_scanned == 3
    assert math.isfinite(res.gap) and res.gap >= 1e-9


def test_kronecker_budget_miss_is_reported():
    psi = BohrPoint.from_angles(M2, [1.0, 2.0])
    res = kronecker_approx(psi, 1e-12, 1e308)
    assert not res.found and res.t is None
    assert res.reason == "budget"
    assert res.points_scanned == MAX_WINDOWS
    assert math.isfinite(res.gap) and res.gap >= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1], ids=["other", "pivot"])
def test_non_finite_turns_are_input_errors(bad, at):
    # a search on such a point would report a false "range" miss (first
    # coordinate) or raise ValueError (the pivot's)
    turns = [0.0, 0.0]
    turns[at] = bad
    with pytest.raises(InputError):
        BohrPoint(M2, turns)
    with pytest.raises(InputError):
        BohrPoint.from_angles(M2, turns)
    with pytest.raises(InputError):
        iota(M2, bad)


# (d, eps, t_max): t_max keeps the grid oracle's scan of [-t_max, t_max]
# to a few seconds per case, and lets it meet some of the 40 targets
ORACLE_CASES = [(2, 0.002, 700.0), (3, 0.03, 5000.0), (4, 0.05, 1e4)]


@pytest.mark.parametrize("d, eps, t_max", ORACLE_CASES, ids=["d2", "d3", "d4"])
def test_kronecker_finds_every_grid_oracle_hit(rng, d, eps, t_max):
    module = FrequencyModule.make(*(1, "sqrt2", "sqrt3", "pi")[:d])
    gens = module.float_values
    step = eps / (2.0 * float(np.max(np.abs(gens))))
    oracle_hits = 0
    for _ in range(40):
        psi = BohrPoint(module, tuple(float(u) for u in rng.random(d)))
        angles = [2.0 * math.pi * float(u) for u in psi.turns]
        res = kronecker_approx(psi, eps, t_max)
        if res.found:
            assert abs(res.t) <= t_max
            assert kronecker_residual(psi, res.t) < eps
        if brute_kronecker(gens, angles, eps, -t_max, t_max, step) is not None:
            oracle_hits += 1
            assert res.found, psi
    assert oracle_hits > 0


def test_kronecker_huge_t_max_stays_within_the_window_budget():
    psi = BohrPoint.from_angles(M2, [0, PiTimes(Fraction(1))])
    start = time.perf_counter()
    res = kronecker_approx(psi, 1e-12, 1e308)
    assert time.perf_counter() - start < 2.0
    assert res.found or (res.reason == "budget" and res.points_scanned == MAX_WINDOWS)


def test_kronecker_subnormal_eps_misses():
    psi = BohrPoint.from_angles(M2, [1.0, 2.0])
    res = kronecker_approx(psi, 1e-320, 1e4)
    assert not res.found and res.t is None
    assert res.points_scanned >= 1
    assert res.reason == "range"
    assert math.isfinite(res.gap) and res.gap >= 1e-320


def test_kronecker_statistical_d2(rng):
    hits = 0
    for _ in range(20):
        psi = BohrPoint(M2, tuple(float(u) for u in rng.random(2)))
        res = kronecker_approx(psi, 0.1, 1e6)
        if res.found:
            assert kronecker_residual(psi, res.t) < 0.1
            hits += 1
    assert hits >= 19


def test_kronecker_statistical_d3(rng):
    m3 = FrequencyModule.make(1, "sqrt2", "sqrt3")
    hits = 0
    for _ in range(10):
        psi = BohrPoint(m3, tuple(float(u) for u in rng.random(3)))
        res = kronecker_approx(psi, 0.1, 1e6)
        if res.found:
            assert kronecker_residual(psi, res.t) < 0.1
            hits += 1
    assert hits >= 9


# ------------------------------------------------------------------
# candidate windows: the integer rotation and the window sweep oracle
# ------------------------------------------------------------------


def test_first_return_matches_brute_force(rng):
    for case in range(3000):
        n = int(rng.integers(1, 60))
        a, b = (int(x) for x in rng.integers(0, n, 2))
        # every fourth interval covers the whole circle
        l = n - 1 if case % 4 == 0 else int(rng.integers(-1, n))
        brute = next((j for j in range(n) if (a * j + b) % n <= l), None)
        assert _first_return(a, b, n, l) == brute, (a, b, n, l)


def test_three_gap_returns_match_brute_force(rng):
    for case in range(3000):
        n = int(rng.integers(1, 60))
        a, b = (int(x) for x in rng.integers(0, n, 2))
        # the widest interval the stepping takes is just under half the circle
        l = (n - 1) // 2 if case % 4 == 0 else int(rng.integers(0, (n + 1) // 2))
        j_max = int(rng.integers(0, 4 * n))
        brute = [j for j in range(j_max + 1) if (a * j + b) % n <= l]
        assert list(_returns(a, b, n, l, j_max)) == brute, (a, b, n, l, j_max)


def test_three_gap_returns_on_a_narrow_interval():
    # a golden-ratio rotation whose interval is so narrow that the return
    # times n1 and n2 both exceed 10**6, checked against every step
    n = 1 << 40
    a = int(n * (math.sqrt(5.0) - 1.0) / 2.0)
    l = int(n * 3e-7)
    assert 1 + _first_return(a, a, n, l) > 10**6
    assert 1 + _first_return(a, (a + l) % n, n, l - 1) > 10**6
    j_max = 1 << 23
    j = np.arange(j_max + 1, dtype=np.int64)
    for b in (0, n // 3, n - l // 2, 123456789):
        brute = np.flatnonzero((a * j + b) % n <= l).tolist()
        assert list(_returns(a, b, n, l, j_max)) == brute


def test_candidate_sides_merge_into_the_sweep_order():
    # window i = 2j lies on the minus side (m = m0 - s*j), i = 2j + 1 on the
    # plus side (m = m0 + s*(j + 1)); equal j puts the minus side first
    merged = _in_sweep_order(iter([0, 1, 3]), iter([0, 1, 2, 4]), -1, -1)
    assert list(merged) == [(0, -1), (1, -2), (2, 0), (3, -3), (5, -4), (6, 2), (9, -6)]


CAP = math.sqrt(2.0)
SWEEP_MODULES = [
    ("sqrt2",),
    (-1,),
    (-1, "sqrt2"),
    (1, "e"),
    (Fraction(-7, 2), "sqrt2"),
    (-1, "e", "pi"),
    ("sqrt2", -5, "e"),
    (1, "sqrt2", "sqrt3", "pi"),
    ("e", -1, "sqrt3", "pi"),
]
SWEEP_EPS = [1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.3, 1.0, math.nextafter(CAP, 0.0), CAP, math.nextafter(CAP, 2.0), 2.0, 3.0]


def _same_result(psi, eps, t_max):
    res = kronecker_approx(psi, eps, t_max)
    ref = reference_window_sweep(psi, eps, t_max)
    # repr compares every field, float bits and zero signs included
    assert repr(res) == repr(ref), (psi, eps, t_max)
    return res


@pytest.mark.parametrize("gens", SWEEP_MODULES, ids=lambda g: ",".join(map(str, g)))
def test_kronecker_matches_the_window_sweep(rng, gens):
    module = FrequencyModule.make(*gens)
    d = module.dim
    for eps in SWEEP_EPS:
        # tiny eps over a long range is a miss over up to MAX_WINDOWS
        # windows; the far-out cases below cover it
        for t_max in (0.5, 1e6, 1e308) if eps > 0.02 else (0.5, 30.0, 1e4):
            for _ in range(2):
                rational = [PiTimes(Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))) for _ in range(d)]
                for psi in (
                    BohrPoint(module, tuple(float(u) for u in rng.random(d))),
                    BohrPoint.from_angles(module, rational),
                ):
                    _same_result(psi, eps, t_max)


# targets whose first hit lies beyond window 10**6 (and one budget miss),
# where |m| and with it the rounding pad are largest
DEEP_CASES = [
    ((-1, "sqrt2"), (Fraction(1, 3), Fraction(1, 3)), 1_515_586),
    ((1, "e"), (Fraction(2, 3), Fraction(1, 3)), 3_269_840),
    ((1, "e"), (Fraction(1, 4), Fraction(1, 3)), MAX_WINDOWS),
]


@pytest.mark.parametrize("gens, turns, scanned", DEEP_CASES)
def test_kronecker_matches_the_window_sweep_far_out(gens, turns, scanned):
    res = _same_result(BohrPoint(FrequencyModule.make(*gens), turns), 1e-6, 1e308)
    assert res.points_scanned == scanned
    assert res.found == (scanned < MAX_WINDOWS)


def test_kronecker_hits_take_no_pass_over_the_windows(rng, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a numpy pass over the windows ran")

    monkeypatch.setattr(bohr, "_sweep", no_sweep)
    m3 = FrequencyModule.make(1, "sqrt2", "sqrt3")
    for module, eps in ((M2, 0.01), (m3, 0.05)):
        for _ in range(20):
            psi = BohrPoint(module, tuple(float(u) for u in rng.random(module.dim)))
            assert kronecker_approx(psi, eps, 1e6).found
