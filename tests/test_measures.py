import gc
import math
import struct
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from bohrlab import (
    BohrPoint,
    ExactComplex,
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    TorusDensity,
    box_support,
    cross_support,
    gram_matrix,
    iota,
    measures,
    unitarity_check,
    uniqueness_verdict,
)
from bohrlab.measures import PSD_TOL
from bohrlab.scalars import EC_ONE, EC_ZERO, c_conj
from util import (
    random_point,
    random_psd_measure,
    reference_chord,
    reference_dirac_moments,
    reference_gram_blocks,
    reference_mixture,
    reference_psd_defect,
)

M = FrequencyModule.integers()
F3 = box_support(M, 3)


def test_haar_is_delta_at_zero():
    haar = FSMeasure.haar(M, F3)
    assert haar.entries[M.zero()] == EC_ONE
    for f in F3:
        if not f.is_zero():
            assert haar.entries[f] == EC_ZERO


def test_haar_pushforward_fixed():
    haar = FSMeasure.haar(M, F3)
    for t in (1, PiTimes(Fraction(1)), 17.3):
        assert haar.pushforward(t).max_abs_diff(haar) == 0.0


def test_pushforward_at_zero_is_identity(rng):
    mu = random_psd_measure(M, F3, rng)
    assert mu.pushforward(0).max_abs_diff(mu) == 0.0


def test_pushforward_of_identity_point_mass_is_dirac_at_iota_t(rng):
    pm = FSMeasure.point_mass_identity(M, F3)
    for t in rng.uniform(-5, 5, 5):
        moved = pm.pushforward(float(t))
        dirac = FSMeasure.from_point(M, F3, iota(M, float(t)))
        assert moved.max_abs_diff(dirac) < 1e-12


def test_pushforward_composes(rng):
    mu = random_psd_measure(M, F3, rng)
    for _ in range(5):
        s, t = (float(x) for x in rng.uniform(-4, 4, 2))
        lhs = mu.pushforward(s).pushforward(t)
        rhs = mu.pushforward(s + t)
        assert lhs.max_abs_diff(rhs) < 1e-12


def test_pushforward_preserves_structure(rng):
    for _ in range(10):
        mu = random_psd_measure(M, F3, rng)
        nu = mu.pushforward(float(rng.uniform(-10, 10)))
        assert complex(nu.entries[M.zero()]) == 1
        for f in F3:
            v, w = complex(nu.entries[f]), complex(nu.entries[-f])
            assert w == v.conjugate()
        assert nu.psd_defect() >= -1e-10


def test_invariance_of_haar():
    haar = FSMeasure.haar(M, F3)
    rep = haar.is_invariant([1, 2.7, PiTimes(Fraction(1, 3))])
    assert rep.ok and rep.worst == 0.0


def test_point_mass_periodic_exception():
    # on the module <3>, the shift 2pi/3 leaves every moment fixed
    m = FrequencyModule.make(3)
    support = box_support(m, 2)
    pm = FSMeasure.point_mass_identity(m, support)
    rep = pm.is_invariant([PiTimes(Fraction(2, 3))])
    assert rep.ok and rep.worst == 0.0


def test_point_mass_violates_generic_shift():
    support = box_support(M, 1)
    pm = FSMeasure.point_mass_identity(M, support)
    rep = pm.is_invariant([1])
    assert not rep.ok
    assert rep.worst_freq.coords in ((1,), (-1,))
    # oracle: |e^i - 1| = 2 sin(1/2)
    assert rep.worst == pytest.approx(2.0 * math.sin(0.5), abs=1e-14)


def test_uniqueness_verdict_unit_shift():
    v = uniqueness_verdict(M, F3, [1])
    assert v.forced
    assert v.surviving == ()
    assert set(f.coords for f in v.killers) == {(k,) for k in range(-3, 4) if k}


def test_uniqueness_verdict_full_period_survives():
    v = uniqueness_verdict(M, F3, [PiTimes(Fraction(2))])
    assert not v.forced
    assert len(v.surviving) == 6


def test_uniqueness_verdict_no_shifts():
    v = uniqueness_verdict(M, F3, [])
    assert not v.forced
    assert len(v.surviving) == len(F3) - 1


def test_two_shifts_with_irrational_ratio_force_haar(rng):
    from bohrlab.parser import parse_scalar_literal

    for _ in range(10):
        q = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 7)))
        m = FrequencyModule.from_rationals([q])
        support = box_support(m, int(rng.integers(1, 5)))
        pairs = [
            [Fraction(int(rng.integers(1, 9))), PiTimes(Fraction(2))],
            [PiTimes(Fraction(1, 2)), Fraction(3, 2)],
            [parse_scalar_literal("sqrt2"), PiTimes(Fraction(2))],
        ]
        for shifts in pairs:
            assert uniqueness_verdict(m, support, shifts).forced


def test_projection_to_invariant_yields_haar_under_forced_shifts(rng):
    haar = FSMeasure.haar(M, F3)
    for _ in range(30):
        mu = random_psd_measure(M, F3, rng)
        proj = mu.project_to_invariant([1])
        assert proj.is_invariant([1], 1e-12).ok
        assert proj.max_abs_diff(haar) <= 1e-10


def test_projection_keeps_surviving_moments(rng):
    mu = random_psd_measure(M, F3, rng)
    proj = mu.project_to_invariant([PiTimes(Fraction(2))])  # kills nothing
    assert proj.max_abs_diff(mu) == 0.0


def test_coefficient_grid_oracle_small_support():
    # exhaustive step-0.1 grid over both free complex moments on {-2..2}
    support = box_support(M, 2)
    w1 = 2.0 * abs(math.sin(0.5))  # kill factor for lambda=1 under shift 1
    w2 = 2.0 * abs(math.sin(1.0))
    grid = np.round(np.arange(-1.0, 1.0001, 0.1), 10)
    re1, im1, re2, im2 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    c1 = np.abs(re1 + 1j * im1)
    c2 = np.abs(re2 + 1j * im2)
    ok = (c1 * w1 <= 1e-12) & (c2 * w2 <= 1e-12)
    survivors = np.argwhere(ok)
    assert len(survivors) == 1
    i, j, k, l = survivors[0]
    assert grid[i] == grid[j] == grid[k] == grid[l] == 0.0
    # the lone survivor is the Haar measure and passes the PSD gate
    haar = FSMeasure.haar(M, support)
    assert haar.is_invariant([1], 1e-12).ok


def test_non_psd_moments_rejected():
    entries = {
        M.frequency(0): EC_ONE,
        M.frequency(1): ExactComplex(Fraction(6, 5)),
        M.frequency(-1): ExactComplex(Fraction(6, 5)),
    }
    with pytest.raises(InputError, match="positive definite"):
        FSMeasure(M, entries)


def test_non_normalized_rejected():
    entries = {M.frequency(0): ExactComplex(Fraction(1, 2))}
    with pytest.raises(InputError, match="normalized"):
        FSMeasure(M, entries)


def test_asymmetric_support_rejected():
    entries = {M.frequency(0): EC_ONE, M.frequency(1): EC_ZERO}
    with pytest.raises(InputError, match="symmetric"):
        FSMeasure(M, entries)
    support = list(entries)
    for build in (
        lambda: FSMeasure.haar(M, support),
        lambda: FSMeasure.point_mass_identity(M, support),
        lambda: FSMeasure.from_point(M, support, iota(M, 1)),
        lambda: TorusDensity.uniform(M).moments(support),
    ):
        with pytest.raises(InputError, match="symmetric"):
            build()


def test_each_construction_checks_the_support_once(monkeypatch):
    check = measures.check_symmetric_support
    calls = []

    def counting(freqs):
        calls.append(1)
        return check(freqs)

    monkeypatch.setattr(measures, "check_symmetric_support", counting)
    for build in (
        lambda: FSMeasure(M, {f: EC_ONE if f.is_zero() else EC_ZERO for f in F3}),
        lambda: FSMeasure.haar(M, F3),
        lambda: FSMeasure.point_mass_identity(M, F3),
        lambda: FSMeasure.from_point(M, F3, iota(M, 1)),
        lambda: TorusDensity.uniform(M).moments(F3),
    ):
        calls.clear()
        build()
        assert len(calls) == 1

    # A mixture adopts the support its parts share.  With every part PSD by
    # construction it builds no clique index and runs no PSD check; with a
    # checked part the mixture itself is checked, once.
    psd = FSMeasure.psd_defect
    psd_calls = []

    def counting_psd(mu):
        psd_calls.append(1)
        return psd(mu)

    support = box_support(M, 3)  # a fresh support, whose index is not built yet
    haar, dirac = FSMeasure.haar(M, support), FSMeasure.from_point(M, support, iota(M, 1))
    flagged = [haar, FSMeasure.point_mass_identity(M, support), FSMeasure.mixture([(1, dirac)])]
    # checked on a support of its own, equal to ``support``
    checked = FSMeasure(M, dict(dirac.entries))
    monkeypatch.setattr(FSMeasure, "psd_defect", counting_psd)
    for others, psd_checks in (
        (flagged, 0),
        ([haar, checked], 1),
        ([haar, checked.pushforward(Fraction(1, 3))], 1),
    ):
        parts = [(Fraction(1, len(others) + 1), m) for m in (dirac, *others)]
        calls.clear()
        psd_calls.clear()
        mu = FSMeasure.mixture(parts)
        assert mu.support is support
        assert len(calls) == 0
        assert len(psd_calls) == psd_checks
        if not psd_checks:
            assert "index" not in vars(support)


def test_psd_by_construction_flag(rng):
    haar = FSMeasure.haar(M, F3)
    dirac = FSMeasure.from_point(M, F3, random_point(M, rng))
    checked = FSMeasure(M, dict(dirac.entries))
    flagged = [
        haar,
        dirac,
        FSMeasure.point_mass_identity(M, F3),
        FSMeasure.mixture([(Fraction(1, 3), haar), (2 / 3, dirac)]),
    ]
    unflagged = [
        checked,
        FSMeasure(M, dict(haar.entries)),
        dirac.pushforward(1),
        dirac.project_to_invariant([1]),
        TorusDensity.uniform(M).moments(F3),
        FSMeasure.mixture([(Fraction(1, 2), haar), (Fraction(1, 2), checked)]),
        FSMeasure.mixture([(Fraction(1, 2), dirac), (Fraction(1, 2), haar.pushforward(1))]),
    ]
    assert all(mu.psd_by_construction for mu in flagged)
    assert not any(mu.psd_by_construction for mu in unflagged)
    with pytest.raises(AttributeError):
        haar.psd_by_construction = False


@pytest.mark.parametrize(
    "weights, message",
    [
        ((math.nan, 1), "finite real"),
        ((math.inf, 1), "finite real"),
        ((-math.inf, 1), "finite real"),
        ((Fraction(3, 2), Fraction(-1, 2)), "negative"),
        ((0.5 + 0j, 0.5), "finite real"),
        ((ExactComplex(Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2)), "finite real"),
    ],
    ids=["nan", "inf", "minus_inf", "negative", "complex", "exact_complex"],
)
def test_mixture_rejects_bad_weights(weights, message):
    # the first weight goes to Haar, whose nonzero moments are exact zeros
    parts = zip(weights, (FSMeasure.haar(M, F3), FSMeasure.from_point(M, F3, iota(M, 1))))
    with pytest.raises(InputError, match=message):
        FSMeasure.mixture(parts)


def _random_support(module, rng, radius, size):
    draws = rng.integers(-radius, radius + 1, (size, module.dim))
    coords = {tuple(int(c) for c in row) for row in draws}
    coords |= {tuple(-c for c in x) for x in coords} | {(0,) * module.dim}
    return tuple(module.frequency(*c) for c in sorted(coords))


_MODULES = (M, FrequencyModule.make(1, "sqrt2"), FrequencyModule.make(1, "sqrt2", "sqrt3"))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _assert_matches(entries, ref, tol):
    """Same keys, the same type per entry, exact entries equal, float
    entries within ``tol``."""
    assert entries.keys() == ref.keys()
    for f, r in ref.items():
        v = entries[f]
        assert type(v) is type(r), f.coords
        if isinstance(r, ExactComplex):
            assert v == r, f.coords
        else:
            assert abs(v - r) <= tol, f.coords


def _assert_conjugate_halves(mu):
    for f in mu.support:
        v, w = mu.entries[f], mu.entries[-f]
        if isinstance(v, ExactComplex):
            assert w == v.conj()
        else:
            assert _bits(w) == _bits(v.conjugate())


def test_dirac_moments_match_per_entry_build(rng):
    # The oracle rounds each product c_k * turn_k and each partial sum, at
    # magnitudes below 101 here, so it can be off the exact phase by up to
    # 2*pi * 2d * 2**-47 (2.7e-13 at d=3).  from_point rounds the exact
    # turn once: within 1e-15 of the phase of the exact turn.
    for module in _MODULES:
        tol = 2 * math.pi * 2 * module.dim * 2.0**-47 + 1e-15
        for exact_prob in (1.0, 0.0, 0.5):
            for _ in range(20):
                support = _random_support(module, rng, 100, 12)
                psi = random_point(module, rng, exact_prob)
                mu = FSMeasure.from_point(module, support, psi)
                _assert_matches(mu.entries, reference_dirac_moments(support, psi), tol)
                _assert_conjugate_halves(mu)
                for f, v in mu.entries.items():
                    if not isinstance(v, ExactComplex):
                        x = sum(Fraction(t) * c for t, c in zip(psi.turns, f.coords)) % 1
                        exact = complex(mp.expjpi(2 * mp.mpf(x.numerator) / x.denominator))
                        assert abs(v - exact) < 1e-15


def test_dirac_moments_exact_at_any_coordinate_size():
    big = 10**30 + 1
    support = (M.frequency(-big), M.frequency(-1), M.zero(), M.frequency(1), M.frequency(big))
    for turn in (Fraction(1, 4), Fraction(1, 3), Fraction(7, 10**40), 0.25, 0.0):
        psi = BohrPoint(M, [turn])
        mu = FSMeasure.from_point(M, support, psi)
        ref = reference_dirac_moments(support, psi)
        if isinstance(turn, float):
            # float turns give float phases, even on quarter turns
            moments = [mu.entries[f] for f in support if not f.is_zero()]
            assert not any(isinstance(v, ExactComplex) for v in moments)
            assert mu.entries[M.frequency(1)] == ref[M.frequency(1)]
        else:
            # exact turns: the oracle's Fraction arithmetic, bit for bit
            assert [type(mu.entries[f]) for f in support] == [type(ref[f]) for f in support]
            assert all(mu.entries[f] == ref[f] for f in support)
    quarter = FSMeasure.from_point(M, support, BohrPoint(M, [Fraction(1, 4)]))
    assert quarter.entries[M.frequency(big)] == ExactComplex(Fraction(0), Fraction(1))


def _random_weights(rng, n):
    raw = [int(w) for w in rng.integers(0, 6, n)]
    raw[int(rng.integers(0, n))] += 1  # at least one nonzero weight
    kind = rng.choice(["fraction", "float", "mixed"])
    weights = [Fraction(w, sum(raw)) for w in raw]
    if kind == "float":
        weights = [float(w) for w in weights]
    elif kind == "mixed":
        weights = [float(w) if rng.random() < 0.5 else w for w in weights]
    return weights


def test_mixture_matches_per_entry_build(rng):
    seen = {"float": 0, "exact": 0, "exact under a float weight": 0}
    for module in _MODULES:
        for _ in range(15):
            support = _random_support(module, rng, 3, 6)
            pool = [FSMeasure.haar(module, support), FSMeasure.point_mass_identity(module, support)]
            pool += [
                FSMeasure.from_point(module, support, random_point(module, rng, p))
                for p in (1.0, 1.0, 0.0, 0.5, 0.5)
            ]
            inner = None
            for _ in range(2):  # the second mixture contains the first
                k = int(rng.integers(1, 5))
                members = [pool[int(i)] for i in rng.choice(len(pool), size=k, replace=False)]
                if inner is not None:
                    members[0] = inner
                parts = list(zip(_random_weights(rng, k), members))
                inner = mu = FSMeasure.mixture(parts)
                assert mu.psd_by_construction
                assert mu.psd_defect() >= -PSD_TOL
                _assert_conjugate_halves(mu)
                _assert_matches(mu.entries, reference_mixture(parts).entries, 1e-15)
                float_weight = any(isinstance(w, float) for w, _ in parts)
                for f, v in mu.entries.items():
                    if f.is_zero():
                        continue
                    if not isinstance(v, ExactComplex):
                        seen["float"] += 1
                    elif float_weight:
                        seen["exact under a float weight"] += 1
                    else:
                        seen["exact"] += 1
    assert min(seen.values()) > 0, seen


def test_mixture_on_the_zero_only_support():
    support = [M.zero()]
    dirac = FSMeasure.from_point(M, support, BohrPoint(M, [0.3]))
    mu = FSMeasure.mixture([(0.5, FSMeasure.haar(M, support)), (Fraction(1, 2), dirac)])
    assert mu.entries == {M.zero(): EC_ONE} and mu.psd_by_construction


def test_checked_mixture_matches_per_entry_build(rng):
    support = _random_support(FrequencyModule.make(1, "sqrt2"), rng, 3, 6)
    module = support[0].module
    dirac = FSMeasure.from_point(module, support, random_point(module, rng, 0.5))
    parts = [
        (Fraction(1, 4), FSMeasure.haar(module, support)),
        (0.75, dirac.pushforward(Fraction(1, 7))),
    ]
    mu = FSMeasure.mixture(parts)
    assert not mu.psd_by_construction
    _assert_matches(mu.entries, reference_mixture(parts).entries, 1e-15)
    _assert_conjugate_halves(mu)


def test_haar_and_point_moments_are_positive_definite_by_construction(rng):
    # haar and from_point skip the PSD check; these are the supports of the
    # moments_fixed_support benchmark, with 50 points each of exact and
    # float turns
    m2, m3 = FrequencyModule.make(1, "sqrt2"), FrequencyModule.make(1, "sqrt2", "sqrt3")
    supports = [(M, box_support(M, 6)), (m2, box_support(m2, 2)), (m3, cross_support(m3, 2))]
    for module, support in supports:
        haar = FSMeasure.haar(module, support)
        assert haar.psd_defect() == 1.0 and haar.exact_psd()
        points = [random_point(module, rng, exact_prob=p) for p in (1.0, 0.0) for _ in range(25)]
        for psi in points:
            mu = FSMeasure.from_point(module, support, psi)
            assert mu.entries[module.zero()] == EC_ONE
            assert all(mu.entries[-f] == c_conj(mu.entries[f]) for f in support)
            assert mu.psd_defect() >= -PSD_TOL
            assert mu.exact_psd() is (True if mu.is_exact() else None)


def test_exact_psd_certificate():
    half = ExactComplex(Fraction(1, 2))
    good = FSMeasure(
        M, {M.frequency(0): EC_ONE, M.frequency(1): half, M.frequency(-1): half}
    )
    assert good.exact_psd() is True
    assert FSMeasure.haar(M, cross_support(M, 2)).exact_psd() is True


def test_psd_defect_on_random_mixtures(rng):
    for _ in range(20):
        mu = random_psd_measure(M, F3, rng)
        assert mu.psd_defect() >= -1e-10


# ------------------------------------------------------------------
# torus densities
# ------------------------------------------------------------------


def test_uniform_density_gives_haar_moments():
    rho = TorusDensity.uniform(M)
    mu = rho.moments(F3)
    assert mu.max_abs_diff(FSMeasure.haar(M, F3)) == 0.0


def test_one_plus_cosine_moments():
    half = ExactComplex(Fraction(1, 2))
    rho = TorusDensity(M, {(0,): EC_ONE, (1,): half, (-1,): half})
    mu = rho.moments(box_support(M, 1))
    assert mu.entries[M.frequency(1)] == half
    assert mu.entries[M.frequency(-1)] == half


def test_one_plus_cosine_box_measure():
    half = ExactComplex(Fraction(1, 2))
    rho = TorusDensity(M, {(0,): EC_ONE, (1,): half, (-1,): half})
    # oracle: (1/2pi) int_0^pi (1 + cos x) dx = 1/2 + 0 = 1/2
    assert rho.box_measure([(0.0, math.pi)]) == pytest.approx(0.5, abs=1e-12)


def test_uniform_density_set_invariance():
    rho = TorusDensity.uniform(M)
    for t in (0.3, 1.0, 12.7):
        m1, m2 = rho.set_invariance_check([(0.5, 2.0)], t)
        assert m1 == pytest.approx(m2, abs=1e-12)


def test_density_shift_matches_pushforward(rng):
    # nonnegative density via |q|^2 on the 2-torus
    amp = {
        (0, 0): ExactComplex(Fraction(1)),
        (1, 0): ExactComplex(Fraction(1, 2), Fraction(1, 4)),
        (0, 1): ExactComplex(Fraction(-1, 3)),
        (1, 1): ExactComplex(Fraction(1, 5), Fraction(1, 5)),
    }
    m2 = FrequencyModule.make(1, "sqrt2")
    rho = TorusDensity.from_amplitude(m2, amp)
    support = box_support(m2, 1)
    for t in rng.uniform(-3, 3, 5):
        lhs = rho.shifted(float(t)).moments(support)
        rhs = rho.moments(support).pushforward(float(t))
        assert lhs.max_abs_diff(rhs) < 1e-10


def test_density_must_be_nonnegative():
    with pytest.raises(InputError, match="negative"):
        TorusDensity(M, {(0,): EC_ONE, (1,): EC_ONE, (-1,): EC_ONE})


def test_density_must_be_normalized():
    with pytest.raises(InputError, match="integrate"):
        TorusDensity(M, {(0,): ExactComplex(Fraction(9, 10))})


def test_density_d3_rejected():
    m3 = FrequencyModule.make(1, "sqrt2", "sqrt3")
    with pytest.raises(InputError, match="d <= 2"):
        TorusDensity.uniform(m3)


# ------------------------------------------------------------------
# the per-support clique index against a per-entry Gram build
# ------------------------------------------------------------------


def _random_difference_support(module, rng):
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    k = int(rng.integers(2, 7))
    basis = [box[int(i)] for i in rng.choice(len(box), size=k, replace=False)]
    diffs = {(a[0] - b[0], a[1] - b[1]) for a in basis for b in basis}
    return tuple(module.frequency(*c) for c in sorted(diffs))


def _oracle_supports(rng):
    m2 = FrequencyModule.make(1, "sqrt2")
    m3 = FrequencyModule.make(1, "sqrt2", "sqrt3")
    cases = [
        (M, box_support(M, 6)),
        (m2, box_support(m2, 2)),
        (m3, cross_support(m3, 2)),
    ]
    cases += [(m2, _random_difference_support(m2, rng)) for _ in range(8)]
    return cases


def test_gram_blocks_match_per_entry_build(rng):
    for module, support in _oracle_supports(rng):
        for _ in range(3):
            mu = random_psd_measure(module, support, rng, n_atoms=int(rng.integers(1, 4)))
            ref = reference_gram_blocks(mu.support, mu.entries)
            got = mu.gram_blocks()
            assert [b for b, _ in got] == [b for b, _ in ref]
            for (_, g), (_, h) in zip(got, ref):
                assert g.dtype == h.dtype and np.array_equal(g, h)
            assert mu.psd_defect() == pytest.approx(reference_psd_defect(ref), abs=1e-12)
        # the size-grouped stacks hold every clique table exactly once
        index = mu.support.index
        stacked = sorted(t.tolist() for stack in index.stacks for t in stack)
        assert stacked == sorted(t.tolist() for t in index.tables)


def test_exact_psd_matches_per_entry_build(rng):
    from bohrlab.measures import _exact_psd

    for module, support in _oracle_supports(rng):
        mu = FSMeasure.haar(module, support)
        ref = all(
            _exact_psd([[mu.entries[a - b] for b in basis] for a in basis])
            for basis, _ in reference_gram_blocks(mu.support, mu.entries)
        )
        assert mu.exact_psd() is ref is True


def test_non_psd_moment_data_rejected_on_every_support(rng):
    rejected = accepted = 0
    for module, support in _oracle_supports(rng):
        for _ in range(10):
            entries = {module.zero(): EC_ONE}
            for f in support:
                if f.coords > tuple(-c for c in f.coords):
                    v = ExactComplex(
                        Fraction(int(rng.integers(-9, 10)), 10),
                        Fraction(int(rng.integers(-9, 10)), 10),
                    )
                    entries[f] = v
                    entries[-f] = v.conj()
            defect = reference_psd_defect(reference_gram_blocks(support, entries))
            if defect < -1e-10:
                with pytest.raises(InputError, match="positive definite"):
                    FSMeasure(module, entries)
                rejected += 1
            else:
                assert FSMeasure(module, entries).psd_defect() == pytest.approx(defect, abs=1e-12)
                accepted += 1
    assert rejected > 0


def test_support_index_is_built_once_and_freed_with_its_support(monkeypatch):
    cliques = measures._difference_cliques
    builds = []

    def counting(pos):
        builds.append(1)
        return cliques(pos)

    monkeypatch.setattr(measures, "_difference_cliques", counting)
    support = box_support(M, 4)
    point = FSMeasure.from_point(M, support, iota(M, 1))
    measures_on_it = [
        FSMeasure.mixture([(Fraction(1, 2), point), (Fraction(1, 2), point.pushforward(1))]),
        point.project_to_invariant([Fraction(1, 3)]),
        TorusDensity.uniform(M).moments(support),
    ]
    assert all(mu.support is support for mu in measures_on_it)
    for mu in measures_on_it:
        mu.psd_defect(), mu.gram_blocks(), mu.exact_psd()
    assert len(builds) == 1
    index = weakref.ref(support.index)
    assert all(mu.support.index is index() for mu in measures_on_it)
    del support, point, measures_on_it, mu
    gc.collect()
    assert index() is None
    # an equal support checked anew is a new support with an index of its own
    box_support(M, 4).index
    assert len(builds) == 2


def test_large_coordinates_match_per_entry_oracles(rng):
    """The difference table looks coordinates up as Python integers, so the
    Gram blocks, the PSD check and the Hilbert checks hold at any size."""
    for big in (2**62, 2**100):
        _check_large_coordinates(big, rng)


def _check_large_coordinates(big, rng):
    m2 = FrequencyModule.make(1, "sqrt2")
    for module, rows in (
        (M, [(k * big,) for k in range(-2, 3)] + [(k * big + 1,) for k in (-2, -1, 0, 1)]),
        (m2, [(a * big, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]),
    ):
        rows = sorted(set(rows) | {tuple(-c for c in r) for r in rows})
        support = tuple(module.frequency(*r) for r in rows)
        assert max(abs(c) for r in rows for c in r) >= big
        for _ in range(3):
            mu = random_psd_measure(module, support, rng, n_atoms=int(rng.integers(1, 4)))
            for nu in (mu, FSMeasure(module, dict(mu.entries)), mu.pushforward(Fraction(1, 3))):
                ref = reference_gram_blocks(nu.support, nu.entries)
                got = nu.gram_blocks()
                assert [b for b, _ in got] == [b for b, _ in ref]
                assert all(g.tobytes() == h.tobytes() for (_, g), (_, h) in zip(got, ref))
                assert nu.psd_defect() == reference_psd_defect(ref)
                # the largest clique as a Hilbert-space basis
                basis = max((b for b, _ in ref), key=len)
                want = np.array([[complex(nu.entries[a - b]) for b in basis] for a in basis])
                assert gram_matrix(nu, basis).matrix.tobytes() == want.tobytes()
                t = float(rng.uniform(0.05, 3.0))
                rep = unitarity_check(nu, basis, t)
                chords = {f: reference_chord(f, t) for f in {a - b for a in basis for b in basis}}
                worst = max(abs(complex(nu.entries[f])) * c for f, c in chords.items())
                assert rep.defect == pytest.approx(worst, rel=1e-9, abs=1e-12)
    # Haar moments and the phase layer need no difference table either
    support = (M.frequency(-big), M.zero(), M.frequency(big))
    assert FSMeasure(M, {f: EC_ONE if f.is_zero() else EC_ZERO for f in support}).psd_defect() == 1.0
    mu = FSMeasure.haar(M, support)
    assert mu.is_invariant([Fraction(1, 3)]).ok
    assert uniqueness_verdict(M, support, [Fraction(1, 3)]).forced
