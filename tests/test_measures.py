import math
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    ExactComplex,
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    TorusDensity,
    box_support,
    cross_support,
    iota,
    measures,
    uniqueness_verdict,
)
from bohrlab.measures import PSD_TOL, SUPPORT_INDEX_SIZE, _maximal_cliques, support_index
from bohrlab.scalars import EC_ONE, EC_ZERO, c_conj
from util import random_point, random_psd_measure

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


def reference_gram_blocks(support, entries):
    """Gram blocks built entry by entry through Frequency arithmetic: the
    cliques from pairwise differences tested against the support set, and
    each entry looked up as entries[a - b]."""
    fset = set(support)
    n = len(support)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if support[i] - support[j] in fset:
                adj[i].add(j)
                adj[j].add(i)
    out = []
    for idx in _maximal_cliques(n, adj):
        basis = [support[i] for i in idx]
        g = np.array(
            [[complex(entries[a - b]) for b in basis] for a in basis], dtype=np.complex128
        )
        out.append((basis, g))
    return out


def reference_psd_defect(blocks):
    worst = 1.0
    for _, g in blocks:
        worst = min(worst, float(np.linalg.eigvalsh(g).min()))
    return worst


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
        index = support_index(tuple(support))
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


def test_support_index_cache_stays_bounded():
    support_index.cache_clear()
    seen = set()
    for mask in range(1, 101):
        ks = [k for k in range(1, 8) if mask >> (k - 1) & 1]
        support = tuple(M.frequency(k) for k in sorted({0, *ks, *(-k for k in ks)}))
        seen.add(support)
        support_index(support)
    assert len(seen) == 100
    info = support_index.cache_info()
    assert info.maxsize == SUPPORT_INDEX_SIZE
    assert info.currsize <= info.maxsize


def test_support_index_rejects_coordinates_outside_int64_differences():
    def haar_entries(support):
        return {f: EC_ONE if f.is_zero() else EC_ZERO for f in support}

    big = 2**62
    support = (M.frequency(-big), M.zero(), M.frequency(big))
    with pytest.raises(InputError, match="2\\*\\*62"):
        FSMeasure(M, haar_entries(support))
    ok = (M.frequency(1 - big), M.zero(), M.frequency(big - 1))
    assert FSMeasure(M, haar_entries(ok)).psd_defect() == 1.0
    # Haar moments need no PSD check, and the phase layer has no
    # coordinate limit: the shifts kill both nonzero moments.
    mu = FSMeasure.haar(M, support)
    assert mu.is_invariant([Fraction(1, 3)]).ok
    assert uniqueness_verdict(M, support, [Fraction(1, 3)]).forced
