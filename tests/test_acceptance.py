"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerances and runtime budget and prints a
single pass line (visible with `pytest -s`).  A failing assertion is the
fail line.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    FSMeasure,
    FrequencyModule,
    PiTimes,
    QMeasure,
    RealPoint,
    box_support,
    cross_support,
    extension_agreement_check,
    ExtendedFunction,
    gram_matrix,
    kronecker_approx,
    kronecker_residual,
    q_invariance_verdict,
    r_part_invariance_verdict,
    unitarity_check,
    uniqueness_verdict,
)
from bohrlab.parser import parse_scalar_literal
from bohrlab.scalars import EC_ONE, EC_ZERO
from util import random_exact_ap, random_hat, random_point, random_psd_measure, random_rpart

M1 = FrequencyModule.integers()


def _report(num, name, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_orthonormality(rng):
    t0 = time.monotonic()
    modules = [
        M1,
        FrequencyModule.make(1, "sqrt2"),
        FrequencyModule.make("pi"),
        FrequencyModule.from_rationals([Fraction(1, 2), Fraction(1, 3)]),
    ]
    checked = 0
    while checked < 100:
        m = modules[checked % len(modules)]
        a = m.frequency(*rng.integers(-6, 7, m.dim))
        b = m.frequency(*rng.integers(-6, 7, m.dim))
        chi_a, chi_b = APFunction(m, {a: EC_ONE}), APFunction(m, {b: EC_ONE})
        value = chi_a.inner(chi_b)
        assert value == (EC_ONE if a == b else EC_ZERO)  # exact rational arithmetic
        # numeric Bohr-mean cross-check on the product character
        h = chi_a * chi_b.star()
        exact = complex(h.bohr_mean())
        for T in (1e2, 1e3, 1e4):
            err = abs(h.bohr_mean_numeric(T) - exact)
            assert err <= h.mean_error_bound(T) + 1e-15
        checked += 1
    _report(1, "orthonormality", t0, 5.0)


def test_criterion_2_haar_uniqueness(rng):
    t0 = time.monotonic()
    m2 = FrequencyModule.make(1, "sqrt2")
    m3 = FrequencyModule.make(1, "sqrt2", "sqrt3")
    configs = [
        (M1, box_support(M1, 6), [Fraction(1)]),                       # |F| = 13, rational case
        (m2, box_support(m2, 1), [Fraction(1), parse_scalar_literal("sqrt2")]),  # |F| = 9
        (m3, cross_support(m3, 2), [Fraction(1), PiTimes(Fraction(2))]),         # |F| = 13
    ]
    for module, support, shifts in configs:
        assert len(support) <= 13
        assert uniqueness_verdict(module, support, shifts).forced
    for k in range(1000):
        module, support, shifts = configs[k % 3]
        haar = FSMeasure.haar(module, support)
        mu = random_psd_measure(module, support, rng).project_to_invariant(shifts)
        assert mu.is_invariant(shifts, 1e-12).ok
        assert mu.max_abs_diff(haar) <= 1e-10

    # exhaustive coefficient-grid oracle on |F| = 5 with step 0.1
    support5 = box_support(M1, 2)
    # invariance kill factor per frequency under the shift t=1
    kill = {k: 2.0 * abs(math.sin(0.5 * k * 1.0)) for k in (1, 2)}
    grid = np.round(np.arange(-1.0, 1.0001, 0.1), 10)
    re1, im1, re2, im2 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    pass_mask = (np.hypot(re1, im1) * kill[1] <= 1e-12) & (
        np.hypot(re2, im2) * kill[2] <= 1e-12
    )
    survivors = np.argwhere(pass_mask)
    assert survivors.shape[0] == 1  # exactly one grid point survives invariance
    i, j, k, l = survivors[0]
    values = (grid[i], grid[j], grid[k], grid[l])
    assert values == (0.0, 0.0, 0.0, 0.0)
    surviving_measure = FSMeasure(
        M1,
        {
            M1.frequency(0): EC_ONE,
            M1.frequency(1): complex(values[0], values[1]),
            M1.frequency(-1): complex(values[0], -values[1]),
            M1.frequency(2): complex(values[2], values[3]),
            M1.frequency(-2): complex(values[2], -values[3]),
        },
    )
    assert surviving_measure.max_abs_diff(FSMeasure.haar(M1, support5)) == 0.0
    _report(2, "haar uniqueness, finite model", t0, 60.0)


def test_criterion_3_unitarity_iff_invariance(rng):
    t0 = time.monotonic()
    support = box_support(M1, 3)
    for _ in range(1000):
        mu = random_psd_measure(M1, support, rng, n_atoms=int(rng.integers(1, 4)))
        size = int(rng.integers(2, 5))
        coords = rng.choice(range(4), size=size, replace=False)
        basis = [M1.frequency(int(c) - 1) for c in coords]
        t = float(rng.uniform(-10, 10))
        rep_u = unitarity_check(mu, basis, t, tol=1e-9)
        diffs = {a - b for a in basis for b in basis}
        closed = {f for d in diffs for f in (d, -d)} | {M1.zero()}
        restricted = FSMeasure(M1, {f: mu.entries[f] for f in closed})
        rep_i = restricted.is_invariant([t], tol=1e-9)
        assert rep_u.ok == rep_i.ok
        assert abs(rep_u.defect - rep_i.worst) <= 1e-12
    _report(3, "unitarity iff moment invariance", t0, 10.0)


def test_criterion_4_extension_agreement(rng):
    t0 = time.monotonic()
    m2 = FrequencyModule.make(1, "sqrt2")
    worst = 0.0
    for k in range(1000):
        if k % 3 == 0:
            t = float(rng.uniform(-5, 5))
        elif k % 3 == 1:
            t = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 9)))
        else:
            t = PiTimes(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
        c0 = random_hat(rng) if rng.random() < 0.7 else C0Function.zero()
        ap = (
            random_exact_ap(m2, rng, max_terms=3)
            if rng.random() < 0.8
            else APFunction.zero(m2)
        )
        f = ExtendedFunction(c0, ap)
        p = (
            RealPoint(Fraction(float(rng.uniform(-8, 8))))
            if k % 2 == 0
            else random_point(m2, rng)
        )
        rep = extension_agreement_check(t, p, f, tol=1e-10)
        worst = max(worst, rep.residual)
        assert rep.ok
    assert worst <= 1e-10
    # line-branch, pure compactly-supported subcase: exact to 0
    for _ in range(200):
        f = ExtendedFunction(random_hat(rng), APFunction.zero(m2))
        t = float(rng.uniform(-10, 10))
        p = RealPoint(Fraction(float(rng.uniform(-6, 6))))
        assert extension_agreement_check(t, p, f).residual == 0.0
    _report(4, "extension agreement on both branches", t0, 10.0)


def test_criterion_5_r_part_elimination(rng):
    t0 = time.monotonic()
    for _ in range(100):
        r = random_rpart(rng, n_hats=int(rng.integers(1, 4)))
        assert float(r.mass()) > 1e-6
        t = float(rng.uniform(0.1, 10.0))
        rep = r_part_invariance_verdict(r, t)
        assert not rep.invariant
        lo, hi = rep.witness
        tq = Fraction(t)
        diff = abs(r.interval_mass(lo, hi) - r.interval_mass(lo + tq, hi + tq))
        assert float(diff) > 1e-12  # witness re-verified in exact arithmetic
    _report(5, "line-part elimination", t0, 5.0)


def test_criterion_6_kronecker_statistics(rng):
    t0 = time.monotonic()
    m2 = FrequencyModule.make(1, "sqrt2")
    successes = 0
    for _ in range(100):
        psi = BohrPoint(m2, tuple(float(u) for u in rng.random(2)))
        res = kronecker_approx(psi, 0.1, 1e6)
        if res.found:
            # a reported t must actually work: no wrong answers
            assert kronecker_residual(psi, res.t) < 0.1
            assert abs(res.t) <= 1e6
            successes += 1
        else:
            # failures are explicit budget exhaustions
            assert res.t is None
            assert res.points_scanned > 0
    assert successes >= 95
    _report(6, "kronecker approximation, d=2", t0, 30.0)


def test_criterion_7_continuity_modulus(rng):
    t0 = time.monotonic()
    ts = np.linspace(-40.0, 40.0, 10_000)
    hold = 0
    for _ in range(500):
        f = random_exact_ap(M1, rng, max_terms=6, radius=4)
        t, s = (float(x) for x in rng.uniform(-5, 5, 2))
        diff = f.translate(t) - f.translate(s)
        measured = float(np.max(np.abs(diff.eval_grid(ts))))
        if measured <= f.continuity_modulus(t, s) + 1e-12:
            hold += 1
    assert hold == 500  # bound holds in 100% of trials
    _report(7, "strong-continuity modulus bound", t0, 30.0)


def test_criterion_8_standard_space_recovery(tmp_path):
    t0 = time.monotonic()
    support = box_support(M1, 2)
    qm = QMeasure.standard(M1, support)
    rep = q_invariance_verdict(qm, [1])
    assert rep.verdict == "ForcedStandard"
    assert rep.gram_identity_defect == 0.0
    basis = [M1.frequency(k) for k in (0, 1, 2)]
    g = gram_matrix(qm.bohr_part, basis)
    assert np.array_equal(g.matrix, np.eye(3))

    # end to end through the CLI
    measure_json = {
        "r_part": {"breakpoints": [], "values": [], "atoms": []},
        "bohr_part": {
            "module": {
                "generators": [{"symbol": None, "decimal": "1", "rational_scale": [1, 1]}]
            },
            "entries": [
                {"coords": [k], "re": "1" if k == 0 else "0", "im": "0"}
                for k in range(-2, 3)
            ],
        },
    }
    path = tmp_path / "standard.json"
    path.write_text(json.dumps(measure_json))
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab", "check-measure", str(path), "--shifts", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["verdict"] == "ForcedStandard"
    assert out["gram_identity_defect"] <= 1e-10
    _report(8, "standard-space recovery", t0, 30.0)
