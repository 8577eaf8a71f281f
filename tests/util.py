"""Shared random generators and independent oracles for the test suite."""

from fractions import Fraction

import numpy as np

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    ExactComplex,
    FSMeasure,
    RPart,
)


def random_exact_coeff(rng, den=8, span=16):
    return ExactComplex(
        Fraction(int(rng.integers(-span, span + 1)), den),
        Fraction(int(rng.integers(-span, span + 1)), den),
    )


def random_exact_ap(module, rng, max_terms=4, radius=3):
    """Random trig polynomial with exact rational coefficients."""
    coeffs = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        coords = tuple(int(c) for c in rng.integers(-radius, radius + 1, module.dim))
        coeffs[module.frequency(*coords)] = random_exact_coeff(rng)
    f = APFunction(module, coeffs)
    if not f.coeffs:  # all sampled coefficients were zero
        f = APFunction.character(module, *([1] + [0] * (module.dim - 1)))
    return f


def random_point(module, rng, exact_prob=0.5):
    turns = []
    for _ in range(module.dim):
        if rng.random() < exact_prob:
            turns.append(Fraction(int(rng.integers(0, 16)), 16))
        else:
            turns.append(float(rng.random()))
    return BohrPoint(module, turns)


def random_psd_measure(module, support, rng, n_atoms=3, haar_weight=None):
    """Convex mixture of Dirac moments plus a Haar component: PSD by
    construction."""
    n = max(1, n_atoms)
    raw = [Fraction(int(w), 1) for w in rng.integers(1, 10, n + 1)]
    total = sum(raw)
    weights = [w / total for w in raw]
    parts = [(weights[0], FSMeasure.haar(module, support))]
    for w in weights[1:]:
        parts.append((w, FSMeasure.from_point(module, support, random_point(module, rng))))
    if haar_weight is not None:
        parts[0] = (haar_weight, parts[0][1])
        rest = sum(w for w, _ in parts[1:])
        parts[1:] = [((1 - haar_weight) * w / rest, m) for w, m in parts[1:]]
    return FSMeasure.mixture(parts)


def random_hat(rng, lo=-8, hi=8, den=8):
    a = Fraction(int(rng.integers(lo * den, hi * den)), den)
    w1 = Fraction(int(rng.integers(1, 3 * den)), den)
    w2 = Fraction(int(rng.integers(1, 3 * den)), den)
    peak = Fraction(int(rng.integers(1, 4 * den)), den)
    return C0Function.hat(a, a + w1, a + w1 + w2, peak)


def random_rpart(rng, n_hats=2, target_mass=None):
    dens = C0Function.zero()
    for _ in range(max(1, n_hats)):
        dens = dens + random_hat(rng)
    r = RPart(dens)
    if target_mass is not None:
        scale = Fraction(target_mass) / r.mass()
        dens = dens.scaled(scale)
        r = RPart(dens)
    return r


# ------------------------------------------------------------------
# independent oracles
# ------------------------------------------------------------------


def quad_mean(f, T, n=200_001):
    """Trapezoid quadrature of (1/2T) int_{-T}^{T} f(t) dt, independent of
    the closed-form route."""
    ts = np.linspace(-T, T, n)
    ys = f.eval_grid(ts)
    return complex(np.trapezoid(ys, ts) / (2.0 * T))


def brute_kronecker(gen_values, target_angles, eps, t_lo, t_hi, step, chunk=1 << 16):
    """Plain scan oracle for the simultaneous approximation problem: the
    first grid point t_lo + j*step <= t_hi whose worst chord distance
    max_k |e^{i g_k t} - e^{i theta_k}| is below eps, or None.  The grid is
    scanned in order, a chunk of points at a time; within a chunk, the
    points still in play are tested one coordinate after another."""
    n_points = int((t_hi - t_lo) // step) + 1
    for start in range(0, n_points, chunk):
        t = t_lo + step * np.arange(start, min(start + chunk, n_points))
        for g, th in zip(gen_values, target_angles):
            t = t[2.0 * np.abs(np.sin(0.5 * (g * t - th))) < eps]
        if t.size:
            return float(t[0])
    return None
