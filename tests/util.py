"""Shared random generators and independent oracles for the test suite."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from bohrlab import (
    APFunction,
    BohrPoint,
    C0Function,
    ExactComplex,
    FSMeasure,
    RPart,
)
from bohrlab.scalars import (
    PI_KEY,
    RATIONAL_KEY,
    PiTimes,
    SymbolicReal,
    as_fraction,
    phase_from_turn,
    symbol_kind,
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


# ------------------------------------------------------------------
# per-frequency phase oracle: lambda*t built as one SymbolicReal per
# frequency and shift, the way the library computed every phase before
# its turn tables
# ------------------------------------------------------------------


def reference_symbolic(freq):
    acc = SymbolicReal.zero()
    for c, g in zip(freq.coords, freq.module.generators):
        if c:
            acc = acc + g.symbolic.scaled(Fraction(c))
    return acc


def _reference_sym_product(a, b):
    def pure_rational(s):
        if all(k == RATIONAL_KEY for k in s.terms):
            return s.terms.get(RATIONAL_KEY, Fraction(0))
        return None

    qa, qb = pure_rational(a), pure_rational(b)
    if qa is not None:
        return b.scaled(qa)
    if qb is not None:
        return a.scaled(qb)
    if set(b.terms) == {PI_KEY}:
        return a.scaled(b.terms[PI_KEY]).times_pi()
    if set(a.terms) == {PI_KEY}:
        return b.scaled(a.terms[PI_KEY]).times_pi()
    if set(a.terms) == set(b.terms) and len(a.terms) == 1:
        tag = next(iter(a.terms))
        if tag.startswith("sqrt") and tag[4:].isdigit():
            n = int(tag[4:])
            return SymbolicReal.rational(a.terms[tag] * b.terms[tag] * n)
    tag = "?(" + "|".join(sorted(a.terms)) + ")x(" + "|".join(sorted(b.terms)) + ")"
    return SymbolicReal({tag: Fraction(1)}, a.approx * b.approx)


def reference_product(freq, t):
    """lambda*t as one SymbolicReal; products outside the exactly
    decidable class degrade to an opaque tag with the numeric value."""
    sym = reference_symbolic(freq)
    if isinstance(t, PiTimes):
        return sym.scaled(t.factor).times_pi()
    if isinstance(t, SymbolicReal):
        return _reference_sym_product(sym, t)
    return sym.scaled(as_fraction(t))


def reference_turn(freq, t, folded=False):
    x = reference_product(freq, t)
    if all(k == PI_KEY for k in x.terms):
        u = (x.terms.get(PI_KEY, Fraction(0)) / 2) % 1
        return u - 1 if folded and u > Fraction(1, 2) else u
    u = (x.approx / (2 * mp.pi)) % 1
    if folded and u > mp.mpf("0.5"):
        u -= 1
    return float(u)


def reference_chord(freq, t):
    turn = reference_turn(freq, t, folded=True)
    if isinstance(turn, Fraction):
        if turn == 0:
            return 0.0
        turn = float(turn)
    return 2.0 * abs(math.sin(math.pi * turn))


def reference_phase(freq, t):
    return phase_from_turn(reference_turn(freq, t, folded=True))


def reference_exact(x):
    """Whether a symbolic value is exactly decidable: no opaque term."""
    return all(symbol_kind(k) != "opaque" for k in x.terms)


def reference_in_two_pi_z(freq, t, tol=1e-12):
    """Exact when every term is rational, a rational multiple of pi or of
    a squarefree square root; otherwise the distance of value/(2*pi) to the
    nearest integer against ``tol``."""
    x = reference_product(freq, t)
    if reference_exact(x):
        return all(k == PI_KEY and (v / 2).denominator == 1 for k, v in x.terms.items())
    u = x.approx / (2 * mp.pi)
    return abs(u - mp.nint(u)) < tol
