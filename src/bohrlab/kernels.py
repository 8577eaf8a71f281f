"""Hot numeric kernels with numba-accelerated and pure-numpy twins.

The JIT path is used when numba imports cleanly; setting the environment
variable ``BOHR_NO_NUMBA=1`` forces the pure-numpy fallback.  Both paths
scan candidates in the same order, so they return identical hits.

``benchmarks/bench_kernels.py`` times the two implementations against
each other.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("BOHR_NO_NUMBA", "").strip().lower() in ("1", "true", "yes", "on")


# ------------------------------------------------------------------
# loop-form kernels (numba-compilable)
# ------------------------------------------------------------------


def _int_relation_scan_py(values, bound, tol):
    # First nonzero integer vector n with |n_i| <= bound and
    # |sum n_i v_i| < tol, in mixed-radix enumeration order.
    # All-zero result means no relation was found.
    d = values.size
    width = 2 * bound + 1
    total = 1
    for _ in range(d):
        total *= width
    out = np.zeros(d, np.int64)
    for idx in range(total):
        rem = idx
        s = 0.0
        nonzero = False
        for j in range(d):
            c = rem % width - bound
            rem //= width
            out[j] = c
            if c != 0:
                nonzero = True
            s += c * values[j]
        if nonzero and abs(s) < tol:
            return out
    out[:] = 0
    return out


def _trig_eval_grid_py(freq_vals, coeffs, ts):
    # f(t) = sum_k c_k e^{i lambda_k t} on a grid of sample times.
    out = np.zeros(ts.size, np.complex128)
    for i in range(ts.size):
        acc = 0.0 + 0.0j
        for k in range(freq_vals.size):
            ph = freq_vals[k] * ts[i]
            acc += coeffs[k] * complex(np.cos(ph), np.sin(ph))
        out[i] = acc
    return out


def _torus_eval_grid_2d_py(m1, m2, coeffs, th1, th2):
    # rho(a, b) = sum_k c_k e^{i (m1_k th1_a + m2_k th2_b)} on a 2-d angle grid.
    out = np.zeros((th1.size, th2.size), np.complex128)
    for a in range(th1.size):
        for b in range(th2.size):
            acc = 0.0 + 0.0j
            for k in range(m1.size):
                ph = m1[k] * th1[a] + m2[k] * th2[b]
                acc += coeffs[k] * complex(np.cos(ph), np.sin(ph))
            out[a, b] = acc
    return out


_PY_KERNELS = {
    "int_relation_scan": _int_relation_scan_py,
    "trig_eval_grid": _trig_eval_grid_py,
    "torus_eval_grid_2d": _torus_eval_grid_2d_py,
}


# ------------------------------------------------------------------
# vectorized numpy twins
# ------------------------------------------------------------------

def _int_relation_scan_np(values, bound, tol, chunk=1 << 20):
    d = values.size
    width = 2 * bound + 1
    total = width**d
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rem = idx.copy()
        dot = np.zeros(idx.size)
        nonzero = np.zeros(idx.size, dtype=bool)
        coords = np.empty((idx.size, d), np.int64)
        for j in range(d):
            c = rem % width - bound
            rem //= width
            coords[:, j] = c
            nonzero |= c != 0
            dot += c * values[j]
        hits = np.nonzero(nonzero & (np.abs(dot) < tol))[0]
        if hits.size:
            return coords[hits[0]].copy()
    return np.zeros(d, np.int64)


def _trig_eval_grid_np(freq_vals, coeffs, ts):
    return np.exp(1j * np.outer(ts, freq_vals)) @ coeffs


def _torus_eval_grid_2d_np(m1, m2, coeffs, th1, th2):
    e1 = np.exp(1j * np.outer(th1, m1))
    e2 = np.exp(1j * np.outer(m2, th2))
    return (e1 * coeffs) @ e2


_NP_KERNELS = {
    "int_relation_scan": _int_relation_scan_np,
    "trig_eval_grid": _trig_eval_grid_np,
    "torus_eval_grid_2d": _torus_eval_grid_2d_np,
}


# ------------------------------------------------------------------
# path selection
# ------------------------------------------------------------------

USE_NUMBA = False
if not _numba_disabled():
    try:
        from numba import njit

        USE_NUMBA = True
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:
    _ACTIVE = {name: njit(cache=True)(fn) for name, fn in _PY_KERNELS.items()}
    # the 2-d torus grid is a matrix product: BLAS beats the streamed loop
    # by a wide margin, so that kernel stays on numpy under both paths
    _ACTIVE["torus_eval_grid_2d"] = _NP_KERNELS["torus_eval_grid_2d"]
else:
    _ACTIVE = dict(_NP_KERNELS)

int_relation_scan = _ACTIVE["int_relation_scan"]
trig_eval_grid = _ACTIVE["trig_eval_grid"]
torus_eval_grid_2d = _ACTIVE["torus_eval_grid_2d"]


def numpy_twins() -> dict:
    """The pure-numpy implementations, regardless of the active path."""
    return dict(_NP_KERNELS)


def numba_twins() -> dict | None:
    """JIT-compiled implementations, or None when numba is unavailable.

    Compiles on demand so benchmarks can compare both paths even when the
    env flag pinned the library itself to numpy.
    """
    try:
        from numba import njit as _njit
    except ImportError:
        return None
    return {name: _njit(cache=True)(fn) for name, fn in _PY_KERNELS.items()}
