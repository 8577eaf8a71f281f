#!/usr/bin/env python3
"""Benchmark the JIT kernels against their pure-numpy twins.

Runs each hot kernel on a representative workload with both
implementations and prints a timing table.  The library itself selects
one path at import time (numba when available, numpy when
BOHR_NO_NUMBA=1); this script always times both.

    python3 benchmarks/bench_kernels.py [--scale 1.0] [--repeat 3]
"""

import argparse
import math
import time

import numpy as np

from bohrlab import kernels


def _time(fn, *args, repeat=3):
    best = math.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def workloads(scale: float):
    rng = np.random.default_rng(7)
    yield (
        "int_relation_scan",
        "no relation, bound 20, d=4 (2.8e6 vectors)",
        (np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.pi]), 20, 1e-9),
    )
    n_grid = int(2_000_000 * scale)
    freqs = rng.uniform(-5, 5, 12)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    yield (
        "trig_eval_grid",
        f"12 terms on {n_grid:.0e} sample times",
        (freqs, coeffs, rng.uniform(-50, 50, n_grid)),
    )
    side = int(700 * math.sqrt(scale))
    th = np.linspace(0, 2 * math.pi, side, endpoint=False)
    m1 = rng.integers(-3, 4, 9).astype(np.float64)
    m2 = rng.integers(-3, 4, 9).astype(np.float64)
    cs = rng.normal(size=9) + 1j * rng.normal(size=9)
    yield (
        "torus_eval_grid_2d",
        f"9 coeffs on a {side}x{side} angle grid",
        (m1, m2, cs, th, th),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0, help="workload size multiplier")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    numba_impls = kernels.numba_twins()
    numpy_impls = kernels.numpy_twins()
    if numba_impls is None:
        print("numba unavailable: timing the numpy path only")

    rows = []
    for name, desc, call_args in workloads(args.scale):
        t_np, out_np = _time(numpy_impls[name], *call_args, repeat=args.repeat)
        if numba_impls is not None:
            numba_impls[name](*call_args)  # JIT warmup outside the clock
            t_nb, out_nb = _time(numba_impls[name], *call_args, repeat=args.repeat)
            _check_agreement(name, out_nb, out_np)
            rows.append((name, desc, t_nb, t_np, t_np / t_nb))
        else:
            rows.append((name, desc, None, t_np, None))

    print()
    print(f"{'kernel':<20} {'workload':<42} {'numba':>9} {'numpy':>9} {'speedup':>8}")
    print("-" * 93)
    for name, desc, t_nb, t_np, ratio in rows:
        nb = f"{t_nb*1e3:8.1f}ms" if t_nb is not None else "      n/a"
        sp = f"{ratio:7.2f}x" if ratio is not None else "     n/a"
        print(f"{name:<20} {desc:<42} {nb} {t_np*1e3:8.1f}ms {sp}")
    active = "numba" if kernels.USE_NUMBA else "numpy"
    print(f"\nactive library path: {active} (set BOHR_NO_NUMBA=1 to force numpy)")


def _check_agreement(name, a, b):
    if not np.allclose(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), atol=1e-9):
        raise SystemExit(f"implementations disagree on {name}")


if __name__ == "__main__":
    main()
