import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bohrlab import kernels

NB = kernels.numba_twins()
NP = kernels.numpy_twins()

needs_numba = pytest.mark.skipif(NB is None, reason="numba unavailable")


@needs_numba
def test_int_relation_scan_twins_agree(rng):
    cases = [
        np.array([1.0, 0.5]),
        np.array([1.0, math.sqrt(2.0)]),
        np.array([math.pi, math.pi / 3, 1.0]),
        np.array([1.0, 3.0 / 7.0]),
    ]
    for values in cases:
        out_nb = NB["int_relation_scan"](values, 20, 1e-9)
        out_np = NP["int_relation_scan"](values, 20, 1e-9)
        assert np.array_equal(out_nb, out_np)


def test_int_relation_scan_finds_known_relation():
    out = kernels.int_relation_scan(np.array([1.0, 0.5]), 20, 1e-9)
    assert abs(float(out[0] * 1.0 + out[1] * 0.5)) < 1e-9
    assert np.any(out != 0)


def test_int_relation_scan_independent_pair_clean():
    out = kernels.int_relation_scan(np.array([1.0, math.sqrt(2.0)]), 20, 1e-9)
    assert np.all(out == 0)


@needs_numba
def test_trig_eval_grid_twins_agree(rng):
    freqs = rng.uniform(-4, 4, 6)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    ts = rng.uniform(-20, 20, 512)
    a = NB["trig_eval_grid"](freqs, coeffs, ts)
    b = NP["trig_eval_grid"](freqs, coeffs, ts)
    assert np.max(np.abs(a - b)) < 1e-11


@needs_numba
def test_torus_eval_grid_2d_twins_agree(rng):
    n = 5
    m1 = rng.integers(-3, 4, n).astype(np.float64)
    m2 = rng.integers(-3, 4, n).astype(np.float64)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    a = NB["torus_eval_grid_2d"](m1, m2, coeffs, th, th)
    b = NP["torus_eval_grid_2d"](m1, m2, coeffs, th, th)
    assert np.max(np.abs(a - b)) < 1e-11


def test_env_flag_selects_numpy_path():
    env = dict(os.environ, BOHR_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from bohrlab import kernels; print(kernels.USE_NUMBA)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


def test_flagless_import_reports_active_path():
    assert kernels.int_relation_scan is kernels._ACTIVE["int_relation_scan"]
