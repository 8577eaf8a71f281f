"""Self-checks of the benchmark.  From the root of a bohrlab checkout:

    python3 -m pytest -q perfbench/selftest.py

They take a few minutes: each traced run replays whole cycles.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]
EXACT_COUNTS = (
    "measures.construct.calls",
    "bohr.kronecker.calls",
    "bohr.kronecker.points_scanned",
    "bohr.kronecker.sin_evals",
    "frequencies.module_build.calls",
)


def _digest(workload: str, seed: int, hash_seed: str) -> str:
    code = f"import sys; sys.path.insert(0, {HERE!r}); import run; print(run.input_digest({workload!r}, {seed}, 3))"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, env=env, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    first = _digest(workload, 7, "1")
    assert first == _digest(workload, 7, "2")
    assert first != _digest(workload, 8, "1")


def _traced_counts(workload: str, seed: int, out: str) -> dict:
    subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", "1", "--out", out],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    with open(out, encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload, tmp_path):
    first = _traced_counts(workload, 3, str(tmp_path / "a.json"))
    assert first == _traced_counts(workload, 3, str(tmp_path / "b.json"))
    assert first["frequencies.module_build.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
