#!/usr/bin/env python3
"""Benchmark for bohrlab: one workload per run, end to end or traced.

Run from the root of a bohrlab checkout (the directory holding ``src/``
and ``BENCHMARK.json``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --suite OUT.json [--runs 10] [--first-seed 1] [--seconds S] [--workloads A,B]
    python3 perfbench/run.py --compare OLD.json [NEW.json]

A single run prints a record line (machine, configuration, per-op
details) and, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  ``--suite`` runs
every workload ``--runs`` times, one seed each from ``--first-seed`` on,
and stores the raw values; ``--compare`` prints medians and quartiles of
two suites per workload and metric (running the new suite first, with
the old one's seeds and run length, when NEW is omitted).
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()  # the runner's start; setup_s counts from here

# Pin BLAS and OpenMP pools before numpy loads: every op runs on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_SAMPLES = 3  # this run's own setup plus two in fresh processes
HASH_BATCHES = 15


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found: run from the root of a bohrlab checkout")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bohrlab", "__init__.py")):
        die("src/bohrlab not found: run from the root of a bohrlab checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    return workloads


# ------------------------------------------------------------------
# machine and configuration record
# ------------------------------------------------------------------


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int | None) -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy": importlib.util.find_spec("gmpy2") is not None,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "BOHR_PRECISION": os.environ.get("BOHR_PRECISION"),
        "mp_dps": mpmath.mp.dps,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------
# one run
# ------------------------------------------------------------------


class Inputs:
    """Op inputs by cycle, generated from (workload, seed, cycle) alone."""

    def __init__(self, wl, seed: int):
        import numpy as np

        self.wl, self.seed, self._np = wl, seed, np
        self._cycles: dict[int, list] = {}

    def rng(self, cycle: int, salt: int = 0):
        return self._np.random.default_rng([self.wl.stream, self.seed, cycle, salt])

    def cycle(self, c: int) -> list[dict]:
        if self.wl.repeat_cycle:
            c = 0
        if c not in self._cycles:
            self._cycles[c] = self.wl.cycle_inputs(self.rng(c))
        return self._cycles[c]

    def warmup_rng(self):
        return self.rng(0, salt=1)


def input_digest(workload: str, seed: int, cycles: int) -> str:
    """sha256 of the canonical JSON of the first ``cycles`` cycles of inputs."""
    import hashlib

    global WL
    WL = WL or import_program()
    inputs = Inputs(WL.WORKLOADS[workload], seed)
    blob = json.dumps([inputs.cycle(c) for c in range(cycles)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class Phase:
    """Outcomes and latencies of the ops of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds; inf for a failed op
        self.ok = self.failed = self.decided = self.known = 0
        self.notes: dict[str, int] = {}
        self.by_kind: dict[str, list] = {}  # op kind -> latencies of passing ops
        self.wall = 0.0
        self.cycles = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def absorb(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.ok += other.ok
        self.failed += other.failed
        self.decided += other.decided
        self.known += other.known
        for k, v in other.notes.items():
            self.notes[k] = self.notes.get(k, 0) + v
        for k, v in other.by_kind.items():
            self.by_kind.setdefault(k, []).extend(v)
        self.wall += other.wall
        self.cycles += other.cycles


def run_phase(wl, state, inputs: Inputs, tr, first: int, cycles: int) -> Phase:
    ph = Phase()
    limit = wl.op_limit_s
    t_start = time.perf_counter()
    for c in range(first, first + cycles):
        for i, inp in enumerate(inputs.cycle(c)):
            tr.op = f"{c}.{i}"
            t0 = time.perf_counter()
            try:
                if wl.in_process:
                    with WL.time_limit(limit):
                        out = wl.run_op(state, inp, tr)
                else:
                    out = wl.run_op(state, inp, tr)
            except WL.OpTimeout:
                out = WL.Outcome(False, False, f"over its {limit} s limit")
            except Exception as exc:  # a crash in the program is a failed op
                out = WL.Outcome(False, False, f"crash: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            ph.latencies.append(dt if out.ok else math.inf)
            if out.ok:
                ph.by_kind.setdefault(inp.get("name", inp.get("kind", "op")), []).append(dt)
            ph.ok += out.ok
            ph.decided += out.decided
            if not out.ok:
                ph.failed += 1
                ph.known += out.known_defect
                key = f"{inp.get('name', inp.get('kind', ''))}: {out.note}"
                ph.notes[key] = ph.notes.get(key, 0) + 1
    ph.cycles = cycles
    ph.wall = time.perf_counter() - t_start
    return ph


def nominal_cycles(wl, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` at the baseline speed.  A run
    measures exactly this many, so its op count is fixed for a workload."""
    return max(1, round(seconds / wl.nominal_cycle_s))


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it at the
    run's fixed op count (never below the median)."""
    if n_ops <= 20:
        return 50
    return max(50, math.floor(100 * (n_ops - 10) / n_ops))


def nearest_rank(sorted_vals: list[float], q: float) -> tuple[float, int]:
    rank = max(1, math.ceil(q / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], rank


def e2e_metrics(wl, ph: Phase, setup: list[float], rss_mb: float):
    srt = sorted(ph.latencies)
    q = tail_percentile(len(srt))
    tail, rank = nearest_rank(srt, q)
    p50 = statistics.median(srt)
    capped = []
    if math.isinf(p50):
        p50, capped = wl.op_limit_s, capped + ["op_p50_ms"]
    if math.isinf(tail):
        tail, capped = wl.op_limit_s, capped + ["op_tail_ms"]
    n = ph.attempted
    metrics = {
        "ops_per_s": ph.ok / ph.wall,
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail,
        # add-one estimate: never 0, so a bound relative to it is defined
        "op_fail_share": (ph.failed + 1) / (n + 1),
        "decided_share": ph.decided / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    details = {
        "tail_percentile": q,
        "tail_samples": n,
        "tail_beyond": n - rank,
        "capped_at_limit": capped,
        "raw_fail_share": ph.failed / n,
        "setup_samples_s": setup,
    }
    return metrics, details


def setup_in_fresh_process(workload: str, seed: int, seconds: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        die(f"setup in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def freq_microbench(pool) -> tuple[float, float]:
    """Median per-call microseconds of hash() and of '-' on fresh Frequency
    objects, which cache nothing between calls."""
    from bohrlab import Frequency

    pool = (pool * (200 // len(pool) + 1))[:200]
    hashes, subs = [], []
    for _ in range(HASH_BATCHES):
        fs = [Frequency(m, c) for m, c in pool]
        t0 = time.perf_counter()
        for f in fs:
            hash(f)
        hashes.append((time.perf_counter() - t0) / len(fs))
        fs = [Frequency(m, c) for m, c in pool]
        gs = [Frequency(m, c) for m, c in reversed(pool)]
        pairs = [(a, b) for a, b in zip(fs, gs) if a.module is b.module]
        t0 = time.perf_counter()
        for a, b in pairs:
            a - b
        subs.append((time.perf_counter() - t0) / len(pairs))
    return 1e6 * statistics.median(hashes), 1e6 * statistics.median(subs)


def layer_metrics(tr, extras: dict, traced: Phase, untraced: Phase, hash_us, sub_us) -> dict:
    totals = tr.layer_totals()

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def busy(name):
        return totals.get(name, {}).get("busy_s", 0.0)

    cnt = tr.counts
    new = tr.samples.get("measures.new_support", [])
    completed = cnt.get("bohr.kronecker.completed", 0)
    out = {
        "measures.construct.calls": calls("measures.construct"),
        "measures.construct.busy_s": busy("measures.construct"),
        "measures.invariance.busy_s": busy("measures.invariance"),
        "measures.verdict.busy_s": busy("measures.verdict"),
        "measures.support_size_p50": tr.median("measures.support_size"),
        "measures.new_support_share": sum(new) / len(new) if new else 0.0,
        "frequencies.hash_us": hash_us,
        "frequencies.sub_us": sub_us,
        "frequencies.module_build.calls": calls("frequencies.module_build"),
        "frequencies.module_build.busy_s": busy("frequencies.module_build"),
        "bohr.kronecker.calls": calls("bohr.kronecker"),
        "bohr.kronecker.busy_s": busy("bohr.kronecker"),
        "bohr.kronecker.points_scanned": cnt.get("bohr.kronecker.points_scanned", 0),
        "bohr.kronecker.sin_evals": cnt.get("bohr.kronecker.sin_evals", 0),
        "bohr.kronecker.points_per_s": (
            cnt["bohr.kronecker.points_scanned"] / cnt["bohr.kronecker.completed_s"] if completed else 0.0
        ),
        "bohr.kronecker.found_share": cnt.get("bohr.kronecker.found", 0) / completed if completed else 0.0,
        "hilbert.gram.busy_s": busy("hilbert.gram"),
        "hilbert.unitarity.busy_s": busy("hilbert.unitarity"),
        "fleischhack.extension_battery.busy_s": busy("fleischhack.extension_battery"),
        "fleischhack.q_verdict.busy_s": busy("fleischhack.q_verdict"),
        "jsonio.load.busy_s": busy("jsonio.load"),
        "parser.lower.busy_s": busy("parser.lower"),
        "cli.process_start_ms": 0.0,
        "cli.import_ms": 0.0,
        "cli.handler_ms": 0.0,
        "trace.overhead_share": (untraced.ok / untraced.wall) / (traced.ok / traced.wall) - 1.0
        if traced.ok and untraced.ok else 0.0,
    }
    out.update(extras)
    return out


def single(args) -> None:
    spec = load_spec()
    global WL
    WL = import_program()
    if args.workload not in WL.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WL.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    wl = WL.WORKLOADS[args.workload]
    tr = tracing.Tracer() if args.trace else tracing.NULL
    work = os.path.join(HERE, ".work")
    workdir = os.path.join(work, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _single(args, spec, wl, tr, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _single(args, spec, wl, tr, workdir) -> None:
    # -- setup: modules, supports, inputs, files, warm-up ----------------------
    tr.op = "setup"
    state = wl.setup(tr, workdir)
    inputs = Inputs(wl, args.seed)
    n_cycles = nominal_cycles(wl, args.seconds)
    half = max(1, round(n_cycles / 2))  # a traced run's phases
    for c in range(2 * half if args.trace else n_cycles):
        inputs.cycle(c)
    wl.prepare(state, inputs.cycle(0))
    wl.warmup(state, inputs.warmup_rng())
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "closed_loop": "one client, one thread; an op starts when the previous one ends",
    }
    if not args.trace:
        ph = run_phase(wl, state, inputs, tracing.NULL, 0, n_cycles)
        if wl.in_process:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            rss_mb = state["maxrss_kb"] / 1024
        setup = [setup_s] + [
            setup_in_fresh_process(wl.name, args.seed, args.seconds) for _ in range(SETUP_SAMPLES - 1)
        ]
        values, details = e2e_metrics(wl, ph, setup, rss_mb)
        names = spec["end_to_end"]
    else:
        traced = run_phase(wl, state, inputs, tr, 0, half)
        untraced = run_phase(wl, state, inputs, tracing.NULL, half, half)
        extras = wl.trace_extras(state, inputs.cycle(0), tr)
        hash_us, sub_us = freq_microbench(wl.freq_pool(state))
        values = layer_metrics(tr, extras, traced, untraced, hash_us, sub_us)
        spans_path = os.path.join(HERE, ".work", f"spans-{wl.name}-seed{args.seed}.json")
        tr.write(spans_path)
        details = {"cycles_each_phase": half, "spans_file": os.path.relpath(spans_path, ROOT),
                   "traced_wall_s": traced.wall, "untraced_wall_s": untraced.wall}
        ph = Phase()
        ph.absorb(traced)
        ph.absorb(untraced)
        names = spec["per_layer"]

    metrics = {}
    for m in names:
        if m["name"] not in values:
            die(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record.update(details)
    record.update({
        "cycles": ph.cycles,
        "wall_s": ph.wall,
        "failures": ph.notes,
        "known_defect_failures": ph.known,
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(ph.by_kind.items())},
    })
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    # correct: every failed op is a defect recorded at the baseline commit
    print(json.dumps({
        "correct": ph.failed == ph.known,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": metrics,
    }))


# ------------------------------------------------------------------
# suites and comparison
# ------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def suite(args) -> None:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"seconds": seconds, "seeds": seeds, "machine": None, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                die(f"{name} seed {seed} failed: {proc.stderr.strip()[-500:]}")
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            out["machine"] = out["machine"] or record["machine"]
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "tail_percentile": record["tail_percentile"]})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        out["workloads"][name] = runs
    with open(args.suite, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print_summary(spec, out)


def print_summary(spec, data) -> None:
    print(f"{'workload':24} {'metric':15} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for name, runs in data["workloads"].items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs]
            q1, q2, q3 = quartiles(vals)
            print(f"{name:24} {m['name']:15} {q2:11.5g} {q1:11.5g} {q3:11.5g} {spread(vals):7.3f} {m['bound']:6.2f}")


def compare(args) -> None:
    spec = load_spec()
    with open(args.compare[0], encoding="utf-8") as fh:
        old = json.load(fh)
    if len(args.compare) > 1:
        with open(args.compare[1], encoding="utf-8") as fh:
            new = json.load(fh)
    else:
        args.suite = os.path.join(HERE, ".work", "compare-new.json")
        args.seconds, args.runs, args.first_seed = old["seconds"], len(old["seeds"]), old["seeds"][0]
        args.workloads = ",".join(old["workloads"])
        os.makedirs(os.path.dirname(args.suite), exist_ok=True)
        suite(args)
        with open(args.suite, encoding="utf-8") as fh:
            new = json.load(fh)
    print(f"{'workload':24} {'metric':15} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
    for name in old["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:24} missing from the new suite")
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in old["workloads"][name]]
            b = [r["metrics"][m["name"]] for r in new["workloads"][name]]
            print(f"{name:24} {m['name']:15} {fmt_q(a):>34} {fmt_q(b):>34}  {verdict(a, b, m)}")


def fmt_q(vals: list[float]) -> str:
    q1, q2, q3 = quartiles(vals)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(old: list[float], new: list[float], metric: dict) -> str:
    """'better' when every new run beats every old one by more than the old
    quartile distance, 'unresolved' when either side's spread is wider than
    the bound, 'worse' or 'better' past the bound, else 'same'."""
    lower = metric["better"] == "lower"
    m_old, m_new = statistics.median(old), statistics.median(new)
    worse_by = (m_new - m_old) / m_old if lower else (m_old - m_new) / m_old
    q1, _, q3 = quartiles(old)
    all_better = max(new) < min(old) if lower else min(new) > max(old)
    if all_better and abs(m_new - m_old) > q3 - q1:
        return "better"
    if max(spread(old), spread(new)) > metric["bound"]:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "better" if worse_by < -metric["bound"] else "same"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the run's record and metrics to this file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--suite", metavar="OUT.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--compare", nargs="+", metavar="FILE")
    args = ap.parse_args()
    if args.compare:
        compare(args)
    elif args.suite:
        suite(args)
    elif args.workload:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        single(args)
    else:
        ap.error("give --workload, --suite or --compare")


WL = None  # the workloads module, imported once src/ is on the path

if __name__ == "__main__":
    main()
