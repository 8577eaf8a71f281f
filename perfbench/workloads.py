"""The four benchmark workloads.

Each workload generates its op inputs from the seed as plain JSON data,
runs one op through bohrlab's public API and checks the op's output with
an oracle of its own.  An op's inputs come from ``cycle_inputs``: one
cycle is a fixed mix of op kinds, and a run measures whole cycles, so
every run sees the mix in the same proportions.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bohrlab import (
    BohrPoint,
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    box_support,
    cli,
    cross_support,
    extension_battery,
    gram_matrix,
    kronecker_approx,
    kronecker_residual,
    lower_expression,
    parse_expression,
    parse_scalar_literal,
    q_invariance_verdict,
    unitarity_check,
    uniqueness_verdict,
)
from bohrlab.jsonio import (
    extended_to_json,
    fsmeasure_from_json,
    matrix_to_json,
    module_to_json,
    qmeasure_from_json,
)
from bohrlab.parser import build_module, collect_freq_literals, parse_generator_literal
from tracing import NULL


@dataclass
class Outcome:
    ok: bool
    decided: bool
    note: str = ""
    known_defect: bool = False


class OpTimeout(BaseException):
    """An op ran past its wall-clock limit.  A BaseException, so that the
    CLI's own ``except Exception`` cannot swallow it."""


def _raise_timeout(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds: float):
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ------------------------------------------------------------------
# input encoding: exact values travel as strings, floats as numbers
# ------------------------------------------------------------------


def _turn(rng) -> str | float:
    if rng.random() < 0.5:
        return f"{int(rng.integers(0, 16))}/16"
    return float(rng.random())


def _real(x):
    return Fraction(x) if isinstance(x, str) else float(x)


def _weights(rng, n: int) -> list[str]:
    raw = [int(w) for w in rng.integers(1, 10, n)]
    return [str(Fraction(w, sum(raw))) for w in raw]


def _rational(rng, hi: int = 9) -> Fraction:
    return Fraction(int(rng.choice([-1, 1])) * int(rng.integers(1, hi + 1)), int(rng.integers(1, hi + 1)))


def _shift(spec):
    kind, value = spec
    return PiTimes(Fraction(value)) if kind == "pi" else Fraction(value)


def _mixture(tr, module, support, weights, points):
    """Haar plus Dirac moments mixed with the given weights; every FSMeasure
    built here is one ``measures.construct`` span."""
    weights = [Fraction(w) for w in weights]
    with tr.span("measures.construct"):
        parts = [(weights[0], FSMeasure.haar(module, support))]
    for w, turns in zip(weights[1:], points):
        psi = BohrPoint(module, [_real(t) for t in turns])
        with tr.span("measures.construct"):
            parts.append((w, FSMeasure.from_point(module, support, psi)))
    with tr.span("measures.construct"):
        return FSMeasure.mixture(parts)


def _note_support(tr, state, module, support) -> None:
    key = (module.dim, tuple(f.coords for f in support))
    tr.sample("measures.support_size", len(support))
    tr.sample("measures.new_support", 0 if key in state["seen"] else 1)
    state["seen"].add(key)


def _module(tr, *specs) -> FrequencyModule:
    with tr.span("frequencies.module_build"):
        return FrequencyModule.make(*specs)


def _box_coords(d: int, radius: int) -> list[tuple[int, ...]]:
    coords = [()]
    for _ in range(d):
        coords = [c + (k,) for c in coords for k in range(-radius, radius + 1)]
    return sorted(coords)


class Workload:
    name = ""
    stream = 0  # keeps the input streams of different workloads apart
    in_process = True  # False: the op enforces its own time limit
    repeat_cycle = False  # True: every cycle replays cycle 0's inputs
    op_limit_s = 60.0  # an op still running after this fails
    nominal_cycle_s = 1.0  # one cycle's wall time at the baseline commit

    def setup(self, tr, workdir: str) -> dict:
        raise NotImplementedError

    def cycle_inputs(self, rng) -> list[dict]:
        raise NotImplementedError

    def prepare(self, state: dict, inputs: list[dict]) -> None:
        """Write whatever files the inputs of cycle 0 refer to."""

    def warmup(self, state: dict, rng) -> None:
        """Fill lazy state before timing: one cycle from a separate stream."""
        for inp in self.cycle_inputs(rng):
            self.run_op(state, inp, NULL)

    def run_op(self, state: dict, inp: dict, tr) -> Outcome:
        raise NotImplementedError

    def freq_pool(self, state: dict) -> list[tuple]:
        """(module, coords) pairs from the workload's own supports."""
        raise NotImplementedError

    def trace_extras(self, state: dict, inputs: list[dict], tr) -> dict:
        """Per-layer metrics that only a traced run measures, beyond spans."""
        return {}


# ------------------------------------------------------------------
# moments_fixed_support
# ------------------------------------------------------------------


class MomentsFixedSupport(Workload):
    """FSMeasure construction (Gram blocks, PSD) does nearly all the work, on
    three supports that repeat all run: a per-support cache's best case."""

    name = "moments_fixed_support"
    stream = 1
    nominal_cycle_s = 0.31

    def setup(self, tr, workdir):
        m1 = _module(tr, 1)
        m2 = _module(tr, 1, "sqrt2")
        m3 = _module(tr, 1, "sqrt2", "sqrt3")
        with tr.span("measures.support"):
            supports = [
                (m1, box_support(m1, 6)),
                (m2, box_support(m2, 2)),
                (m3, cross_support(m3, 2)),
            ]
        return {"supports": supports, "seen": set()}

    def cycle_inputs(self, rng):
        ops = []
        for n_points in (1, 2, 3):
            for k in range(3):
                shifts = [["q", str(_rational(rng))]]
                if rng.random() < 0.5:
                    shifts.insert(0, ["pi", f"{int(rng.integers(1, 8))}/4"])
                ops.append(
                    {
                        "kind": ("d1 box", "d2 box", "d3 cross")[k],
                        "support": k,
                        "weights": _weights(rng, n_points + 1),
                        "points": [[_turn(rng) for _ in range(k + 1)] for _ in range(n_points)],
                        "shifts": shifts,
                    }
                )
        return ops

    def run_op(self, state, inp, tr):
        module, support = state["supports"][inp["support"]]
        if tr.on:
            _note_support(tr, state, module, support)
        shifts = [_shift(s) for s in inp["shifts"]]
        mu = _mixture(tr, module, support, inp["weights"], inp["points"])
        with tr.span("measures.construct"):
            proj = mu.project_to_invariant(shifts)
        with tr.span("measures.invariance"):
            inv = proj.is_invariant(shifts)
        with tr.span("measures.verdict"):
            verdict = uniqueness_verdict(module, support, shifts)
        # distance to the Haar moments delta_{lambda,0}
        dist = max(abs(complex(v) - (0 if any(f.coords) else 1)) for f, v in proj.entries.items())
        if verdict.verdict != "ForcedHaar" or verdict.surviving:
            return Outcome(False, True, f"verdict {verdict.verdict}")
        if not inv.ok:
            return Outcome(False, True, f"projection not invariant (worst {inv.worst:.3e})")
        if dist > 1e-10 or len(proj.entries) != len(support):
            return Outcome(False, True, f"projection is {dist:.3e} from Haar")
        return Outcome(True, True)

    def freq_pool(self, state):
        return [(m, f.coords) for m, s in state["supports"] for f in s]


# ------------------------------------------------------------------
# moments_fresh_support
# ------------------------------------------------------------------


class MomentsFreshSupport(Workload):
    """The same moment layer, but nearly every support is new, so a
    per-support cache pays its build and gets no reuse.  The only workload
    that drives hilbert."""

    name = "moments_fresh_support"
    stream = 2
    nominal_cycle_s = 0.14
    BOX = _box_coords(2, 2)

    def setup(self, tr, workdir):
        return {"module": _module(tr, 1, "sqrt2"), "seen": set()}

    def cycle_inputs(self, rng):
        ops = []
        for k in (2, 3, 4, 5, 6):
            n_points = int(rng.integers(1, 4))
            basis = sorted(self.BOX[int(i)] for i in rng.choice(len(self.BOX), size=k, replace=False))
            ops.append(
                {
                    "kind": f"basis{k}",
                    "basis": [list(c) for c in basis],
                    "weights": _weights(rng, n_points + 1),
                    "points": [[_turn(rng), _turn(rng)] for _ in range(n_points)],
                    "shift": float(rng.uniform(0.05, 3.0)),
                }
            )
        return ops

    def run_op(self, state, inp, tr):
        module = state["module"]
        basis = [module.frequency(*c) for c in inp["basis"]]
        diffs = sorted({(a[0] - b[0], a[1] - b[1]) for a in inp["basis"] for b in inp["basis"]})
        support = tuple(module.frequency(*c) for c in diffs)
        if tr.on:
            _note_support(tr, state, module, support)
        mu = _mixture(tr, module, support, inp["weights"], inp["points"])
        t = inp["shift"]
        with tr.span("hilbert.gram"):
            gram = gram_matrix(mu, basis)
        with tr.span("hilbert.unitarity"):
            rep = unitarity_check(mu, basis, t)
        with tr.span("measures.invariance"):
            inv = mu.is_invariant([t])
        if float(np.max(np.abs(np.diag(gram.matrix) - 1.0))) > 1e-12:
            return Outcome(False, True, "gram diagonal is not 1")
        if rep.ok != inv.ok:
            return Outcome(False, True, f"unitary={rep.ok} but invariant={inv.ok}")
        if abs(rep.defect - inv.worst) > 1e-12:
            return Outcome(False, True, f"defects differ: {rep.defect!r} vs {inv.worst!r}")
        return Outcome(True, True)

    def freq_pool(self, state):
        return [(state["module"], c) for c in _box_coords(2, 4)]


# ------------------------------------------------------------------
# kronecker_search
# ------------------------------------------------------------------


def _kronecker(tr, psi, eps, t_max):
    with tr.span("bohr.kronecker"):
        t0 = time.perf_counter()
        res = kronecker_approx(psi, eps, t_max)
        elapsed = time.perf_counter() - t0
    tr.count("bohr.kronecker.completed_s", elapsed)
    tr.count("bohr.kronecker.completed", 1)
    tr.count("bohr.kronecker.points_scanned", res.points_scanned)
    tr.count("bohr.kronecker.sin_evals", res.points_scanned * psi.module.dim)
    tr.count("bohr.kronecker.found", 1 if res.found else 0)
    return res


def _forward_hits(gens: np.ndarray, eps: float, turns: np.ndarray, n_points: int) -> np.ndarray:
    """For each target (a row of ``turns``), the index k < n_points of the
    first point t_k = jitter + k * step at which kronecker_approx's forward
    grid scan meets it, or n_points if none does.  It repeats the scan's
    grid and gap test, but tests each scan point only against the targets
    near it: targets are bucketed in cells at least one hit box wide, so a
    point's box reaches at most two cells per axis."""
    d = gens.size
    step = eps / (2.0 * float(np.max(np.abs(gens))))
    jitter = (math.sqrt(5.0) - 1.0) / 2.0 * step
    half_width = math.asin(eps / 2.0) / math.pi  # of the hit box, in turns
    m = int(1.0 / (2.0 * half_width))  # cells per axis
    angles = 2.0 * math.pi * turns
    cell = sum((turns[:, j] * m).astype(np.int64) % m * m**j for j in range(d))
    by_cell = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=m**d)
    starts = np.cumsum(counts) - counts
    first = np.full(len(turns), n_points)
    chunk = 1 << 18
    for done in range(0, n_points, chunk):
        k = np.arange(done, min(done + chunk, n_points))
        t = jitter + k * step
        # per axis, the two cells the point's box may reach, weighted by m**j
        lo = [np.floor((t * (g / (2.0 * math.pi)) % 1.0 - half_width) * m).astype(np.int64) for g in gens]
        ends = [((a % m) * m**j, ((a + 1) % m) * m**j) for j, a in enumerate(lo)]
        for corner in itertools.product((0, 1), repeat=d):
            cells = sum(ends[j][c] for j, c in enumerate(corner))
            n_near = counts[cells]
            near = np.flatnonzero(n_near)
            for r in range(int(n_near.max(initial=0))):
                near = near[n_near[near] > r]
                target = by_cell[starts[cells[near]] + r]
                gaps = (2.0 * np.abs(np.sin(0.5 * (t[near, None] * gens - angles[target])))).max(axis=1)
                hit = gaps < eps
                np.minimum.at(first, target[hit], k[near][hit])
    return first


def _stratified_turns(rng, n: int, gens: np.ndarray, eps: float, n_points: int) -> np.ndarray:
    """n uniform targets in [0,1)^d, stratified by how far the forward scan
    runs before it meets them: draw pool * n targets, sort them by that
    distance (targets it does not meet within n_points come last, in draw
    order), and take one at random from each of n equal slices, in random
    order.  Each slice holds 1/n of the uniform law, so the run still sees
    uniform targets, but its mix of easy and hard ones, and with it the
    tail latency, no longer swings with the few hardest draws."""
    pool = 20
    cand = rng.random((pool * n, gens.size))
    order = np.argsort(_forward_hits(gens, eps, cand, n_points), kind="stable")
    picks = order.reshape(n, pool)[np.arange(n), rng.integers(0, pool, n)]
    return cand[picks[rng.permutation(n)]]


class KroneckerSearch(Workload):
    """The grid scan in bohr/kernels does all the work and measures none: a
    moment-layer change predicts no change here, a lattice solver a gain."""

    name = "kronecker_search"
    stream = 3
    nominal_cycle_s = 14.0
    # kind: (d, eps, t_max)
    KINDS = {
        "d2": (2, 0.01, 1e6),
        "d3": (3, 0.05, 1e6),
        "d4": (4, 0.1, 1e6),
        "d4_budget": (4, 0.05, 1e5),
    }
    # One cycle: 375 d2 and 375 d3 alternating, 4 d4 and one d4_budget.
    # The d4 kinds stay few: each is slow and its time varies widely with
    # the target, so with many of them the tail percentile would rest on a
    # handful of targets; with few, it falls among the many d3 searches.
    D4_AT = (150, 300, 450, 600)
    BUDGET_AT = 375
    # The d=2 and d=3 targets are stratified by search length
    # (_stratified_turns), read off the forward scan's first points: all
    # d=2 searches end within 500,000, and 2,000,000 cover about 99.7% of
    # the d=3 ones.  GENS are the float generators of the d=2 and d=3
    # modules: inputs are made without building the modules.
    STRATA_POINTS = {"d2": 500_000, "d3": 2_000_000}
    GENS = {2: np.array([1.0, math.sqrt(2.0)]), 3: np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])}

    def cycle_kinds(self) -> list[str]:
        kinds = ["d2" if i % 2 == 0 else "d3" for i in range(750)]
        for at in sorted(self.D4_AT + (self.BUDGET_AT,), reverse=True):
            kinds.insert(at, "d4_budget" if at == self.BUDGET_AT else "d4")
        return kinds

    def setup(self, tr, workdir):
        return {
            "modules": {
                2: _module(tr, 1, "sqrt2"),
                3: _module(tr, 1, "sqrt2", "sqrt3"),
                4: _module(tr, 1, "sqrt2", "sqrt3", "pi"),
            }
        }

    def cycle_inputs(self, rng):
        kinds = self.cycle_kinds()
        targets = {}
        for kind, (d, eps, _) in self.KINDS.items():
            n = kinds.count(kind)
            if kind in self.STRATA_POINTS:
                turns = _stratified_turns(rng, n, self.GENS[d], eps, self.STRATA_POINTS[kind])
            else:
                turns = rng.random((n, d))
            targets[kind] = iter(turns)
        ops = []
        for kind in kinds:
            _, eps, t_max = self.KINDS[kind]
            ops.append(
                {
                    "kind": kind,
                    "eps": eps,
                    "t_max": t_max,
                    "turns": [float(x) for x in next(targets[kind])],
                }
            )
        return ops

    def warmup(self, state, rng):
        psi = BohrPoint(state["modules"][2], [float(x) for x in rng.random(2)])
        _kronecker(NULL, psi, 0.05, 1e6)

    def run_op(self, state, inp, tr):
        psi = BohrPoint(state["modules"][len(inp["turns"])], inp["turns"])
        eps, t_max = inp["eps"], inp["t_max"]
        res = _kronecker(tr, psi, eps, t_max)
        if not res.found:
            if res.t is not None:
                return Outcome(False, False, "miss carries a t")
            return Outcome(True, False)
        if res.t is None or abs(res.t) > t_max:
            return Outcome(False, True, f"hit t={res.t!r} outside [-t_max, t_max]")
        gap = kronecker_residual(psi, res.t)
        if not gap < eps:
            return Outcome(False, True, f"hit residual {gap:.3e} >= eps {eps}")
        return Outcome(True, True)

    def freq_pool(self, state):
        return [(m, c) for d, m in state["modules"].items() for c in _box_coords(d, 1)]


# ------------------------------------------------------------------
# cli_session
# ------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _fr(x) -> Fraction:
    return Fraction(str(x))


def _cmd(kind: str, name: str, argv: list[str], expect: dict, **fields) -> dict:
    """One CLI command: ``kind`` picks the oracle and the replay, ``name``
    labels it in the record, ``@file`` in ``argv`` names a file written in
    set-up, and ``expect`` holds the expected exit code and fields."""
    return {"kind": kind, "name": name, "argv": argv, "expect": expect, **fields}


class CliSession(Workload):
    """One fresh ``python -m bohrlab`` process per op: the only workload that
    pays for process start, import, parsing, module builds, jsonio and
    fleischhack."""

    name = "cli_session"
    stream = 4
    in_process = False
    repeat_cycle = True
    nominal_cycle_s = 7.0
    op_limit_s = 20.0  # per command
    SEARCH_LIMIT_S = 2.0  # the eps=1e-9 search, which has no point budget
    SQRT = {"1": 1.0, "sqrt2": math.sqrt(2.0), "sqrt3": math.sqrt(3.0)}

    def setup(self, tr, workdir):
        m2 = _module(tr, 1, "sqrt2")
        return {
            "module": m2,
            "module_json": module_to_json(m2),
            "workdir": workdir,
            "env": child_env(),
            "files": {},
            "maxrss_kb": 0,
        }

    # -- inputs ------------------------------------------------------------

    def cycle_inputs(self, rng):
        """The run's command list, which every cycle replays."""
        cmds = []
        # mean: the constant term survives, the characters average to 0
        c0, c1, c2 = (_rational(rng) for _ in range(3))
        a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        expr = f"{_lit(c0)} {_signed(c1)}*chi({a}) {_signed(c2)}*chi({b}*sqrt2)"
        cmds.append(_cmd("mean", "mean", ["mean", expr], {"code": 0, "value": [str(c0), "0"]}, expr=expr))
        # inner: <a chi(n1) + b chi(n2 sqrt2), c chi(n1)> = a c
        ca, cb, cc = (abs(_rational(rng)) for _ in range(3))
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        f, g = f"{ca}*chi({n1}) + {cb}*chi({n2}*sqrt2)", f"{cc}*chi({n1})"
        cmds.append(_cmd("inner", "inner", ["inner", f, g], {"code": 0, "value": [str(ca * cc), "0"]}, f=f, g=g))
        # translate by k/2*pi: chi(n) picks up i^(n k)
        n1 = int(rng.integers(1, 5))
        n2 = n1 + int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        expr, t = f"chi({n1}) + chi({n2})", f"{k}/2*pi"
        quarter = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
        terms = {str(n): quarter[(n * k) % 4] for n in (n1, n2)}
        cmds.append(_cmd("translate", "translate", ["translate", expr, "--t", t], {"code": 0, "terms": terms},
                         expr=expr, t=t))
        # Haar uniqueness, d=2 on -40..40: any nonzero rational shift forces Haar
        r = str(_rational(rng))
        cmds.append(_cmd("haar", "haar_d2",
                         ["verify-haar-uniqueness", "--generators", "1,sqrt2", "--freqs", "-40..40", "--shifts", r],
                         {"code": 0, "verdict": "ForcedHaar", "surviving": []},
                         generators="1,sqrt2", radius=40, shifts=r))
        # Haar uniqueness, d=4 on -2..2: e*pi survives r exactly when e*r is even
        r = _rational(rng, hi=4)
        surviving = [[0, 0, 0, e] for e in (-2, -1, 1, 2) if (e * r / 2).denominator == 1]
        cmds.append(_cmd("haar", "haar_d4",
                         ["verify-haar-uniqueness", "--generators", "1,sqrt2,sqrt3,pi", "--freqs", "-2..2",
                          "--shifts", str(r)],
                         {"code": 1 if surviving else 0, "verdict": "Undetermined" if surviving else "ForcedHaar",
                          "surviving": surviving},
                         generators="1,sqrt2,sqrt3,pi", radius=2, shifts=str(r)))
        # check-measure on |F|=81: Haar mixed with a Dirac point is not invariant
        w = Fraction(int(rng.integers(1, 9)), 10)
        phi = [float(x) for x in rng.random(2)]
        r = str(_rational(rng))
        cmds.append(_cmd("check", "check_81", ["check-measure", "@measure81.json", "--shifts", r],
                         {"code": 1, "verdict": "ForcedHaar", "invariant": False},
                         file="measure81.json", shifts=r, measure={"radius": 4, "haar_weight": str(w), "phi": phi}))
        # check-measure on the glued standard measure 0 + Haar
        r = str(_rational(rng))
        cmds.append(_cmd("glued", "check_glued", ["check-measure", "@glued.json", "--shifts", r],
                         {"code": 0, "verdict": "ForcedStandard"},
                         file="glued.json", shifts=r, measure={"radius": 2}))
        # kronecker at d=2 and d=3; hits are re-checked, misses are undecided
        for gens, eps in (("1,sqrt2", 0.05), ("1,sqrt2,sqrt3", 0.1)):
            angles = [f"{x:.3f}" for x in rng.uniform(0.0, 2 * math.pi, gens.count(",") + 1)]
            cmds.append(_cmd("kronecker", f"kronecker_d{len(angles)}",
                             ["kronecker", "--generators", gens, "--target", ",".join(angles), "--eps", str(eps)],
                             {}, generators=gens, target=angles, eps=eps, t_max=1e6))
        # the extension battery
        seed = int(rng.integers(0, 1000))
        cmds.append(_cmd("extension", "extension", ["verify-extension", "--trials", "300", "--seed", str(seed)],
                         {"code": 0}, generators="1,sqrt2", trials=300, tol=1e-10, seed=seed))
        # rejected inputs: dependent generators, and a non-finite --T
        gens = f"1,{int(rng.integers(1, 6))}/{int(rng.integers(2, 6))}"
        cmds.append(_cmd("haar", "dependent_generators",
                         ["verify-haar-uniqueness", "--generators", gens, "--freqs", "-1..1", "--shifts", "1"],
                         {"code": 2}, generators=gens, radius=1, shifts="1"))
        cmds.append(_cmd("mean", "mean_T_nan", ["mean", "chi(1)", "--T", "nan"], {"code": 2},
                         expr="chi(1)", T="nan", known_defect="exits 0 and prints NaN"))
        # a search whose grid has ~1e15 points; it must answer within its limit
        cmds.append(_cmd("kronecker", "kronecker_eps_1e-9",
                         ["kronecker", "--generators", "1,sqrt2", "--target", "0,pi", "--eps", "1e-9"],
                         {}, generators="1,sqrt2", target=["0", "pi"], eps=1e-9, t_max=1e6,
                         limit_s=self.SEARCH_LIMIT_S, known_defect="no point budget: runs past its limit"))
        return cmds

    def prepare(self, state, commands) -> None:
        """Write the measure files the commands read; their content is part
        of the generated inputs."""
        mod = state["module_json"]
        for cmd in commands:
            if cmd["kind"] not in ("check", "glued"):
                continue
            spec = cmd["measure"]
            coords = _box_coords(2, spec["radius"])
            entries = []
            if cmd["kind"] == "check":
                w, phi = Fraction(spec["haar_weight"]), spec["phi"]
                for c in coords:
                    if not any(c):
                        entries.append({"coords": list(c), "re": "1", "im": "0"})
                        continue
                    z = (1 - float(w)) * complex(math.cos(2 * math.pi * (c[0] * phi[0] + c[1] * phi[1])),
                                                 math.sin(2 * math.pi * (c[0] * phi[0] + c[1] * phi[1])))
                    entries.append({"coords": list(c), "re": z.real, "im": z.imag})
                data = {"module": mod, "entries": entries}
            else:
                for c in coords:
                    entries.append({"coords": list(c), "re": "0" if any(c) else "1", "im": "0"})
                data = {"r_part": {"breakpoints": [], "values": [], "atoms": []},
                        "bohr_part": {"module": mod, "entries": entries}}
            path = os.path.join(state["workdir"], cmd["file"])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            state["files"][cmd["file"]] = path

    def argv(self, state, cmd) -> list[str]:
        return [state["files"][a[1:]] if a.startswith("@") else a for a in cmd["argv"]]

    def warmup(self, state, rng):
        spawn_bohrlab(["mean", "1"], state, self.op_limit_s)

    # -- one op: one process -------------------------------------------------

    def run_op(self, state, inp, tr):
        limit = inp.get("limit_s", self.op_limit_s)
        with tr.span("cli.process"):
            code, text, maxrss_kb = spawn_bohrlab(self.argv(state, inp), state, limit)
        state["maxrss_kb"] = max(state["maxrss_kb"], maxrss_kb)
        out = self.check(inp, code, text)
        out.known_defect = bool(inp.get("known_defect")) and not out.ok
        return out

    def check(self, cmd, code, text) -> Outcome:
        if code is None:
            return Outcome(False, False, f"killed at its {cmd.get('limit_s', self.op_limit_s)} s limit")
        try:
            report = strict_json(text)
        except ValueError as exc:
            return Outcome(False, False, f"stdout is not strict JSON ({exc}); exit {code}")
        if not isinstance(report, dict):
            return Outcome(False, False, "stdout is not a JSON object")
        exp = cmd["expect"]
        kind = cmd["kind"]
        if kind == "kronecker":
            return self._check_kronecker(cmd, code, report)
        if code != exp["code"]:
            return Outcome(False, True, f"exit {code}, expected {exp['code']}")
        if code == 2:
            return Outcome("error" in report, True, "" if "error" in report else "no error field")
        try:
            ok = self._fields_match(kind, exp, report)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return Outcome(False, True, f"malformed report: {type(exc).__name__}: {exc}")
        return Outcome(ok, True, "" if ok else f"{kind} report differs from the expectation")

    @staticmethod
    def _fields_match(kind, exp, rep) -> bool:
        if kind in ("mean", "inner"):
            return [_fr(v) for v in rep["value"]] == [_fr(v) for v in exp["value"]]
        if kind == "translate":
            ap = rep["result"]["ap"]
            got = {str(t["coords"][0]): [_fr(t["re"]), _fr(t["im"])] for t in ap["terms"]}
            want = {k: [_fr(v[0]), _fr(v[1])] for k, v in exp["terms"].items()}
            return got == want and not rep["result"]["c0"]["breakpoints"]
        if kind == "haar":
            return rep["verdict"] == exp["verdict"] and sorted(rep["surviving_frequencies"]) == exp["surviving"]
        if kind == "check":
            g = rep["gram_matrix"]
            return (
                rep["verdict"] == exp["verdict"]
                and rep["invariant"] is exp["invariant"]
                and rep["worst_violation"] > 0
                and len(g) == len(rep["gram_basis"]) == len(g[0])
            )
        if kind == "glued":
            return (
                rep["verdict"] == exp["verdict"]
                and rep["r_mass"] == 0
                and rep["bohr_invariant"] is True
                and rep["haar_distance"] == 0
            )
        if kind == "extension":
            return rep["passed"] is True and rep["trials"] == 300 and rep["worst_residual"] <= rep["tol"]
        raise ValueError(f"unknown command kind {kind}")

    def _check_kronecker(self, cmd, code, rep) -> Outcome:
        if code == 1 and rep.get("found") is False and rep.get("points_scanned", 0) > 0:
            return Outcome(True, False)  # budget exhausted, reported as such
        if code != 0 or rep.get("found") is not True:
            return Outcome(False, False, f"exit {code} with found={rep.get('found')!r}")
        t = rep["t"]
        gens = [self.SQRT[g] for g in cmd["generators"].split(",")]
        thetas = [math.pi if a == "pi" else float(a) for a in cmd["target"]]
        gap = max(2.0 * abs(math.sin(0.5 * (g * t - th))) for g, th in zip(gens, thetas))
        if abs(t) > cmd["t_max"] or not gap < cmd["eps"]:
            return Outcome(False, True, f"hit t={t!r} has residual {gap:.3e}")
        return Outcome(True, True)

    def freq_pool(self, state):
        return [(state["module"], c) for c in _box_coords(2, 4)]

    # -- traced replays --------------------------------------------------------

    def trace_extras(self, state, commands, tr) -> dict:
        """Process start and import probes, then every command replayed in
        this process twice: through ``cli.main`` and call by call."""
        def probe(code):
            out = os.path.join(state["workdir"], "probe.txt")
            return 1e3 * spawn([sys.executable, "-c", code], state["env"], out, self.op_limit_s)[2]

        start = statistics.median(probe("pass") for _ in range(5))
        imported = statistics.median(probe("import bohrlab") for _ in range(5))
        handler = []
        for i, cmd in enumerate(commands):
            tr.op = f"replay.{i}"
            handler.append(self.replay_main(state, cmd, tr))
            self.replay_calls(state, cmd, tr)
        return {
            "cli.process_start_ms": start,
            "cli.import_ms": imported - start,
            "cli.handler_ms": statistics.median(handler),
        }

    def replay_main(self, state, cmd, tr) -> float:
        """Run the command through ``cli.main`` in this process; returns ms."""
        limit = cmd.get("limit_s", self.op_limit_s)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with tr.span("cli.main"), time_limit(limit), redirect_stdout(sink), redirect_stderr(io.StringIO()):
                cli.main(self.argv(state, cmd))
        except OpTimeout:
            pass
        return (time.perf_counter() - t0) * 1e3

    def replay_calls(self, state, cmd, tr) -> None:
        """The public calls the command's handler makes, one span each."""
        try:
            with tr.span("cli.replay"), time_limit(cmd.get("limit_s", self.op_limit_s)):
                _REPLAYS[cmd["kind"]](self, state, cmd, tr)
        except (OpTimeout, InputError):
            pass


def _lit(q: Fraction) -> str:
    return f"{q}" if q >= 0 else f"-{-q}"


def _signed(q: Fraction) -> str:
    return f"+ {q}" if q >= 0 else f"- {-q}"


def _replay_module(tr, text):
    with tr.span("parser.generators"):
        gens = [parse_generator_literal(p) for p in text.split(",")]
    with tr.span("frequencies.module_build"):
        return FrequencyModule(tuple(gens))


def _replay_mean(wl, state, cmd, tr):
    with tr.span("parser.parse"):
        ast = parse_expression(cmd["expr"])
    with tr.span("parser.lower"):
        f = lower_expression(ast)
    with tr.span("ap.mean"):
        f.ap.bohr_mean()
        if "T" in cmd:
            T = float(cmd["T"])
            f.ap.bohr_mean_numeric(T)
            f.ap.mean_error_bound(T)


def _replay_inner(wl, state, cmd, tr):
    with tr.span("parser.parse"):
        a, b = parse_expression(cmd["f"]), parse_expression(cmd["g"])
    with tr.span("frequencies.module_build"):
        module, _ = build_module(collect_freq_literals(a) + collect_freq_literals(b))
    with tr.span("parser.lower"):
        f, g = lower_expression(a, module=module), lower_expression(b, module=module)
    with tr.span("ap.inner"):
        f.ap.inner(g.ap)


def _replay_translate(wl, state, cmd, tr):
    with tr.span("parser.parse"):
        ast = parse_expression(cmd["expr"])
    with tr.span("parser.lower"):
        f = lower_expression(ast)
    with tr.span("parser.scalar"):
        t = parse_scalar_literal(cmd["t"])
    with tr.span("ap.translate"):
        moved = f.translate(t)
    with tr.span("jsonio.dump"):
        extended_to_json(moved)


def _replay_haar(wl, state, cmd, tr):
    module = _replay_module(tr, cmd["generators"])
    with tr.span("measures.support"):
        support = box_support(module, cmd["radius"])
    with tr.span("parser.scalar"):
        shifts = [parse_scalar_literal(cmd["shifts"])]
    with tr.span("measures.verdict"):
        uniqueness_verdict(module, support, shifts)


def _replay_check(wl, state, cmd, tr):
    with tr.span("jsonio.load"):
        with open(state["files"][cmd["file"]], encoding="utf-8") as fh:
            mu = fsmeasure_from_json(json.load(fh))
    with tr.span("parser.scalar"):
        shifts = [parse_scalar_literal(cmd["shifts"])]
    with tr.span("measures.invariance"):
        mu.is_invariant(shifts)
    with tr.span("measures.verdict"):
        uniqueness_verdict(mu.module, mu.support, shifts)
    with tr.span("measures.gram_blocks"):
        _, gram = max(mu.gram_blocks(), key=lambda bg: len(bg[0]))
    with tr.span("jsonio.dump"):
        matrix_to_json(gram)


def _replay_glued(wl, state, cmd, tr):
    with tr.span("jsonio.load"):
        with open(state["files"][cmd["file"]], encoding="utf-8") as fh:
            mu = qmeasure_from_json(json.load(fh))
    with tr.span("parser.scalar"):
        shifts = [parse_scalar_literal(cmd["shifts"])]
    with tr.span("fleischhack.q_verdict"):
        q_invariance_verdict(mu, shifts)
    with tr.span("measures.gram_blocks"):
        _, gram = max(mu.bohr_part.gram_blocks(), key=lambda bg: len(bg[0]))
    with tr.span("jsonio.dump"):
        matrix_to_json(gram)


def _replay_kronecker(wl, state, cmd, tr):
    module = _replay_module(tr, cmd["generators"])
    with tr.span("parser.scalar"):
        angles = [parse_scalar_literal(a) for a in cmd["target"]]
    with tr.span("bohr.point"):
        psi = BohrPoint.from_angles(module, angles)
    _kronecker(tr, psi, cmd["eps"], cmd["t_max"])


def _replay_extension(wl, state, cmd, tr):
    module = _replay_module(tr, cmd["generators"])
    with tr.span("fleischhack.extension_battery"):
        extension_battery(module, trials=cmd["trials"], tol=cmd["tol"], seed=cmd["seed"])


_REPLAYS = {
    "mean": _replay_mean,
    "inner": _replay_inner,
    "translate": _replay_translate,
    "haar": _replay_haar,
    "check": _replay_check,
    "glued": _replay_glued,
    "kronecker": _replay_kronecker,
    "extension": _replay_extension,
}


# ------------------------------------------------------------------
# child processes
# ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, out_path: str, limit: float):
    """Run ``argv`` with stdout in ``out_path``; kill it at ``limit`` seconds.

    Returns (exit code or None if killed, max RSS in kB, seconds).  Uses
    SIGALRM instead of a timer thread, so the benchmark stays on one thread.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    res = None
    try:
        with time_limit(limit):
            res = os.wait4(pid, 0)
    except OpTimeout:
        pass
    if res is not None:
        elapsed = time.perf_counter() - t0
        return os.waitstatus_to_exitcode(res[1]), res[2].ru_maxrss, elapsed
    try:
        os.kill(pid, signal.SIGKILL)
        res = os.wait4(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        res = None
    elapsed = time.perf_counter() - t0
    return None, (res[2].ru_maxrss if res else 0), elapsed


def spawn_bohrlab(args: list[str], state: dict, limit: float):
    out_path = os.path.join(state["workdir"], "stdout.txt")
    code, maxrss, _ = spawn([sys.executable, "-m", "bohrlab", *args], state["env"], out_path, limit)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return code, text, maxrss


WORKLOADS = {
    wl.name: wl
    for wl in (MomentsFixedSupport(), MomentsFreshSupport(), KroneckerSearch(), CliSession())
}
