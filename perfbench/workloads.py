"""The four benchmark workloads: seeded inputs, one op each, outcome checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns.  ``build(name, seed, workdir)`` generates all
inputs from the seed with the benchmark's own numpy code and returns a
``Workload`` whose ``run`` executes one op (the part that is timed) and
whose ``check`` compares the op's result with an outcome known by
construction (not timed).  ``check`` returns a list of problems; an empty list is a passing
op.  Checks pin verdicts, exit codes and the presence or absence of energy
violations on systems with a clear margin, never tolerance-dependent
numbers such as violation counts or minimum eigenvalues.

This module imports phdelay, so the worker imports it only after it has
timed ``import phdelay``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import phdelay
import phdelay.cli
from phdelay import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    DelayPHSystem,
    HistoryFunction,
    StandardLTISystem,
    StandardPHSystem,
)

NAMES = ("certify-mix", "audit-long-window", "ensemble-short-delay", "cli-session")


@dataclass
class Workload:
    name: str
    cases: list                      # one cycle of ops, in order
    warmup: object                   # the op run once during set-up
    run: Callable                    # case -> result (timed)
    check: Callable                  # (case, result) -> list[str] (not timed)
    whole_cycles: bool = False       # stop the timed phase only at cycle ends
    min_ops: int = 1                 # ops the timed phase needs at least
    trace_cases: list = field(default_factory=list)  # fixed traced block
    run_traced: Callable | None = None  # in-process variant for the traced run
    close: Callable = lambda: None


# ---------------------------------------------------------------------------
# random structure matrices


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n, lo=0.5, hi=2.0):
    q = _orthogonal(rng, n)
    return (q * rng.uniform(lo, hi, n)) @ q.T


def _skew(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * (scale / math.sqrt(max(n, 1)))
    return a - a.T


def _with_norm(rng, rows, cols, norm):
    w = rng.standard_normal((rows, cols))
    return w * (norm / np.linalg.norm(w, 2))


def _dissipation(rng, n, rank):
    """R = U diag(lam) U^T with ``rank`` eigenvalues in [0.5, 2], the rest 0.

    Returns (R, R^{1/2}, U_r, sqrt(lam_r)) so that couplings can be built
    inside image(R).
    """
    u = _orthogonal(rng, n)
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(0.5, 2.0, rank)
    r = (u * lam) @ u.T
    root = (u * np.sqrt(lam)) @ u.T
    return 0.5 * (r + r.T), root, u[:, :rank], np.sqrt(lam[:rank])


def _delay_ph(rng, n, m, coupling, rank=None, tau=1.0):
    """Delay pH system with Z = R^{1/2} W R^{1/2}, ||W||_2 = coupling.

    W acts inside image(R), so the whitened coupling construct_theta
    measures is exactly ``coupling``: below 1 the construction succeeds and
    Theta = R/2 certifies; above 1 it is inconclusive and Theta = R/2 is
    refuted.  G = R^{1/2} G0 keeps image(G) inside image(R), which the
    feedback gain bound requires.  Theta = R/2 is attached.
    """
    rank = n if rank is None else rank
    r, root, u_r, s_r = _dissipation(rng, n, rank)
    w = _with_norm(rng, rank, rank, coupling)
    z = (u_r * s_r) @ w @ (u_r * s_r).T
    g = root @ rng.standard_normal((n, m))
    return DelayPHSystem(
        H=_spd(rng, n), J=_skew(rng, n), R=r, Z=z, G=g, tau=tau, theta=0.5 * r
    )


# ---------------------------------------------------------------------------
# certify-mix

#: (order n, share of ops).  Sorted by latency the classes cover the
#: percentile bands 0-30 (n=2), 30-70 (n=16), 70-97 (n=64), 97-100 (n=256),
#: so p50 lies in the middle of the n=16 band and p90 inside the n=64 band.
CERTIFY_SIZES = ((2, 30), (16, 40), (64, 27), (256, 3))
CERTIFY_PH_MAX_N = 64


@dataclass
class CertifyCase:
    n: int
    expect_certified: bool
    system: DelayPHSystem
    partner: DelayPHSystem
    F: np.ndarray
    plant: StandardPHSystem
    F_fb: np.ndarray          # unit-norm direction of the feedback gain
    lti: StandardLTISystem | None


def _certify_case(rng, n, certified, rank_deficient):
    m = max(1, n // 8)
    rank = max(m, n - max(1, n // 4)) if rank_deficient else n
    coupling = rng.uniform(0.2, 0.6) if certified else rng.uniform(1.5, 2.5)
    system = _delay_ph(rng, n, m, coupling, rank)
    partner = _delay_ph(rng, n, m, rng.uniform(0.2, 0.6))
    f = _skew(rng, 2 * m)  # power-conserving coupling keeps both verdicts
    plant = StandardPHSystem(system.H, system.J, system.R, system.G)
    f_fb = _with_norm(rng, m, m, 1.0)
    lti = None
    if n <= CERTIFY_PH_MAX_N:
        lti = StandardLTISystem(
            np.linalg.solve(plant.H, plant.J - plant.R),
            np.linalg.solve(plant.H, plant.G),
            plant.G.T.copy(),
        )
    return CertifyCase(n, certified, system, partner, f, plant, f_fb, lti)


def _certify_run(case: CertifyCase):
    s = case.system
    violations = phdelay.validate(s)
    built = phdelay.construct_theta(s.R, s.Z)
    cert = phdelay.certify_delay_ph(s, s.theta)
    necessary = phdelay.check_necessary(s.R, s.theta, s.Z)
    joint = phdelay.certify_interconnection(s, case.partner, case.F)
    beta = phdelay.feedback_gain_bound(case.plant.R, case.plant.G)
    closed = phdelay.close_delayed_feedback(case.plant, 0.5 * beta * case.F_fb, s.tau)
    closed_built = phdelay.construct_theta(closed.R, closed.Z)
    standard = None
    if case.lti is not None:
        standard = phdelay.certify_ph(case.lti, case.plant.H)
    return {
        "violations": violations,
        "constructed": built.success,
        "verdict": cert.verdict,
        "necessary": necessary.all_hold,
        "joint": joint.verdict,
        "beta": beta,
        "feedback_constructed": closed_built.success,
        "standard": None if standard is None else standard.certificate.verdict,
    }


def _certify_check(case: CertifyCase, out) -> list[str]:
    want = CERTIFIED if case.expect_certified else REFUTED
    problems = []
    if out["violations"]:
        problems.append(f"validate: {out['violations']}")
    if out["constructed"] != case.expect_certified:
        problems.append(f"construct_theta success {out['constructed']}")
    if out["verdict"] != want:
        problems.append(f"certify_delay_ph {out['verdict']} != {want}")
    if not out["necessary"]:
        problems.append("check_necessary failed for Theta = R/2")
    if out["joint"] != want:
        problems.append(f"certify_interconnection {out['joint']} != {want}")
    if not 0.0 < out["beta"] < math.inf:
        problems.append(f"feedback_gain_bound {out['beta']}")
    if not out["feedback_constructed"]:
        problems.append("construct_theta failed at half the gain bound")
    if case.lti is not None and out["standard"] != CERTIFIED:
        problems.append(f"certify_ph {out['standard']}")
    return problems


def _certify_mix(seed):
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n, count in CERTIFY_SIZES:
        for i in range(count):
            # 60 % certified, 40 % inconclusive; every third rank-deficient
            cases.append(_certify_case(rng, n, i % 5 < 3, i % 3 == 2))
    order = rng.permutation(len(cases))
    cases = [cases[i] for i in order]
    warmup = _certify_case(rng, 16, True, False)
    return Workload(
        "certify-mix", cases, warmup, _certify_run, _certify_check,
        whole_cycles=True, min_ops=100, trace_cases=cases,
    )


# ---------------------------------------------------------------------------
# simulation workloads


def reference_energy(padded, d, h, H, theta, k):
    """E_k = x_k^T H x_k / 2 + trapezoid of x^T Theta x over the delay window.

    Computed by the benchmark from the padded state samples alone, as an
    independent reference for the program's energy accounting.
    """
    w = padded[:, k : k + d + 1]
    x = w[:, -1]
    g = np.einsum("ij,ij->j", w, theta @ w)
    return 0.5 * float(x @ H @ x) + h * float(0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])


@dataclass
class SimCase:
    label: str
    system: DelayPHSystem
    history: HistoryFunction
    inputs: np.ndarray | None
    T: float
    h: float
    monitor: bool
    expect_violations: bool = False


def _sim_run(case: SimCase):
    return phdelay.simulate_delay_ph(
        case.system, case.history, case.inputs, case.T, case.h, monitor=case.monitor
    )


def _sim_check(case: SimCase, out) -> list[str]:
    traj, record = out
    problems = []
    steps = round(case.T / case.h)
    if traj.states.shape != (case.system.n, steps + 1):
        problems.append(f"state shape {traj.states.shape}")
    if not np.all(np.isfinite(traj.states)):
        problems.append("non-finite states")
    if case.monitor:
        if record is None:
            problems.append("no energy record")
        elif record.passivity_ok == case.expect_violations:
            found = "no" if record.passivity_ok else "some"
            problems.append(f"{found} energy violations reported")
    if case.inputs is None and not case.expect_violations:
        d = traj.delay_steps
        p = traj.padded_states
        e0 = reference_energy(p, d, case.h, case.system.H, case.system.theta, 0)
        e_end = reference_energy(p, d, case.h, case.system.H, case.system.theta, steps)
        if not e_end <= e0:
            problems.append(f"energy grew without input: {e0!r} -> {e_end!r}")
    return problems


def _smooth_history(rng, n, tau, points=5):
    grid = np.linspace(-tau, 0.0, points)
    return HistoryFunction(grid, rng.standard_normal((n, points)))


AUDIT_N, AUDIT_TAU, AUDIT_H, AUDIT_T = 32, 1.0, 1e-3, 10.0


def _miscertified(rng, n, tau):
    """A certified (n-1)-block plus the scalar mode R=1, Z=2, Theta=1/2.

    No Theta certifies the scalar mode (its coupling beats its
    dissipation), so Theta = 1/2 is a false certificate; the mode still
    decays for tau = 1 (the stability limit is 2 pi / (3 sqrt 3) ~ 1.21),
    so the run stays bounded while a history oscillating near the mode's
    frequency makes the stored energy grow.  A random orthogonal change of
    coordinates makes every matrix dense.
    """
    good = _delay_ph(rng, n - 1, 2, 0.5, tau=tau)

    def blk(a, b):
        out = np.zeros((n, n))
        out[0, 0] = a
        out[1:, 1:] = b
        return out

    q = _orthogonal(rng, n)

    def congruent(a, b, sign=1.0):
        m = q.T @ blk(a, b) @ q
        return 0.5 * (m + sign * m.T)

    g = np.zeros((n, 2))
    g[1:] = good.G
    g[0] = rng.standard_normal(2)
    system = DelayPHSystem(
        H=congruent(1.0, good.H),
        J=congruent(0.0, good.J, -1.0),
        R=congruent(1.0, good.R),
        Z=q.T @ blk(2.0, good.Z) @ q,
        G=q.T @ g,
        tau=tau,
        theta=congruent(0.5, good.theta),
    )
    s = np.linspace(-tau, 0.0, 201)
    values = np.zeros((n, s.size))
    values[0] = np.cos(2.0 * s)
    values[1:] = 0.1 * rng.standard_normal((n - 1, 1))
    return system, HistoryFunction(s, q.T @ values)


def _audit_long_window(seed):
    rng = np.random.default_rng([seed, 2])
    n, tau, h, big_t = AUDIT_N, AUDIT_TAU, AUDIT_H, AUDIT_T
    good = _delay_ph(rng, n, 2, 0.5, tau=tau)
    times = np.arange(round(big_t / h) + 1) * h
    step = np.tile(rng.uniform(0.5, 1.5, (2, 1)), (1, times.size))
    sine = rng.uniform(0.5, 1.5, (2, 1)) * np.sin(rng.uniform(0.5, 3.0, (2, 1)) * times)
    bad, bad_history = _miscertified(rng, n, tau)
    cases = [
        SimCase("zero", good, _smooth_history(rng, n, tau), None, big_t, h, True),
        SimCase("step", good, _smooth_history(rng, n, tau), step, big_t, h, True),
        SimCase("sine", good, _smooth_history(rng, n, tau), sine, big_t, h, True),
        SimCase("miscertified", bad, bad_history, None, big_t, h, True, True),
    ]
    return Workload(
        "audit-long-window", cases, cases[0], _sim_run, _sim_check,
        whole_cycles=True, trace_cases=cases,
    )


ENSEMBLE_N, ENSEMBLE_TAU, ENSEMBLE_H, ENSEMBLE_T = 8, 0.02, 1e-3, 5.0
ENSEMBLE_MEMBERS = 64
ENSEMBLE_TRACED = 16


def _ensemble_short_delay(seed):
    rng = np.random.default_rng([seed, 3])
    system = _delay_ph(rng, ENSEMBLE_N, 2, 0.5, tau=ENSEMBLE_TAU)
    cases = [
        SimCase(f"member{i}", system, _smooth_history(rng, ENSEMBLE_N, ENSEMBLE_TAU),
                None, ENSEMBLE_T, ENSEMBLE_H, False)
        for i in range(ENSEMBLE_MEMBERS)
    ]
    return Workload(
        "ensemble-short-delay", cases, cases[0], _sim_run, _sim_check,
        trace_cases=cases[:ENSEMBLE_TRACED],
    )


# ---------------------------------------------------------------------------
# cli-session


@dataclass
class CliCase:
    argv: list
    expect_code: int
    check: Callable | None = None    # (report, workdir) -> list[str]
    outputs: tuple = ()              # files the call must (re)create


def _doc(system, kind="delay_ph", with_theta=True) -> dict:
    rows = lambda a: np.asarray(a, dtype=float).tolist()  # noqa: E731
    doc = {"kind": kind, "n": system.n, "m": system.m}
    for key in ("H", "J", "R", "G"):
        doc[key] = rows(getattr(system, key))
    if kind == "delay_ph":
        doc["Z"] = rows(system.Z)
        doc["tau"] = system.tau
        if with_theta:
            doc["theta"] = rows(system.theta)
    return doc


def _verdict_is(verdict):
    def check(report, _workdir):
        got = (report.get("certificate") or {}).get("verdict", report.get("verdict"))
        return [] if got == verdict else [f"verdict {got} != {verdict}"]
    return check


def _construction_is(success):
    def check(report, _workdir):
        got = report.get("construction", {}).get("success")
        return [] if got is success else [f"construction success {got}"]
    return check


def _all_checks_pass(report, _workdir):
    failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if not report.get("checks") or failed:
        return [f"checks failed: {failed}"]
    return []


def _is_error(report, _workdir):
    return [] if "error" in report else ["no error reported"]


def _wrote_system(name, verdict):
    def check(report, workdir):
        problems = _verdict_is(verdict)(report, workdir)
        try:
            doc = json.loads((workdir / name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return problems + [f"{name}: {exc}"]
        if doc.get("kind") != "delay_ph":
            problems.append(f"{name}: kind {doc.get('kind')}")
        return problems
    return check


CLI_SIM_T, CLI_SIM_H = 1.0, 1e-3


def _simulated(report, workdir):
    problems = []
    samples = round(CLI_SIM_T / CLI_SIM_H) + 1
    if report.get("monitor", {}).get("violations") != []:
        problems.append("energy violations on a certified system")
    if report.get("trajectory", {}).get("samples") != samples:
        problems.append(f"samples {report.get('trajectory')}")
    try:
        with open(workdir / "run.csv", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
    except OSError as exc:
        return problems + [f"run.csv: {exc}"]
    if lines != samples + 1:
        problems.append(f"run.csv has {lines} lines")
    return problems


#: subprocess calls per cycle.  Every call pays interpreter start plus
#: ``import phdelay.cli``; the five ``simulate --monitor`` calls are the
#: slowest class and fill the top 23 % of the latency distribution, so p90
#: sits in the middle of that class and p50 in the middle of the rest.
CLI_MIX = (
    ("certify-embedded", 2), ("certify-constructed", 1), ("certify-refuted", 1),
    ("certify-inconclusive", 1), ("construct", 1), ("construct-inconclusive", 1),
    ("check-delay", 1), ("check-standard", 1), ("interconnect", 2),
    ("feedback", 2), ("bad-json", 1), ("missing-key", 1), ("asymmetric", 1),
    ("bad-step", 1), ("simulate", 5),
)


def _cli_documents(rng, workdir: Path):
    n = 6
    docs = {}
    cert = _delay_ph(rng, n, n, 0.4, tau=0.1)
    docs["cert.json"] = _doc(cert)
    docs["plain.json"] = _doc(_delay_ph(rng, n, n, 0.4, tau=0.1), with_theta=False)
    docs["inconclusive.json"] = _doc(_delay_ph(rng, n, n, 2.0, tau=0.1), with_theta=False)
    refuted = _delay_ph(rng, n, n, 2.0, tau=0.1)
    docs["refuted.json"] = _doc(refuted, with_theta=False)
    docs["refuted_theta.json"] = (0.5 * refuted.R).tolist()
    partner = _delay_ph(rng, 4, 2, 0.4, tau=0.1)
    docs["partner.json"] = _doc(partner)
    docs["F.json"] = _skew(rng, n + partner.m).tolist()
    plant = _delay_ph(rng, n, n, 0.4)
    docs["plant.json"] = _doc(plant, kind="standard_ph")
    # the gain bound for full-rank R is 1 / ||R^{-1/2} G||^2
    lam, u = np.linalg.eigh(plant.R)
    beta = 1.0 / np.linalg.norm((u / np.sqrt(lam)).T @ plant.G, 2) ** 2
    docs["F_fb.json"] = _with_norm(rng, n, n, 0.5 * beta).tolist()
    missing = _doc(cert)
    del missing["Z"]
    docs["missing.json"] = missing
    asym = _doc(cert)
    asym["R"][0][1] += 0.5
    docs["asymmetric.json"] = asym
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "truncated.json").write_text(json.dumps(docs["cert.json"])[:-7],
                                            encoding="utf-8")


def _cli_cases() -> dict:
    sim = ["simulate", "cert.json", "--history", "const:0.5", "--input", "sine:1.0,2.0",
           "--T", str(CLI_SIM_T), "--h", str(CLI_SIM_H), "--monitor", "--out", "run.csv"]
    return {
        "certify-embedded": CliCase(["certify", "cert.json"], 0, _verdict_is(CERTIFIED)),
        "certify-constructed": CliCase(["certify", "plain.json"], 0, _verdict_is(CERTIFIED)),
        "certify-refuted": CliCase(["certify", "refuted.json", "--theta", "refuted_theta.json"],
                                   1, _verdict_is(REFUTED)),
        "certify-inconclusive": CliCase(["certify", "inconclusive.json"], 2,
                                        _verdict_is(INCONCLUSIVE)),
        "construct": CliCase(["construct-theta", "plain.json"], 0, _construction_is(True)),
        "construct-inconclusive": CliCase(["construct-theta", "inconclusive.json"], 2,
                                          _construction_is(False)),
        "check-delay": CliCase(["check", "cert.json"], 0, _all_checks_pass),
        "check-standard": CliCase(["check", "plant.json"], 0, _all_checks_pass),
        "interconnect": CliCase(
            ["interconnect", "cert.json", "partner.json", "F.json", "--certify",
             "--out", "closed.json"], 0, _wrote_system("closed.json", CERTIFIED),
            ("closed.json",)),
        "feedback": CliCase(
            ["feedback", "plant.json", "F_fb.json", "--tau", "0.5", "--certify",
             "--out", "fb.json"], 0, _wrote_system("fb.json", CERTIFIED), ("fb.json",)),
        "bad-json": CliCase(["certify", "truncated.json"], 3, _is_error),
        "missing-key": CliCase(["certify", "missing.json"], 3, _is_error),
        "asymmetric": CliCase(["certify", "asymmetric.json"], 3, _is_error),
        "bad-step": CliCase(  # h does not divide tau = 0.1
            ["simulate", "cert.json", "--history", "const:0.5", "--T", "0.9",
             "--h", "0.003", "--out", "bad.csv"], 3, _is_error),
        "simulate": CliCase(sim, 0, _simulated, ("run.csv",)),
    }


def _cli_session(seed, workdir: Path):
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    _cli_documents(rng, workdir)
    by_name = _cli_cases()
    cycle = [by_name[name] for name, count in CLI_MIX for _ in range(count)]
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    env = dict(os.environ)
    src = str(Path(phdelay.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def prepare(case):
        for name in case.outputs:
            (workdir / name).unlink(missing_ok=True)

    def run(case):
        prepare(case)
        proc = subprocess.run(
            [sys.executable, "-m", "phdelay", *case.argv], cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    def run_in_process(case):
        prepare(case)
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(buf):
                code = phdelay.cli.main(list(case.argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()

    def check(case, out):
        code, stdout = out
        problems = []
        if code != case.expect_code:
            problems.append(f"{case.argv[0]}: exit {code} != {case.expect_code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + [f"{case.argv[0]}: stdout is not one JSON report"]
        if report.get("exit_code") != code:
            problems.append(f"report exit_code {report.get('exit_code')} != {code}")
        if case.check is not None:
            problems += case.check(report, workdir)
        return problems

    def close():
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    return Workload(
        "cli-session", cycle, by_name["certify-embedded"], run, check,
        whole_cycles=True, min_ops=100, trace_cases=cycle,
        run_traced=run_in_process, close=close,
    )


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name == "certify-mix":
        return _certify_mix(seed)
    if name == "audit-long-window":
        return _audit_long_window(seed)
    if name == "ensemble-short-delay":
        return _ensemble_short_delay(seed)
    if name == "cli-session":
        return _cli_session(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
