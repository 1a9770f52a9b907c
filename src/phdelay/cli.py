"""Command-line interface.

Subcommands: certify, construct-theta, interconnect, feedback, simulate,
check.  Every run prints a single JSON report to stdout (inputs are
identified by their sha256 digests) and exits with 0 for a certified or
successful run, 1 for a refuted condition, 2 for an inconclusive
construction, and 3 for input or usage errors.  Data artifacts (system
documents, trajectory CSV files) go to the paths given by --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .certificates import CERTIFIED, INCONCLUSIVE, REFUTED
from .certify import (
    _certify_validated,
    certify_delay_ph,
    check_necessary,
    construct_theta,
)
from .composition import (
    FeedbackConditions,
    _certify_pair,
    _feedback_hypotheses,
    check_feedback_conditions,
    classify_feedback,
    close_delayed_feedback,
    interconnect,
)
from .linalg import Tolerance
from .simulation import (
    BlowUpError,
    export_trajectory_csv,
    hamiltonian_series,
    integrate_dde,
    simulate_delay_ph,
)
from .standard import certify_ph, check_minimality
from .systems import (
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    StandardLTISystem,
    StandardPHSystem,
    SystemFormatError,
    _matrix_rows,
    _rows,
    _standard_ph_to_lti,
    read_system,
    save_system,
    validate,
    write_system,
)

__all__ = ["main"]

_EXIT = {CERTIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise _UsageError(message)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _read_matrix(path: str, name: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemFormatError(f"{name}: malformed JSON: {exc}") from None
    return _matrix_rows(name, doc)


def _system_doc(system) -> dict:
    return json.loads(write_system(system))


def _jsonable(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)


def _cmd_certify(args, tol):
    system = read_system(args.system, tol)
    payload = {"inputs": {args.system: _digest(args.system)}}
    if isinstance(system, DelayPHSystem):
        if args.h_matrix:
            raise _UsageError("--h-matrix only applies to standard_lti systems")
        if args.theta:
            theta = _read_matrix(args.theta, "--theta")
            payload["inputs"][args.theta] = _digest(args.theta)
            source = "flag"
        elif system.theta is not None:
            theta = system.theta
            source = "embedded"
        else:
            construction = construct_theta(system.R, system.Z, tol)
            if not construction.success:
                payload["theta_source"] = "constructed"
                payload["construction"] = _construction_dict(construction)
                payload["verdict"] = INCONCLUSIVE
                return payload, _EXIT[INCONCLUSIVE]
            theta = construction.theta
            source = "constructed"
            payload["construction"] = _construction_dict(construction)
        # read_system has validated the document with this tolerance
        cert = _certify_validated(system, theta, tol)
        payload["theta_source"] = source
        payload["certificate"] = cert.to_dict()
        return payload, _EXIT[cert.verdict]
    if args.theta:
        raise _UsageError("--theta only applies to delay_ph systems")
    if isinstance(system, StandardPHSystem):
        lti = _standard_ph_to_lti(system)
        result = certify_ph(lti, system.H, tol)
    elif isinstance(system, StandardLTISystem):
        if not args.h_matrix:
            raise _UsageError("standard_lti certification requires --h-matrix FILE")
        h = _read_matrix(args.h_matrix, "--h-matrix")
        payload["inputs"][args.h_matrix] = _digest(args.h_matrix)
        result = certify_ph(system, h, tol)
    else:
        raise _UsageError(
            "kind general_delay has no energy matrix; certify the delay_ph form"
        )
    payload["certificate"] = result.certificate.to_dict()
    if result.decomposition is not None:
        payload["decomposition"] = {
            "J": _rows(result.decomposition.J),
            "R": _rows(result.decomposition.R),
            "G": _rows(result.decomposition.G),
        }
    return payload, _EXIT[result.certificate.verdict]


def _construction_dict(construction) -> dict:
    out = {"success": construction.success, "reason": construction.reason}
    if construction.interval is not None:
        out["sigma"] = construction.interval.sigma
        out["alpha_interval"] = (
            [construction.interval.lo, construction.interval.hi]
            if construction.interval.feasible
            else None
        )
    if construction.theta is not None:
        out["theta"] = _rows(construction.theta)
    return out


def _cmd_construct_theta(args, tol):
    system = read_system(args.system, tol)
    if not isinstance(system, DelayPHSystem):
        raise _UsageError("construct-theta requires a delay_ph system")
    construction = construct_theta(system.R, system.Z, tol)
    payload = {
        "inputs": {args.system: _digest(args.system)},
        "construction": _construction_dict(construction),
    }
    if not construction.success:
        payload["verdict"] = INCONCLUSIVE
        return payload, _EXIT[INCONCLUSIVE]
    return payload, 0


def _cmd_interconnect(args, tol):
    sys1 = read_system(args.system1, tol)
    sys2 = read_system(args.system2, tol)
    f = _read_matrix(args.feedback_matrix, "F")
    if not (isinstance(sys1, DelayPHSystem) and isinstance(sys2, DelayPHSystem)):
        raise _UsageError("interconnect requires two delay_ph systems")
    closed = interconnect(sys1, sys2, f)
    payload = {
        "inputs": {
            args.system1: _digest(args.system1),
            args.system2: _digest(args.system2),
            args.feedback_matrix: _digest(args.feedback_matrix),
        },
        "classification": classify_feedback(f, tol),
        "system": _system_doc(closed),
    }
    if args.out:
        save_system(closed, args.out)
        payload["out"] = args.out
    if not args.certify:
        return payload, 0
    # read_system has validated both parts
    cert = _certify_pair(sys1, sys2, f, tol, closed)
    payload["certificate"] = cert.to_dict()
    return payload, _EXIT[cert.verdict]


def _cmd_feedback(args, tol):
    system = read_system(args.system, tol)
    if not isinstance(system, StandardPHSystem):
        raise _UsageError("feedback requires a standard_ph system")
    f = _read_matrix(args.feedback_matrix, "F")
    closed = close_delayed_feedback(system, f, args.tau)
    trivial, contained, beta = _feedback_hypotheses(
        system.R, system.G, tol, rank=True, gain=True
    )
    payload = {
        "inputs": {
            args.system: _digest(args.system),
            args.feedback_matrix: _digest(args.feedback_matrix),
        },
        "feedback_conditions": asdict(FeedbackConditions(trivial, contained)),
    }
    if contained:
        payload["gain_bound"] = None if math.isinf(beta) else beta
        payload["gain_unbounded"] = math.isinf(beta)
    else:
        payload["gain_bound"] = None
        payload["gain_unbounded"] = False
        payload["gain_bound_reason"] = "kernel hypotheses violated"
    code = 0
    if args.certify:
        construction = construct_theta(closed.R, closed.Z, tol)
        payload["construction"] = _construction_dict(construction)
        if construction.success:
            cert = certify_delay_ph(closed, construction.theta, tol)
            payload["certificate"] = cert.to_dict()
            closed = replace(closed, theta=construction.theta)
            code = _EXIT[cert.verdict]
        else:
            payload["verdict"] = INCONCLUSIVE
            code = _EXIT[INCONCLUSIVE]
    payload["system"] = _system_doc(closed)
    if args.out:
        save_system(closed, args.out)
        payload["out"] = args.out
    return payload, code


def _parse_history(spec: str, system) -> HistoryFunction:
    if spec.startswith("const:"):
        value = float(spec[len("const:"):])
        return HistoryFunction.constant(
            np.full(system.n, value), system.tau
        )
    with open(spec, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemFormatError(f"history: malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or "grid" not in doc or "values" not in doc:
        raise SystemFormatError('history file needs "grid" and "values" keys')
    return HistoryFunction(np.asarray(doc["grid"], float), np.asarray(doc["values"], float))


def _parse_input(spec: str, times: np.ndarray, m: int):
    if spec == "zero":
        return None, None
    if spec.startswith("step:"):
        a = float(spec[len("step:"):])
        return np.full((m, times.size), a), None
    if spec.startswith("sine:"):
        parts = spec[len("sine:"):].split(",")
        if len(parts) != 2:
            raise _UsageError("--input sine takes amplitude,frequency")
        a, w = float(parts[0]), float(parts[1])
        return np.tile(a * np.sin(w * times), (m, 1)), None
    if spec.startswith("csv:"):
        path = spec[len("csv:"):]
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        if arr.shape[0] == times.size and arr.shape[1] == m:
            return arr.T.copy(), path
        raise _UsageError(
            f"input csv must have {times.size} rows and {m} columns, "
            f"got {arr.shape}"
        )
    raise _UsageError(f"unknown input spec {spec!r}")


def _cmd_simulate(args, tol):
    system = read_system(args.system, tol)
    if isinstance(system, GeneralDelaySystem):
        if args.monitor:
            raise _UsageError(
                "--monitor requires a delay_ph system with an energy matrix"
            )
    elif not isinstance(system, DelayPHSystem):
        raise _UsageError("simulate requires a delay system (general_delay or delay_ph)")
    if not (math.isfinite(args.h) and args.h > 0.0):
        raise _UsageError(f"--h must be a positive finite number, got {args.h}")
    if not math.isfinite(args.T):
        raise _UsageError(f"--T must be a finite number, got {args.T}")
    steps = args.T / args.h
    if not math.isfinite(steps):
        raise _UsageError(
            f"--T / --h = {args.T} / {args.h} is not a finite number of steps"
        )
    history = _parse_history(args.history, system)
    times = np.arange(round(steps) + 1) * args.h
    inputs, input_path = _parse_input(args.input, times, system.m)
    payload = {"inputs": {args.system: _digest(args.system)}}
    if not args.history.startswith("const:"):
        payload["inputs"][args.history] = _digest(args.history)
    if input_path:
        payload["inputs"][input_path] = _digest(input_path)

    if isinstance(system, DelayPHSystem):
        if args.monitor and system.theta is None:
            raise _UsageError(
                "--monitor requires a theta on the system (embed one or "
                "construct it first)"
            )
        traj, record = simulate_delay_ph(
            system, history, inputs, args.T, args.h, monitor=args.monitor
        )
        if record is not None:
            energies = record.hamiltonians
        else:
            theta = system.theta if system.theta is not None else np.zeros((system.n,) * 2)
            energies = hamiltonian_series(traj, system.H, theta)
        if record is not None:
            payload["monitor"] = {
                "tol_energy": record.tol_energy,
                "violations": [
                    {"step": k, "gap": gap} for k, gap in record.violations
                ],
            }
    else:
        traj = integrate_dde(system, history, inputs, args.T, args.h)
        energies = None

    export_trajectory_csv(traj, args.out, energies)
    payload["trajectory"] = {
        "csv": args.out,
        "samples": int(traj.times.size),
        "final_state": [float(v) for v in traj.states[:, -1]],
        "max_state_norm": float(np.max(np.linalg.norm(traj.states, axis=0))),
    }
    return payload, 0


def _cmd_check(args, tol):
    system = read_system(args.system, tol, validated=False)
    violations = validate(system, tol)
    runs = [("validate", lambda: (not violations, violations or "all type invariants hold"))]
    if isinstance(system, (StandardLTISystem, StandardPHSystem)):
        runs.append(("minimality", lambda: _minimality(system, tol)))
    if isinstance(system, (StandardPHSystem, DelayPHSystem)):
        runs.append(("feedback_conditions", lambda: _conditions(
            check_feedback_conditions(system.R, system.G, tol))))
    if isinstance(system, DelayPHSystem):
        if system.theta is not None:
            runs.append(("necessary_conditions", lambda: _conditions(
                check_necessary(system.R, system.theta, system.Z, tol))))
        runs.append(("theta_construction", lambda: _construction(
            construct_theta(system.R, system.Z, tol))))

    checks = []
    for name, run in runs:
        try:
            passed, detail = run()
        except ValueError as exc:  # a check the document cannot pass
            passed, detail = False, str(exc)
        checks.append({"name": name, "passed": passed, "detail": detail})
    payload = {
        "inputs": {args.system: _digest(args.system)},
        "checks": checks,
    }
    return payload, 0 if all(c["passed"] for c in checks) else 1


def _minimality(system, tol):
    lti = system if isinstance(system, StandardLTISystem) else _standard_ph_to_lti(system)
    verdict = check_minimality(lti, tol)
    return verdict == "minimal", verdict


def _conditions(conditions):
    return conditions.all_hold, asdict(conditions)


def _construction(construction):
    return construction.success, _construction_dict(construction)


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--psd-tol", type=float, default=None,
                        help="absolute PSD eigenvalue slack (default: 1e-9 scaled "
                             "by the largest |eigenvalue| tested)")
    common.add_argument("--rank-tol", type=float, default=1e-10,
                        help="relative singular-value cutoff (default 1e-10)")

    parser = _Parser(prog="phdelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="certify a system document")
    p.add_argument("system")
    p.add_argument("--theta", help="JSON matrix file overriding any embedded theta")
    p.add_argument("--h-matrix", help="energy matrix file for standard_lti systems")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("construct-theta", parents=[common],
                       help="construct a certifying theta from (R, Z)")
    p.add_argument("system")
    p.set_defaults(handler=_cmd_construct_theta)

    p = sub.add_parser("interconnect", parents=[common],
                       help="close the loop u = F y + w around two systems")
    p.add_argument("system1")
    p.add_argument("system2")
    p.add_argument("feedback_matrix")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--out", help="write the closed-loop system document here")
    p.set_defaults(handler=_cmd_interconnect)

    p = sub.add_parser("feedback", parents=[common],
                       help="apply delayed output feedback u = -F y(t - tau) + v")
    p.add_argument("system")
    p.add_argument("feedback_matrix")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--out", help="write the closed-loop system document here")
    p.set_defaults(handler=_cmd_feedback)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate a delay system and export a CSV trajectory")
    p.add_argument("system")
    p.add_argument("--history", required=True,
                   help='history file or "const:VALUE"')
    p.add_argument("--input", default="zero",
                   help='zero | step:A | sine:A,W | csv:FILE (default zero)')
    p.add_argument("--T", type=float, required=True, dest="T")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--monitor", action="store_true",
                   help="audit the energy balance (delay_ph with theta only)")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("check", parents=[common],
                       help="aggregated structural diagnostics")
    p.add_argument("system")
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 3}, indent=2))
        return 3
    try:
        tol = Tolerance(psd_tol=args.psd_tol, rank_tol=args.rank_tol)
        payload, code = args.handler(args, tol)
    except (_UsageError, BlowUpError, OSError, ValueError, MemoryError) as exc:
        print(json.dumps(
            {"command": args.command, "error": str(exc), "exit_code": 3}, indent=2
        ))
        return 3
    report = {
        "command": args.command,
        "tolerances": {"psd_tol": args.psd_tol, "rank_tol": args.rank_tol},
        **payload,
        "exit_code": code,
    }
    print(json.dumps(report, indent=2, sort_keys=True, default=_jsonable))
    return code


if __name__ == "__main__":
    sys.exit(main())
