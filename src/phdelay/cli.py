"""Command-line interface.

Subcommands: certify, construct-theta, interconnect, feedback, simulate,
check.  Every run prints a single JSON report to stdout and exits with 0
for a certified or successful run, 1 for a refuted condition, 2 for an
inconclusive construction, and 3 for input or usage errors.  A report is
built from Python floats, ints, bools, strings, lists and dicts: a numpy
integer, bool or array in one is a bug, which ``json.dumps`` raises on.
Each input file is read once, and the report's "inputs" maps its path to
the sha256 of the bytes parsed.  Data artifacts (system documents,
trajectory CSV files) go to the paths given by --out.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from .certificates import CERTIFIED, INCONCLUSIVE, REFUTED
from .certify import certify_delay_ph, check_necessary, construct_theta
from .composition import (
    _certify_pair,
    check_feedback_conditions,
    classify_feedback,
    close_delayed_feedback,
    feedback_gain_bound,
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
    _document,
    _load_json,
    _matrix_rows,
    _require_valid,
    _standard_ph_to_lti,
    _system_from_text,
    save_system,
    validate,
)

__all__ = ["main"]

_EXIT = {CERTIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise _UsageError(message)


def _read(path: str, inputs: dict) -> str:
    """The text of the file at ``path``, decoded as ``open(path,
    encoding="utf-8")`` decodes it (universal newlines); the sha256 of the
    bytes read goes to ``inputs[path]``."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _read_system(path: str, inputs: dict, tol):
    return _require_valid(_system_from_text(_read(path, inputs)), tol)


def _read_matrix(path: str, name: str, inputs: dict) -> np.ndarray:
    return _matrix_rows(name, _load_json(_read(path, inputs), f"{name}: "))


# ---------------------------------------------------------------------------
# subcommand handlers: (args, tol, inputs) -> (payload, exit_code)


def _cmd_certify(args, tol, inputs):
    system = _read_system(args.system, inputs, tol)
    payload = {}
    if isinstance(system, DelayPHSystem):
        if args.h_matrix:
            raise _UsageError("--h-matrix only applies to standard_lti systems")
        if args.theta:
            theta = _read_matrix(args.theta, "--theta", inputs)
            payload["theta_source"] = "flag"
        elif system.theta is not None:
            theta = system.theta
            payload["theta_source"] = "embedded"
        else:
            payload["theta_source"] = "constructed"
            theta = _constructed_theta(system, tol, payload)
            if theta is None:
                return payload, _EXIT[INCONCLUSIVE]
        cert = certify_delay_ph(system, theta, tol)
        payload["certificate"] = cert.to_dict()
        return payload, _EXIT[cert.verdict]
    if args.theta:
        raise _UsageError("--theta only applies to delay_ph systems")
    if isinstance(system, StandardPHSystem):
        result = certify_ph(_standard_ph_to_lti(system), system.H, tol)
    elif isinstance(system, StandardLTISystem):
        if not args.h_matrix:
            raise _UsageError("standard_lti certification requires --h-matrix FILE")
        h = _read_matrix(args.h_matrix, "--h-matrix", inputs)
        result = certify_ph(system, h, tol)
    else:
        raise _UsageError(
            "kind general_delay has no energy matrix; certify the delay_ph form"
        )
    payload["certificate"] = result.certificate.to_dict()
    if result.decomposition is not None:
        payload["decomposition"] = {
            key: getattr(result.decomposition, key).tolist() for key in "JRG"
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
        out["theta"] = construction.theta.tolist()
    return out


def _constructed_theta(system, tol, payload):
    """Theta from ``construct_theta`` on the system's (R, Z), or None.

    The construction goes to ``payload["construction"]``; a failed one also
    sets ``payload["verdict"]`` to INCONCLUSIVE.
    """
    construction = construct_theta(system.R, system.Z, tol)
    payload["construction"] = _construction_dict(construction)
    if not construction.success:
        payload["verdict"] = INCONCLUSIVE
        return None
    return construction.theta


def _cmd_construct_theta(args, tol, inputs):
    system = _read_system(args.system, inputs, tol)
    if not isinstance(system, DelayPHSystem):
        raise _UsageError("construct-theta requires a delay_ph system")
    payload = {}
    theta = _constructed_theta(system, tol, payload)
    return payload, _EXIT[INCONCLUSIVE] if theta is None else 0


def _cmd_interconnect(args, tol, inputs):
    sys1 = _read_system(args.system1, inputs, tol)
    sys2 = _read_system(args.system2, inputs, tol)
    f = _read_matrix(args.feedback_matrix, "F", inputs)
    if not (isinstance(sys1, DelayPHSystem) and isinstance(sys2, DelayPHSystem)):
        raise _UsageError("interconnect requires two delay_ph systems")
    closed = interconnect(sys1, sys2, f)
    payload = {
        "classification": classify_feedback(f, tol),
        "system": _document(closed),
    }
    if args.out:
        save_system(closed, args.out)
        payload["out"] = args.out
    if not args.certify:
        return payload, 0
    # both parts were validated when they were read
    cert = _certify_pair(sys1, sys2, f, tol, closed)
    payload["certificate"] = cert.to_dict()
    return payload, _EXIT[cert.verdict]


def _cmd_feedback(args, tol, inputs):
    system = _read_system(args.system, inputs, tol)
    if not isinstance(system, StandardPHSystem):
        raise _UsageError("feedback requires a standard_ph system")
    f = _read_matrix(args.feedback_matrix, "F", inputs)
    closed = close_delayed_feedback(system, f, args.tau)
    conditions = check_feedback_conditions(system.R, system.G, tol)
    beta = (feedback_gain_bound(system.R, system.G, tol)
            if conditions.kernel_r_in_kernel_gt else None)
    unbounded = beta == math.inf
    payload = {
        "feedback_conditions": asdict(conditions),
        "gain_bound": None if beta is None or unbounded else beta,
        "gain_unbounded": unbounded,
        **({"gain_bound_reason": "kernel hypotheses violated"} if beta is None else {}),
    }
    code = 0
    if args.certify:
        theta = _constructed_theta(closed, tol, payload)
        if theta is None:
            code = _EXIT[INCONCLUSIVE]
        else:
            cert = certify_delay_ph(closed, theta, tol)
            payload["certificate"] = cert.to_dict()
            closed = replace(closed, theta=theta)
            code = _EXIT[cert.verdict]
    payload["system"] = _document(closed)
    if args.out:
        save_system(closed, args.out)
        payload["out"] = args.out
    return payload, code


def _parse_history(spec: str, system, inputs: dict) -> HistoryFunction:
    if spec.startswith("const:"):
        value = float(spec[len("const:"):])
        return HistoryFunction.constant(np.full(system.n, value), system.tau)
    doc = _load_json(_read(spec, inputs), "history: ")
    if not isinstance(doc, dict) or "grid" not in doc or "values" not in doc:
        raise SystemFormatError('history file needs "grid" and "values" keys')
    if not isinstance(doc["grid"], list):
        raise SystemFormatError('"grid" must be an array of numbers')
    # the numeric checks of a system document: no strings, no booleans
    return HistoryFunction(_matrix_rows("grid", [doc["grid"]])[0],
                           _matrix_rows("values", doc["values"]))


def _parse_input(spec: str, times: np.ndarray, m: int, inputs: dict):
    if spec == "zero":
        return None
    if spec.startswith("step:"):
        a = float(spec[len("step:"):])
        return np.full((m, times.size), a)
    if spec.startswith("sine:"):
        parts = spec[len("sine:"):].split(",")
        if len(parts) != 2:
            raise _UsageError("--input sine takes amplitude,frequency")
        a, w = float(parts[0]), float(parts[1])
        # non-finite samples (w = inf, or w * t overflowing) are an input error
        with np.errstate(over="ignore", invalid="ignore"):
            return np.tile(a * np.sin(w * times), (m, 1))
    if spec.startswith("csv:"):
        text = _read(spec[len("csv:"):], inputs)
        with warnings.catch_warnings():
            # an empty file is reported by the shape check below
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        if arr.shape[0] == times.size and arr.shape[1] == m:
            return arr.T.copy()
        raise _UsageError(
            f"input csv must have {times.size} rows and {m} columns, "
            f"got {arr.shape}"
        )
    raise _UsageError(f"unknown input spec {spec!r}")


def _cmd_simulate(args, tol, inputs):
    system = _read_system(args.system, inputs, tol)
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
    history = _parse_history(args.history, system, inputs)
    try:
        times = np.arange(round(steps) + 1) * args.h
    except ValueError:  # more samples or bytes than numpy can index
        raise _UsageError(f"--T / --h = {args.T} / {args.h} = {steps:.6g} steps, "
                          "too many to hold") from None
    u = _parse_input(args.input, times, system.m, inputs)
    payload = {}

    if isinstance(system, DelayPHSystem):
        if args.monitor and system.theta is None:
            raise _UsageError(
                "--monitor requires a theta on the system (embed one or "
                "construct it first)"
            )
        traj, record = simulate_delay_ph(
            system, history, u, args.T, args.h, monitor=args.monitor, tol=tol
        )
        if record is None:
            theta = system.theta if system.theta is not None else np.zeros((system.n,) * 2)
            energies = hamiltonian_series(traj, system.H, theta)
        else:
            energies = record.hamiltonians
            violations = [{"step": k, "gap": gap} for k, gap in record.violations]
            payload["monitor"] = {"tol_energy": record.tol_energy,
                                  "violations": violations}
    else:
        traj = integrate_dde(system, history, u, args.T, args.h)
        energies = None

    export_trajectory_csv(traj, args.out, energies)
    payload["trajectory"] = {
        "csv": args.out,
        "samples": int(traj.times.size),
        "final_state": traj.states[:, -1].tolist(),
        "max_state_norm": float(np.max(np.linalg.norm(traj.states, axis=0))),
    }
    return payload, 0


def _cmd_check(args, tol, inputs):
    system = _system_from_text(_read(args.system, inputs))
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
    return {"checks": checks}, 0 if all(c["passed"] for c in checks) else 1


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
        inputs = {}  # path -> sha256 of the bytes read, filled by _read
        payload, code = args.handler(args, tol, inputs)
    except (_UsageError, BlowUpError, OSError, ValueError, MemoryError) as exc:
        print(json.dumps(
            {"command": args.command, "error": str(exc), "exit_code": 3}, indent=2
        ))
        return 3
    report = {
        "command": args.command,
        "tolerances": {"psd_tol": args.psd_tol, "rank_tol": args.rank_tol},
        "inputs": inputs,
        **payload,
        "exit_code": code,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
