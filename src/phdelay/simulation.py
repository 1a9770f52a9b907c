"""Fixed-step integration of delay systems and energy-balance monitoring.

The integrator is the classical fourth-order Runge-Kutta scheme organized
by the method of steps: the step size h must divide the delay tau exactly,
so the delayed time t - tau always lands on the grid for full steps.  The
delayed state at stage midpoints is interpolated with a cubic Hermite
polynomial on already-computed intervals (its end slopes being the
right-hand side at the delayed grid points) and linearly inside the
initial history, which is itself resampled linearly onto the step grid.
Input signals are samples on the step grid, read as piecewise-linear
between samples.

The coefficients are constant, so one RK4 step is a fixed linear map.
All grid data lives in one time-major work array whose row r holds
[x_r | u_r]: the padded state at t_{r-d} and the input at t_r.  Step k
reads the window w_k = [x_k | u_k | x_{k+1} | u_{k+1}] (rows k and k + 1,
one row of a read-only sliding view), so x_{k+1} = x_k + D x_k +
F_history w_k inside the history and x_k + D x_k + F_now w_k +
F_past w_{k-d} after it, the delayed derivatives of the Hermite midpoint
being the right-hand side evaluated on the window w_{k-d}.  D and the F
maps are obtained by pushing identity columns through the stage
formulas.  Steps then
run in blocks of up to d = tau / h steps, whose delayed data all exist
when the block starts, and no block crosses step d, where the midpoint
rule changes.  One matrix product of the block's windows (two after step
d) gives the forcing f_j of the whole block, and the block's recurrence
x_{j+1} = (I + D) x_j + f_j is then solved in a contiguous buffer
[x_0 | f_0 ... f_{span-1}] by one of two solvers:

* the transfer matrix: one product of the flattened buffer with the
  leading corner of a block lower-triangular Toeplitz matrix T, whose x_0
  rows hold P_j = (I + D)^j - I and whose f_i rows hold I + P_{j-1-i},
  followed by adding x_0 to every state.  The split x_0 + x_0 P_j never
  forms I + P_j, which would round away the low bits of increments that
  are small against the state.  T has (chunk + 1) chunk n^2 entries for
  blocks of up to chunk steps, so it serves short delays and small n;
* the doubling prefix scan: for o = 1, 2, 4, ... each pass adds
  (I + D)^o applied to the rows o steps back, so a block of span steps
  costs ceil(log2(span + 1)) vectorized passes of O(span n^2) each.

T is used when it has at most TRANSFER_MAX_ENTRIES = 2^16 entries
(512 KiB) and is finite; any longer or wider block runs the scan, which
measured faster from about 10^5 entries on.  The powers P_o, o = 1, 2,
4, ..., are squared as P_2o = 2 P_o + P_o^2 for the same reason of
rounding, and T's P_j are composed from them bit by bit as
P_{a+b} = P_a + P_b + P_a P_b; an unstable A0 whose powers overflow gets
shorter blocks instead.  The solved block is then copied into the work
array.  The RK4 maps, the powers, the block length and T depend only on
the system and h, so they are stored on the (immutable) system per step
size through ``linalg._memo``; a system simulated again at the same h
reuses them.

Energy accounting uses the Lyapunov-Krasovskii Hamiltonian

    E_k = (1/2) x_k^T H x_k + trapezoid of x^T Theta x over [t_k - tau, t_k]

evaluated for all k at once in O((K + d) n^2) by sliding the trapezoid
window one step at a time, and flags every step whose energy gain exceeds
the trapezoidal estimate of the supplied power integral of y^T u by more
than a quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _memo,
    _require_shape,
    require_symmetric,
    spectral_norm,
)
from .systems import (
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    _require_valid,
    delay_ph_to_general,
)

__all__ = [
    "BlowUpError",
    "EnergyRecord",
    "Trajectory",
    "export_trajectory_csv",
    "hamiltonian_series",
    "integrate_dde",
    "monitor_dissipation",
    "simulate_delay_ph",
]

#: state norm beyond which integration aborts
BLOWUP_NORM = 1e12

#: most entries, (chunk + 1) chunk n^2, of a block transfer matrix T
#: (512 KiB); blocks that would need a larger T run the doubling scan,
#: which measured faster from about 10^5 entries on
TRANSFER_MAX_ENTRIES = 2**16


class BlowUpError(RuntimeError):
    """Raised when the state norm leaves the trust region mid-run."""

    def __init__(self, step_index: int, time: float, norm: float):
        self.step_index = int(step_index)
        self.time = float(time)
        self.norm = float(norm)
        super().__init__(
            f"state norm {norm:.3e} exceeded {BLOWUP_NORM:.0e} at "
            f"t = {time:.6g} (step {step_index}); integration aborted"
        )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid samples of one integration run.

    ``padded_states`` prepends the resampled history, so column
    ``delay_steps + k`` holds x(t_k) and column k holds x(t_k - tau);
    ``states`` is the t >= 0 view of the same data.
    """

    step: float
    times: np.ndarray          # (K+1,)
    inputs: np.ndarray         # (m, K+1)
    outputs: np.ndarray        # (m, K+1)
    delay_steps: int
    padded_states: np.ndarray  # (n, delay_steps + K + 1)

    @property
    def states(self) -> np.ndarray:
        """(n, K+1) view of ``padded_states`` for t >= 0."""
        return self.padded_states[:, self.delay_steps :]

    @property
    def n(self) -> int:
        return self.padded_states.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True, eq=False)
class EnergyRecord:
    """Energy balance along a trajectory.

    ``supplied[k]`` is the trapezoidal estimate of the integral of y^T u
    over [0, t_k]; ``violations`` lists (step index k, gap) for every step
    where E_{k+1} - E_k exceeds the supplied energy by more than
    ``tol_energy``.
    """

    hamiltonians: np.ndarray
    supplied: np.ndarray
    violations: list[tuple[int, float]]
    tol_energy: float

    @property
    def passivity_ok(self) -> bool:
        return not self.violations


def _step_count(value: float, h: float, name: str) -> int:
    ratio = float(value) / h
    k = round(ratio) if math.isfinite(ratio) else 0
    if abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)) or k < 1:
        raise ValueError(
            f"{name} = {value!r} must be a positive integer multiple of h = {h!r}"
        )
    return int(k)


def _input_samples(inputs, times: np.ndarray, m: int) -> np.ndarray:
    """(m, K+1) input samples in a new array, which the trajectory keeps."""
    count = times.size
    if inputs is None:
        return np.zeros((m, count))
    if callable(inputs):
        cols = [np.asarray(inputs(float(t)), dtype=float).reshape(-1) for t in times]
        arr = np.array(cols).T
        if arr.shape != (m, count):
            raise ValueError(
                f"input callable must return {m} values per time, got shape {arr.shape}"
            )
    else:
        arr = np.array(inputs, dtype=float)
        if arr.ndim == 1 and m == 1:
            arr = arr.reshape(1, -1)
        if arr.shape != (m, count):
            raise ValueError(
                f"input samples must have shape ({m}, {count}), got {arr.shape}"
            )
    if not np.all(np.isfinite(arr)):
        raise ValueError("input samples contain non-finite entries")
    return arr


def _rk4_increment(a0, a1, b, h, x, now, past, hermite):
    """RK4 increment x_{k+1} - x_k over one step, column by column.

    ``now`` is the window of step k, ``[x_k; u_k; x_{k+1}; u_{k+1}]``: the
    delayed states at t_k - tau and t_{k+1} - tau and the inputs at t_k
    and t_{k+1}.  ``past`` is the window of step k - d, from which the
    right-hand side gives the delayed derivatives.  The delayed midpoint
    is the cubic Hermite value when ``hermite``, else the linear one
    (inside the history, where ``past`` is not read).
    """
    n, m = b.shape

    def f(x, xd, uu):
        return a0 @ x + a1 @ xd + b @ uu

    xd0, u0, xd1, u1 = np.split(now, np.cumsum([n, m, n]))
    um = 0.5 * (u0 + u1)
    xdm = 0.5 * (xd0 + xd1)
    if hermite:
        p0, pu0, p1, pu1 = np.split(past, np.cumsum([n, m, n]))
        xdm = xdm + 0.125 * h * (f(xd0, p0, pu0) - f(xd1, p1, pu1))
    k1 = f(x, xd0, u0)
    k2 = f(x + 0.5 * h * k1, xdm, um)
    k3 = f(x + 0.5 * h * k2, xdm, um)
    k4 = f(x + h * k3, xd1, u1)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_maps(a0, a1, b, h):
    """Matrices of the RK4 step as a linear map of work-array windows.

    A window is two consecutive rows of the work array,
    ``[x_k | u_k | x_{k+1} | u_{k+1}]``.  Returns (D, F_history, F_now,
    F_past) with x_{k+1} - x_k = D x_k + F_history w_k inside the history
    and D x_k + F_now w_k + F_past w_{k-d} after it, where w_k is the
    window of step k as a column.  Each is read off by pushing identity
    columns through ``_rk4_increment`` itself.
    """
    n, m = b.shape
    width = 2 * (n + m)
    x, now, past = np.split(np.eye(n + 2 * width), [n, n + width])
    history = _rk4_increment(a0, a1, b, h, x, now, past, False)
    hermite = _rk4_increment(a0, a1, b, h, x, now, past, True)
    return (history[:, :n], history[:, n : n + width],
            hermite[:, n : n + width], hermite[:, n + width :])


class _StepData(NamedTuple):
    """What ``integrate_dde`` derives from a system and a step size.

    All arrays are transposed, as the rows of the work array multiply
    them, and read-only.  ``powers`` holds P_o = (I + D)^o - I for
    o = 1, 2, 4, ..., ``chunk`` is the longest block, and ``transfer`` is
    the block transfer matrix T, or None where blocks run the scan.
    """

    f_history: np.ndarray
    f_now: np.ndarray
    f_past: np.ndarray
    powers: tuple
    chunk: int
    transfer: np.ndarray | None


def _step_data(system: GeneralDelaySystem, h: float, d: int) -> _StepData:
    """The RK4 maps, the doubling powers, the block length and T."""
    # the step maps, the powers and T may overflow for an unstable A0; the
    # integrator then reports the first offending step
    with np.errstate(over="ignore", invalid="ignore"):
        d_map, f_history, f_now, f_past = (
            np.ascontiguousarray(a.T)
            for a in _rk4_maps(system.A0, system.A1, system.B, h)
        )
        # P_2o = 2 P_o + P_o^2 never forms a power of I + D and so keeps
        # the rounding of small increments; doubling stops at the first
        # non-finite P_o, and offsets up to o cover 2o - 1 steps
        powers, o = [d_map], 1
        while 2 * o <= d:
            p = 2.0 * powers[-1] + powers[-1] @ powers[-1]
            if not np.isfinite(p).all():
                break
            powers.append(p)
            o *= 2
        chunk = min(d, 2 * o - 1)
        transfer = _transfer_matrix(powers, chunk)
    for arr in (f_history, f_now, f_past, *powers, transfer):
        if arr is not None:
            arr.setflags(write=False)
    return _StepData(f_history, f_now, f_past, tuple(powers), chunk, transfer)


def _transfer_matrix(powers, chunk: int) -> np.ndarray | None:
    """T with [x_0 | f_0 | ... | f_{chunk-1}] T = [x_1 - x_0 | ... | x_chunk - x_0].

    Column block j - 1 takes P_j from the x_0 row and I + P_{j-1-i} from
    the f_i row for i < j, so T is block lower-triangular Toeplitz.  Its
    leading ((span + 1) n, span n) corner serves a block of span steps.
    None when T would have more than TRANSFER_MAX_ENTRIES entries, or
    when a P_j overflows.
    """
    n = powers[0].shape[0]
    if (chunk + 1) * chunk * n * n > TRANSFER_MAX_ENTRIES:
        return None
    # P_j for j = 0 .. chunk, composed from the doubling powers bit by bit
    # as P_{o+i} = P_o + P_i + P_i P_o for i < o; every o is at most chunk
    stack = np.zeros((chunk + 1, n, n))
    for i, p in enumerate(powers):
        o = 1 << i
        low = stack[: min(o, chunk + 1 - o)]
        stack[o : o + low.shape[0]] = p + low + low @ p
    if not np.isfinite(stack).all():
        return None
    # blocks [P_0 .. P_chunk, I + P_0 .. I + P_{chunk-1}]; column block c
    # takes P_{c+1} from row block 0, I + P_{c-i} from row block 1 + i for
    # i <= c, and P_0 = 0 above the diagonal
    blocks = np.concatenate([stack, np.eye(n) + stack[:-1]])
    row = np.arange(chunk + 1)[:, None]
    col = np.arange(chunk)
    index = np.where(row == 0, col + 1,
                     np.where(row <= col + 1, chunk + 2 + col - row, 0))
    return blocks[index].transpose(0, 2, 1, 3).reshape((chunk + 1) * n, chunk * n)


def integrate_dde(
    system: GeneralDelaySystem, history: HistoryFunction, inputs, T: float, h: float
) -> Trajectory:
    """Integrate x' = A0 x + A1 x(t - tau) + B u from the given history.

    A finite ``h`` must divide both tau and a finite T exactly (within 1e-9
    relative); ``inputs`` is None (zero input), an (m, K+1) sample array on
    the step grid, or a callable t -> u(t) sampled onto it.  Raises BlowUpError when
    the state norm exceeds 1e12.

    Each block of up to d steps solves x_{j+1} = (I + D) x_j + f_j.  When
    the block transfer matrix T has at most TRANSFER_MAX_ENTRIES entries,
    a block takes one product [x_0 | f_0 ... f_{span-1}] T, whose x_0 rows
    hold P_j = (I + D)^j - I, and then adds x_0 to every state: the split
    x_0 + x_0 P_j keeps the low bits of small increments that I + P_j
    would round away.  Longer or wider blocks run the doubling scan.  The
    maps, the powers and T are stored on ``system`` per step size.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    d = _step_count(system.tau, h, "tau")
    big_k = _step_count(T, h, "T")
    n, m = system.n, system.m
    if history.n != n:
        raise ValueError(
            f"history has {history.n} state components, system has {n}"
        )
    if abs(history.span - system.tau) > 1e-9 * max(1.0, system.tau):
        raise ValueError(
            f"history covers [-{history.span}, 0] but the delay is {system.tau}"
        )
    f_history, f_now, f_past, powers, chunk, transfer = _memo(
        system, ("steps", h), lambda: _step_data(system, h, d)
    )
    # time-major work array: row r holds [x_r | u_r], x_r the padded state
    # at t_{r-d} and u_r the input at t_r (zero past K); row k of the
    # read-only ``windows`` view spans rows k and k + 1, the delayed states
    # and the inputs of step k
    try:
        work = np.zeros((d + big_k + 1, n + m))
    except ValueError:  # more rows or bytes than numpy can index
        raise ValueError(f"tau / h = {d} and T / h = {big_k} steps: the work "
                         "array is too large to hold") from None
    work[: d + 1, :n] = history.sample_at((np.arange(d + 1) - d) * h).T
    times = np.arange(big_k + 1) * h
    u = _input_samples(inputs, times, m)
    work[: big_k + 1, n:] = u.T
    windows = np.lib.stride_tricks.as_strided(
        work, (d + big_k, 2 * (n + m)), work.strides, writeable=False
    )
    # rows x_0, f_0, ..., f_{span-1} of the block being solved, and the
    # states x_1, ..., x_span that T gives
    scratch = np.empty((chunk + 1, n))
    solved = np.empty((chunk, n))
    # norms are checked once per block, so the steps after a blow-up may
    # overflow before the first offending step is reported
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = 0
        while k0 < big_k:
            # steps k0 .. k0 + span - 1 read delayed data up to row d + k0
            # only, and no block crosses step d, where the midpoint rule
            # switches from linear to Hermite
            span = min(chunk, big_k - k0, d - k0 if k0 < d else chunk)
            c0 = d + k0
            block = scratch[: span + 1]
            new = block[1:]
            block[0] = work[c0, :n]
            if k0 < d:
                np.matmul(windows[k0 : k0 + span], f_history, out=new)
            else:
                np.matmul(windows[k0 : k0 + span], f_now, out=new)
                new += windows[k0 - d : k0 - d + span] @ f_past
            if transfer is None:
                # prefix scan of x_{j+1} = (I + D) x_j + f_j in place over
                # the block: after offset o, row j holds the sum of
                # (I + D)^i applied to row j - i for i < 2o
                for i, p in enumerate(powers):
                    o = 1 << i
                    if o > span:
                        break
                    prev = block[:-o]
                    block[o:] += prev + prev @ p
            else:
                new = solved[:span]
                np.matmul(block.reshape(-1), transfer[: (span + 1) * n, : span * n],
                          out=new.reshape(-1))
                new += block[0]
            # one dot product clears a block whose squared norm sum is in
            # range; any other has each step's norm taken by hypot, which
            # does not overflow where the squares do
            if not np.vdot(new, new) <= BLOWUP_NORM**2:
                norms = np.hypot.reduce(new, axis=1)
                bad = ~(norms <= BLOWUP_NORM)
                if bad.any():
                    j = int(np.argmax(bad))
                    raise BlowUpError(k0 + j + 1, times[k0 + j + 1], norms[j])
            work[c0 + 1 : c0 + span + 1, :n] = new
            k0 += span

    x_all = work[:, :n].T.copy()
    return Trajectory(
        step=float(h),
        times=times,
        inputs=u,
        outputs=system.C @ x_all[:, d:],
        delay_steps=d,
        padded_states=x_all,
    )


def hamiltonian_series(traj: Trajectory, H, theta) -> np.ndarray:
    """Lyapunov-Krasovskii energy E_k at every step k = 0..K, in O((K + d) n^2).

    E_k = (1/2) x_k^T H x_k plus the trapezoid of g_j = x_j^T Theta x_j
    over the grid points of [t_k - tau, t_k].  The trapezoid is summed once
    over the first window and then slid one step at a time with the exact
    increment h/2 (g_{k+d} + g_{k+d+1} - g_k - g_{k+1}).  H and Theta must
    be symmetric n x n, and every E_k finite (ValueError otherwise, raised
    without a floating-point warning).
    """
    shape = (traj.n, traj.n)
    h_mat = _require_shape(require_symmetric(H, "H"), shape, "H")
    th = _require_shape(require_symmetric(theta, "theta"), shape, "theta")
    x, d, step = traj.padded_states, traj.delay_steps, traj.step
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        g = np.einsum("ij,ij->j", x, th @ x)
        first = step * (0.5 * g[0] + g[1:d].sum() + 0.5 * g[d])
        slide = 0.5 * step * (g[d:-1] + g[d + 1 :] - g[: -d - 1] - g[1:-d])
        integral = np.concatenate([[first], first + np.cumsum(slide)])
        states = traj.states
        energy = 0.5 * np.einsum("ij,ij->j", states, h_mat @ states) + integral
    if not np.isfinite(energy).all():
        raise ValueError("the energy leaves the float range")
    return energy


def monitor_dissipation(
    traj: Trajectory, H, theta, tol_energy: float | None = None
) -> EnergyRecord:
    """Check the discrete dissipation inequality step by step.

    Flags step k when E_{k+1} - E_k - supplied_k > tol_energy, where
    supplied_k is the trapezoidal estimate of the y^T u integral over one
    step.  The default tolerance is
    10 h^2 (||H||_2 + tau ||Theta||_2) max_k ||x_k||^2, the maximum taken
    over the padded states: it covers the quadrature error of both
    trapezoid rules on a resolved run, in units of energy, so scaling H
    and Theta by c > 0 scales it by c.  A given ``tol_energy`` must be
    finite and nonnegative, and the energies, the supplied energy and the
    default tolerance finite (ValueError otherwise): NaN or inf flag no step.
    """
    if tol_energy is not None and not 0.0 <= tol_energy < math.inf:
        raise ValueError("tol_energy must be finite and nonnegative")
    ham = hamiltonian_series(traj, H, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        power = np.einsum("ij,ij->j", traj.outputs, traj.inputs)
        seg = 0.5 * traj.step * (power[:-1] + power[1:])
        supplied = np.concatenate([[0.0], np.cumsum(seg)])
        if tol_energy is None:
            tau = traj.delay_steps * traj.step
            weight = spectral_norm(H) + tau * spectral_norm(theta)
            max_sq = float(np.max(np.sum(traj.padded_states**2, axis=0)))
            tol_energy = 10.0 * traj.step**2 * weight * max_sq
        gaps = ham[1:] - ham[:-1] - seg
    if not (math.isfinite(tol_energy) and np.isfinite(supplied).all()):
        raise ValueError("the energy leaves the float range: it cannot be audited")
    flagged = np.flatnonzero(gaps > tol_energy)
    violations = [(int(k), float(g)) for k, g in zip(flagged, gaps[flagged])]
    return EnergyRecord(
        hamiltonians=ham,
        supplied=supplied,
        violations=violations,
        tol_energy=float(tol_energy),
    )


def simulate_delay_ph(
    system: DelayPHSystem,
    history: HistoryFunction,
    inputs,
    T: float,
    h: float,
    monitor: bool = True,
    tol: Tolerance = DEFAULT_TOL,
):
    """Integrate a delay port-Hamiltonian system and audit its energy.

    The system must validate under ``tol``.  Converts to general
    coordinates, integrates, and (when ``monitor``) checks dissipation
    against the system's stored theta, which must then be present.
    Returns (trajectory, energy_record), the record being None when
    monitoring is off.
    """
    _require_valid(system, tol)
    if monitor and system.theta is None:
        raise ValueError(
            "monitoring requires a theta on the system; store one or pass "
            "monitor=False"
        )
    traj = integrate_dde(delay_ph_to_general(system), history, inputs, T, h)
    record = None
    if monitor:
        record = monitor_dissipation(traj, system.H, system.theta)
    return traj, record


def export_trajectory_csv(traj: Trajectory, path, energies=None) -> None:
    """Write t, x1..xn, u1..um, y1..ym, H rows with 17-digit reals.

    ``energies`` fills the H column (length K+1); without it the column is
    written as zeros (no energy matrix is known here).
    """
    count = traj.times.size
    if energies is None:
        energies = np.zeros(count)
    energies = np.asarray(energies, dtype=float).reshape(-1)
    if energies.size != count:
        raise ValueError(
            f"energies has {energies.size} entries for {count} samples"
        )
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(traj.n)]
        + [f"u{j + 1}" for j in range(traj.m)]
        + [f"y{j + 1}" for j in range(traj.m)]
        + ["H"]
    )
    columns = np.column_stack(
        [traj.times, traj.states.T, traj.inputs.T, traj.outputs.T, energies]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, columns, fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
