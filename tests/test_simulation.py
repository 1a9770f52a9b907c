import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phdelay import (
    BlowUpError,
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    SystemValidationError,
    Tolerance,
    export_trajectory_csv,
    hamiltonian_series,
    integrate_dde,
    simulate_delay_ph,
)
from phdelay.simulation import TRANSFER_MAX_ENTRIES, monitor_dissipation
from phdelay.systems import delay_ph_to_general

from helpers import (
    evaluate_hamiltonian,
    integrate_dde_stepwise,
    rand_certified_delay_ph,
)


def pure_delay_system():
    """x'(t) = -x(t - 1), which is integrable by hand interval by interval."""
    return GeneralDelaySystem(A0=[[0.0]], A1=[[-1.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)


def certified_scalar(theta=1.0):
    return DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                         G=[[1.0]], tau=1.0, theta=[[theta]])


def at(traj, t):
    k = round(t / traj.step)
    return traj.states[:, k]


# ---------------------------------------------------------------------------
# integrator accuracy


def test_method_of_steps_exact_values():
    """Piecewise-polynomial solution from constant history, exact to rounding.

    x' = -x(t-1) with x = 1 on [-1, 0] gives x(1) = 0, x(2) = -1/2,
    x(3) = -1/6; the right-hand side is polynomial of degree <= 2 on each
    interval, which the scheme reproduces exactly.
    """
    hist = HistoryFunction.constant([1.0], 1.0)
    traj = integrate_dde(pure_delay_system(), hist, None, T=3.0, h=0.1)
    assert abs(at(traj, 1.0)[0] - 0.0) < 1e-12
    assert abs(at(traj, 2.0)[0] - (-0.5)) < 1e-12
    assert abs(at(traj, 3.0)[0] - (-1.0 / 6.0)) < 1e-12
    # spot checks inside the first two intervals: 1 - t, then t^2/2 - 2t + 3/2
    assert at(traj, 0.3)[0] == pytest.approx(0.7, abs=1e-12)
    assert at(traj, 1.5)[0] == pytest.approx(1.125 - 3.0 + 1.5, abs=1e-12)


def test_delay_free_matches_exponential():
    sys1 = GeneralDelaySystem(A0=[[-1.0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([1.0], 1.0)
    traj = integrate_dde(sys1, hist, None, T=2.0, h=0.01)
    np.testing.assert_allclose(traj.states[0], np.exp(-traj.times), atol=1e-9)


def test_fourth_order_convergence():
    sys1 = GeneralDelaySystem(A0=[[-1.0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([1.0], 1.0)
    errs = {}
    for h in (0.02, 0.01):
        traj = integrate_dde(sys1, hist, None, T=1.0, h=h)
        errs[h] = abs(traj.states[0, -1] - math.exp(-1.0))
    assert errs[0.02] / errs[0.01] > 10.0  # ~16 for a fourth-order scheme


def test_grid_and_history_validation():
    hist = HistoryFunction.constant([1.0], 1.0)
    with pytest.raises(ValueError, match="integer multiple"):
        integrate_dde(pure_delay_system(), hist, None, T=1.0, h=0.3)
    with pytest.raises(ValueError, match="integer multiple"):
        integrate_dde(pure_delay_system(), hist, None, T=1.05, h=0.1)
    with pytest.raises(ValueError, match="h must be positive"):
        integrate_dde(pure_delay_system(), hist, None, T=1.0, h=0.0)
    with pytest.raises(ValueError, match="state components"):
        integrate_dde(pure_delay_system(),
                      HistoryFunction.constant([1.0, 2.0], 1.0),
                      None, T=1.0, h=0.1)
    with pytest.raises(ValueError, match="history covers"):
        integrate_dde(pure_delay_system(),
                      HistoryFunction.constant([1.0], 0.5),
                      None, T=1.0, h=0.1)


@pytest.mark.parametrize("T, h, name", [
    (math.inf, 0.1, "T"), (math.nan, 0.1, "T"), (1.0, math.inf, "h"),
], ids=["T-inf", "T-nan", "h-inf"])
def test_non_finite_step_arguments_are_named(T, h, name):
    hist = HistoryFunction.constant([1.0], 1.0)
    with pytest.raises(ValueError, match=rf"^{name} (=|must)"):
        integrate_dde(pure_delay_system(), hist, None, T=T, h=h)


def test_zero_history_zero_input_stays_zero():
    hist = HistoryFunction.constant([0.0], 1.0)
    traj = integrate_dde(pure_delay_system(), hist, None, T=2.0, h=0.05)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_integration_is_deterministic():
    sys1 = certified_scalar()
    hist = HistoryFunction.constant([0.5], 1.0)
    t1, _ = simulate_delay_ph(sys1, hist, lambda t: math.sin(t), 2.0, 0.01)
    t2, _ = simulate_delay_ph(sys1, hist, lambda t: math.sin(t), 2.0, 0.01)
    assert np.array_equal(t1.states, t2.states)


def test_blow_up_detection():
    sys1 = GeneralDelaySystem(A0=[[30.0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([1.0], 1.0)
    with pytest.raises(BlowUpError) as info:
        integrate_dde(sys1, hist, None, T=2.0, h=0.01)
    err = info.value
    assert err.norm > 1e12
    assert 0 < err.step_index <= 200
    assert err.time == pytest.approx(err.step_index * 0.01)


@pytest.mark.parametrize(
    "d, big_k",
    [(1, 1), (1, 13), (2, 1), (2, 9), (7, 3), (7, 30), (20, 7), (20, 47)],
)
def test_block_integrator_matches_stepwise_oracle(d, big_k):
    """Blocks of d steps reproduce the stage-by-stage scheme to rounding."""
    rng = np.random.default_rng([d, big_k])
    n, m, h = 3, 2, 0.05
    sys1 = GeneralDelaySystem(
        A0=rng.standard_normal((n, n)) - 2.0 * np.eye(n),
        A1=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((m, n)),
        tau=d * h,
    )
    grid = np.linspace(-d * h, 0.0, 6)
    hist = HistoryFunction(grid, rng.standard_normal((n, grid.size)))
    u = rng.standard_normal((m, big_k + 1))
    traj = integrate_dde(sys1, hist, u, big_k * h, h)
    ref = integrate_dde_stepwise(sys1, hist, u, big_k * h, h)
    assert traj.padded_states.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(traj.padded_states - ref)) <= 1e-12 * scale


def test_block_integrator_matches_stepwise_oracle_at_audit_scale():
    """n = 32, d = 1000: the window of step k - d spans two blocks."""
    rng = np.random.default_rng(32)
    n, m, d, h = 32, 2, 1000, 1e-3
    big_k = 2 * d + 7
    scale = 0.5 / math.sqrt(n)
    sys1 = GeneralDelaySystem(
        A0=scale * rng.standard_normal((n, n)) - 2.0 * np.eye(n),
        A1=scale * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((m, n)),
        tau=d * h,
    )
    grid = np.linspace(-d * h, 0.0, 9)
    hist = HistoryFunction(grid, rng.standard_normal((n, grid.size)))
    u = rng.standard_normal((m, big_k + 1))
    traj = integrate_dde(sys1, hist, u, big_k * h, h)
    ref = integrate_dde_stepwise(sys1, hist, u, big_k * h, h)
    assert traj.padded_states.shape == ref.shape
    assert np.max(np.abs(traj.padded_states - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_integration_writes_no_caller_array():
    """Inputs and history are only read, and the trajectory owns its
    states: no view of the integrator's work array leaks out."""
    rng = np.random.default_rng(3)
    sys1 = GeneralDelaySystem(A0=-np.eye(2), A1=0.3 * rng.standard_normal((2, 2)),
                              B=rng.standard_normal((2, 1)), C=np.ones((1, 2)),
                              tau=0.5)
    hist = HistoryFunction(np.linspace(-0.5, 0.0, 4), rng.standard_normal((2, 4)))
    grid, values = hist.grid.copy(), hist.values.copy()
    u = rng.standard_normal((1, 31))
    before = u.copy()
    traj = integrate_dde(sys1, hist, u, 3.0, 0.1)
    np.testing.assert_array_equal(u, before)
    np.testing.assert_array_equal(hist.grid, grid)
    np.testing.assert_array_equal(hist.values, values)
    assert not np.shares_memory(traj.inputs, u)
    padded = traj.padded_states
    assert padded.flags.c_contiguous and padded.base is None


@st.composite
def scan_cases(draw):
    """(n, d, K, seed, shift): K below d or past it but off its multiples."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 64))
    if d > 1 and draw(st.booleans()):
        big_k = draw(st.integers(1, d - 1))
    else:
        big_k = d * draw(st.integers(1, 3)) + draw(st.integers(min(1, d - 1), d - 1))
    shift = draw(st.sampled_from([-2.0, 0.3]))  # stable or mildly unstable A0
    return n, d, big_k, draw(st.integers(0, 2**32 - 1)), shift


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scan_cases())
def test_block_scan_matches_stepwise_oracle(case):
    """The doubling scan reproduces the stage-by-stage scheme to rounding."""
    n, d, big_k, seed, shift = case
    rng = np.random.default_rng(seed)
    m, h = 2, 0.05
    sys1 = GeneralDelaySystem(
        A0=0.5 * rng.standard_normal((n, n)) + shift * np.eye(n),
        A1=0.5 * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((m, n)),
        tau=d * h,
    )
    grid = np.linspace(-d * h, 0.0, 5)
    hist = HistoryFunction(grid, rng.standard_normal((n, grid.size)))
    u = rng.standard_normal((m, big_k + 1))
    traj = integrate_dde(sys1, hist, u, big_k * h, h)
    ref = integrate_dde_stepwise(sys1, hist, u, big_k * h, h)
    assert traj.padded_states.shape == ref.shape
    assert np.max(np.abs(traj.padded_states - ref)) <= 1e-12 * np.max(np.abs(ref))


@st.composite
def solver_cases(draw):
    """(n, m, d, K, seed, scan): d on the side of the T bound that ``scan``
    names, K from 1 to 3d."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 2))
    # the least d whose transfer matrix exceeds TRANSFER_MAX_ENTRIES
    first_scan = next(d for d in range(1, 300)
                      if (d + 1) * d * n * n > TRANSFER_MAX_ENTRIES)
    scan = draw(st.booleans())
    if scan:
        d = draw(st.integers(first_scan, first_scan + 20))
    else:
        d = draw(st.integers(1, min(40, first_scan - 1)))
    big_k = draw(st.integers(1, 3 * d))
    return n, m, d, big_k, draw(st.integers(0, 2**32 - 1)), scan


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(solver_cases())
def test_both_block_solvers_match_stepwise_oracle(case):
    """The transfer-matrix product and the doubling scan each reproduce
    the stage-by-stage scheme to rounding, with random inputs."""
    n, m, d, big_k, seed, scan = case
    rng = np.random.default_rng(seed)
    h = 0.05
    sys1 = GeneralDelaySystem(
        A0=0.5 * rng.standard_normal((n, n)) - np.eye(n),
        A1=0.5 * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((m, n)),
        tau=d * h,
    )
    grid = np.linspace(-d * h, 0.0, 5)
    hist = HistoryFunction(grid, rng.standard_normal((n, grid.size)))
    u = rng.standard_normal((m, big_k + 1))
    traj = integrate_dde(sys1, hist, u, big_k * h, h)
    ref = integrate_dde_stepwise(sys1, hist, u, big_k * h, h)
    assert (sys1._cache[("steps", h)].transfer is None) == scan
    assert traj.padded_states.shape == ref.shape
    assert np.max(np.abs(traj.padded_states - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_unstable_zero_history_stays_exactly_zero():
    """Powers of I + D overflow here; blocks shrink instead of making 0 * inf."""
    sys1 = GeneralDelaySystem(A0=[[1e4]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_dde(sys1, HistoryFunction.constant([0.0], 1.0),
                             None, T=3.0, h=0.01)
    assert np.all(traj.padded_states == 0.0)


def test_short_blocks_keep_the_midpoint_rule_of_their_steps():
    """Shortened blocks must still switch from linear to Hermite at step d.

    The overflowing unstable mode caps blocks below d = 100 steps, while
    the decoupled stable mode reads its own delayed state through both
    midpoint rules.
    """
    sys1 = GeneralDelaySystem(A0=np.diag([1e4, -1.0]), A1=np.diag([0.0, -0.5]),
                              B=np.zeros((2, 1)), C=np.zeros((1, 2)), tau=1.0)
    s = np.linspace(-1.0, 0.0, 201)
    hist = HistoryFunction(s, np.vstack([np.zeros_like(s), np.cos(3.0 * s)]))
    traj = integrate_dde(sys1, hist, None, T=3.0, h=0.01)
    ref = integrate_dde_stepwise(sys1, hist, np.zeros((1, 301)), 3.0, 0.01)
    assert np.all(traj.padded_states[0] == 0.0)
    assert np.max(np.abs(traj.padded_states - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_block_scan_rounding_does_not_accumulate():
    """A lossless rotation over 10^4 steps stays within 5e-14 of the oracle.

    Both block solvers apply P_j = (I + D)^j - I, not (I + D)^j: rounding
    I + D drops the low bits of each small increment, which on this run
    drifts the states by about 4e-13 of their size.  tau = 0.2 (d = 20)
    takes the transfer matrix, tau = 2.0 (d = 200) the scan.
    """
    for tau, scan in ((0.2, False), (2.0, True)):
        sys1 = GeneralDelaySystem(A0=[[0.0, 1.0], [-1.0, 0.0]], A1=np.zeros((2, 2)),
                                  B=np.zeros((2, 1)), C=np.zeros((1, 2)), tau=tau)
        hist = HistoryFunction.constant([1.0, 0.0], tau)
        traj = integrate_dde(sys1, hist, None, T=100.0, h=0.01)
        ref = integrate_dde_stepwise(sys1, hist, np.zeros((1, 10001)), 100.0, 0.01)
        assert (sys1._cache[("steps", 0.01)].transfer is None) == scan
        assert np.max(np.abs(traj.padded_states - ref)) <= 5e-14


def test_transfer_matrix_keeps_the_low_bits_of_small_increments():
    """The state rows of T hold P_j and x_0 is added after the product.

    At h = 1e-7 each block moves the state by about 2e-6 of its size.
    x_0 + x_0 P_j stays within about 6e-16 of the oracle over 10^4 steps;
    I + P_j in T's state rows would round those increments and drift by
    about 2e-14.
    """
    h, d, big_k = 1e-7, 20, 10000
    sys1 = GeneralDelaySystem(A0=[[0.0, 1.0], [-1.0, 0.0]], A1=np.zeros((2, 2)),
                              B=np.zeros((2, 1)), C=np.zeros((1, 2)), tau=d * h)
    hist = HistoryFunction.constant([1.0, 0.0], d * h)
    traj = integrate_dde(sys1, hist, None, big_k * h, h)
    ref = integrate_dde_stepwise(sys1, hist, np.zeros((1, big_k + 1)), big_k * h, h)
    assert sys1._cache[("steps", h)].transfer is not None
    assert np.max(np.abs(traj.padded_states - ref)) <= 5e-15


@pytest.mark.parametrize("a0, tau", [(1e4, 1.0), (30.0, 0.1)])
def test_blow_up_inside_a_block(a0, tau):
    """The abort names the oracle's step, and no overflow warning escapes."""
    sys1 = GeneralDelaySystem(A0=[[a0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=tau)
    h, d = 0.01, round(tau / 0.01)
    hist = HistoryFunction.constant([1.0], tau)
    with pytest.raises(BlowUpError) as oracle:
        integrate_dde_stepwise(sys1, hist, np.zeros((1, 201)), 2.0, h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            integrate_dde(sys1, hist, None, 2.0, h)
    err = info.value
    assert err.step_index == oracle.value.step_index
    assert err.step_index % d not in (0, 1)  # strictly inside its block
    assert err.time == oracle.value.time
    assert err.norm == pytest.approx(oracle.value.norm, rel=1e-12)


def test_overflowing_step_map_aborts_without_a_warning():
    """An A0 whose RK4 map itself overflows stops at step 1, warning-free."""
    sys1 = GeneralDelaySystem(A0=[[1e80]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([1.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            integrate_dde(sys1, hist, None, 2.0, 1.0)
    assert info.value.step_index == 1


def test_blow_up_reports_the_norm_of_a_state_beyond_the_square_range():
    """A state near 6.25e158 has a finite norm even though its square
    overflows; by linearity it is 1e160 times the state from history 1."""
    sys1 = delay_ph_to_general(DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]],
                                             Z=[[1.0]], G=[[1.0]], tau=1.0))
    unit = integrate_dde(sys1, HistoryFunction.constant([1.0], 1.0), None, 0.5, 0.5)
    with pytest.raises(BlowUpError) as info:
        integrate_dde(sys1, HistoryFunction.constant([1e160], 1.0), None, 2.0, 0.5)
    err = info.value
    assert err.step_index == 1
    assert err.norm == pytest.approx(1e160 * abs(unit.states[0, 1]), rel=1e-14)
    assert "inf" not in str(err)


def test_input_forms_agree():
    sys1 = GeneralDelaySystem(A0=[[-1.0]], A1=[[-0.2]], B=[[1.0]], C=[[1.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([0.0], 1.0)
    times = np.arange(0, 21) * 0.1
    samples = np.sin(times).reshape(1, -1)
    via_callable = integrate_dde(sys1, hist, lambda t: math.sin(t), 2.0, 0.1)
    via_array = integrate_dde(sys1, hist, samples, 2.0, 0.1)
    via_flat = integrate_dde(sys1, hist, np.sin(times), 2.0, 0.1)
    assert np.array_equal(via_callable.states, via_array.states)
    assert np.array_equal(via_array.states, via_flat.states)
    assert not np.all(via_array.states == 0.0)


def test_input_validation():
    sys1 = GeneralDelaySystem(A0=[[-1.0]], A1=[[0.0]], B=[[1.0]], C=[[1.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([0.0], 1.0)
    with pytest.raises(ValueError, match="shape"):
        integrate_dde(sys1, hist, np.zeros((1, 7)), 2.0, 0.1)
    with pytest.raises(ValueError, match="callable"):
        integrate_dde(sys1, hist, lambda t: [1.0, 2.0], 2.0, 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        integrate_dde(sys1, hist, np.full((1, 21), np.nan), 2.0, 0.1)


def test_trajectory_window_alignment():
    hist = HistoryFunction.constant([1.0], 1.0)
    traj = integrate_dde(pure_delay_system(), hist, None, T=2.0, h=0.25)
    d = traj.delay_steps
    assert d == 4
    np.testing.assert_array_equal(traj.padded_states[:, d:], traj.states)
    assert np.shares_memory(traj.states, traj.padded_states)
    assert traj.padded_states.shape == (1, d + traj.times.size)
    # columns k..k+d hold x on [t_k - tau, t_k]; for k = 0, the history
    window = traj.padded_states[:, : d + 1]
    np.testing.assert_array_equal(window[:, -1], traj.states[:, 0])
    np.testing.assert_array_equal(window, hist.sample_at((np.arange(d + 1) - d) * 0.25))


# ---------------------------------------------------------------------------
# energy evaluation and monitoring


def test_hamiltonian_constant_state():
    """Constant trajectories make both quadrature rules exact."""
    sys1 = GeneralDelaySystem(A0=[[0.0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    hist = HistoryFunction.constant([3.0], 1.0)
    traj = integrate_dde(sys1, hist, None, T=1.0, h=0.1)
    for k in (0, 5, 10):
        e = hamiltonian_series(traj, [[2.0]], [[0.5]])[k]
        assert e == pytest.approx(0.5 * 2.0 * 9.0 + 1.0 * 0.5 * 9.0, abs=1e-12)


@pytest.mark.parametrize("H, theta, name", [
    (np.eye(2), [[0.5]], "H"), ([[2.0]], np.eye(2), "theta"),
], ids=["H", "theta"])
def test_hamiltonian_series_names_a_misshapen_weight(H, theta, name):
    sys1 = GeneralDelaySystem(A0=[[0.0]], A1=[[0.0]], B=[[0.0]], C=[[0.0]],
                              tau=1.0)
    traj = integrate_dde(sys1, HistoryFunction.constant([3.0], 1.0), None,
                         T=1.0, h=0.1)
    with pytest.raises(ValueError, match=rf"^{name} has shape \(2, 2\), expected \(1, 1\)"):
        hamiltonian_series(traj, H, theta)


def test_hamiltonian_trapezoid_error_bound():
    """x(t) = t makes the memory integral cubic; trapezoid error is O(h^2)."""
    sys1 = GeneralDelaySystem(A0=[[0.0]], A1=[[0.0]], B=[[1.0]], C=[[1.0]],
                              tau=1.0)
    grid = np.linspace(-1.0, 0.0, 11)
    hist = HistoryFunction(grid, grid.reshape(1, -1))
    h = 0.1
    traj = integrate_dde(sys1, hist, lambda t: 1.0, T=2.0, h=h)
    np.testing.assert_allclose(traj.states[0], traj.times, atol=1e-12)
    for k in (0, 10, 20):
        t = traj.times[k]
        exact = 0.5 * t * t + (t**3 - (t - 1.0) ** 3) / 3.0
        got = hamiltonian_series(traj, [[1.0]], [[1.0]])[k]
        assert abs(got - exact) <= h * h / 3.0


@pytest.mark.parametrize(
    "tau, T, h",
    [(0.1, 2.0, 0.1), (1.0, 0.5, 0.1), (0.5, 3.0, 0.05)],
    ids=["d=1", "K<d", "d=10"],
)
def test_hamiltonian_series_matches_per_step_evaluation(tau, T, h):
    rng = np.random.default_rng(17)
    sys1 = rand_certified_delay_ph(rng, 3, m=2, tau=tau)
    hist = HistoryFunction.constant(rng.standard_normal(3), tau)
    traj = integrate_dde(delay_ph_to_general(sys1), hist,
                         lambda t: [math.sin(t), 1.0], T, h)
    series = hamiltonian_series(traj, sys1.H, sys1.theta)
    per_step = np.array([
        evaluate_hamiltonian(traj, sys1.H, sys1.theta, k)
        for k in range(traj.times.size)
    ])
    assert series.shape == per_step.shape
    assert np.max(np.abs(series - per_step)) <= 1e-12 * np.max(np.abs(per_step))


def test_monitor_certified_system_no_violations():
    sys1 = certified_scalar()
    hist = HistoryFunction.constant([0.5], 1.0)
    for inputs in (None, lambda t: 1.0, lambda t: math.sin(t)):
        traj, record = simulate_delay_ph(sys1, hist, inputs, T=3.0, h=1e-3)
        assert record.passivity_ok
        assert record.hamiltonians.size == traj.times.size
        assert record.supplied[0] == 0.0


def test_monitor_energy_decays_unforced():
    traj, record = simulate_delay_ph(certified_scalar(),
                                     HistoryFunction.constant([0.5], 1.0),
                                     None, T=3.0, h=1e-3)
    gaps = np.diff(record.hamiltonians)
    assert np.all(gaps <= record.tol_energy)
    assert record.hamiltonians[-1] < record.hamiltonians[0]
    assert np.all(record.supplied == 0.0)


def test_monitor_flags_wrong_theta_on_lossless_rotation():
    """A conserved quadratic plus a bogus memory weight must be caught.

    With pure rotation the kinetic part (1/2)||x||^2 is constant while
    int x_1^2 over the trailing window oscillates, so theta = diag(1, 0)
    produces spurious energy gains far above quadrature error.
    """
    sys1 = GeneralDelaySystem(A0=[[0.0, 1.0], [-1.0, 0.0]],
                              A1=np.zeros((2, 2)), B=np.zeros((2, 1)),
                              C=np.zeros((1, 2)), tau=1.0)
    s = np.linspace(-1.0, 0.0, 201)
    hist = HistoryFunction(s, np.vstack([np.cos(s), -np.sin(s)]))
    traj = integrate_dde(sys1, hist, None, T=4.0, h=5e-3)
    kinetic = 0.5 * np.sum(traj.states**2, axis=0)
    np.testing.assert_allclose(kinetic, kinetic[0], atol=1e-9)
    record = monitor_dissipation(traj, np.eye(2), np.diag([1.0, 0.0]))
    assert not record.passivity_ok
    steps = [k for k, _ in record.violations]
    gaps = [g for _, g in record.violations]
    assert all(0 <= k < traj.times.size - 1 for k in steps)
    assert max(gaps) > 5.0 * record.tol_energy
    # no input: every step whose energy gain exceeds the tolerance, in order
    gains = np.diff(record.hamiltonians).tolist()
    assert record.violations == [
        (k, g) for k, g in enumerate(gains) if g > record.tol_energy
    ]
    assert all(type(k) is int and type(g) is float for k, g in record.violations)


def test_monitor_flags_uncertifiable_scalar_pair():
    """a1 > a0 admits no valid theta; sweeping histories exposes gains."""
    sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[1.0]], Z=[[2.0]],
                         G=[[1.0]], tau=1.0, theta=[[0.5]])
    s = np.linspace(-1.0, 0.0, 201)
    flagged = 0
    for omega in (0.5, 1.0, 2.0, 3.0, 4.0):
        hist = HistoryFunction(s, np.cos(omega * s).reshape(1, -1))
        _, record = simulate_delay_ph(sys1, hist, None, T=4.0, h=2e-3)
        flagged += 0 if record.passivity_ok else 1
    assert flagged >= 1


@pytest.mark.parametrize("c", [1.0, 1e-2])
def test_monitor_verdict_is_unit_free(c):
    """Scaling H, R, Z and Theta by c leaves the dynamics and the flags alone.

    The energy scales by c, and so must the default tolerance; one in units
    of state squared passed every step of this uncertifiable run at c = 1e-2.
    """
    def audit(scale):
        sys1 = DelayPHSystem(H=[[scale]], J=[[0.0]], R=[[scale]], Z=[[2.0 * scale]],
                             G=[[1.0]], tau=1.0, theta=[[0.5 * scale]])
        s = np.linspace(-1.0, 0.0, 201)
        hist = HistoryFunction(s, np.cos(2.0 * s).reshape(1, -1))
        return simulate_delay_ph(sys1, hist, None, T=4.0, h=2e-3)

    traj, ref = audit(1.0)
    scaled_traj, record = audit(c)
    assert np.array_equal(scaled_traj.padded_states, traj.padded_states)
    assert record.tol_energy == pytest.approx(c * ref.tol_energy, rel=1e-12)
    assert ref.violations
    assert [k for k, _ in record.violations] == [k for k, _ in ref.violations]


def test_monitor_explicit_tolerance():
    traj, _ = simulate_delay_ph(certified_scalar(),
                                HistoryFunction.constant([0.5], 1.0),
                                None, T=1.0, h=0.01)
    record = monitor_dissipation(traj, [[1.0]], [[1.0]], tol_energy=0.5)
    assert record.tol_energy == 0.5
    assert record.passivity_ok


@pytest.mark.parametrize("tol_energy", [math.nan, -1.0, math.inf])
def test_monitor_rejects_a_non_finite_or_negative_tolerance(tol_energy):
    traj, _ = simulate_delay_ph(certified_scalar(),
                                HistoryFunction.constant([0.5], 1.0),
                                None, T=1.0, h=0.01, monitor=False)
    with pytest.raises(ValueError, match="tol_energy must be finite and nonnegative"):
        monitor_dissipation(traj, [[1.0]], [[1.0]], tol_energy=tol_energy)
    assert monitor_dissipation(traj, [[1.0]], [[1.0]], tol_energy=0.0).tol_energy == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h_diag, r_diag, theta_diag, history", [
    ([1e308], [1e308], [1e307], [5.0]),  # the energy overflows
    ([1e308, 1e300], [1e308, 1e300], [1.0, 1.0], [0.0, 100.0]),  # its tolerance
], ids=["energy", "tolerance"])
def test_monitor_rejects_an_energy_beyond_the_float_range(h_diag, r_diag, theta_diag,
                                                          history):
    """An audit whose energy or default tolerance overflows cannot flag a
    step: it raises, and leaks no floating-point warning."""
    n = len(h_diag)
    huge = DelayPHSystem(H=np.diag(h_diag), J=np.zeros((n, n)), R=np.diag(r_diag),
                         Z=np.zeros((n, n)), G=np.ones((n, 1)), tau=1.0,
                         theta=np.diag(theta_diag))
    with pytest.raises(ValueError, match="energy leaves the float range"):
        simulate_delay_ph(huge, HistoryFunction.constant(history, 1.0), None,
                          T=1.0, h=0.5)


@pytest.mark.filterwarnings("error")
def test_hamiltonian_series_rejects_an_energy_beyond_the_float_range():
    """H = R = 1e308, Theta = 1e307 and x = 5: the unmonitored run is in
    range, its energy is not, and computing it leaks no warning."""
    huge = DelayPHSystem(H=[[1e308]], J=[[0.0]], R=[[1e308]], Z=[[0.0]], G=[[1.0]],
                         tau=1.0, theta=[[1e307]])
    traj, _ = simulate_delay_ph(huge, HistoryFunction.constant([5.0], 1.0), None,
                                T=1.0, h=0.5, monitor=False)
    with pytest.raises(ValueError, match="^the energy leaves the float range$"):
        hamiltonian_series(traj, huge.H, huge.theta)


def test_simulate_requires_theta_for_monitoring():
    bare = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                         G=[[1.0]], tau=1.0)
    hist = HistoryFunction.constant([0.5], 1.0)
    with pytest.raises(ValueError, match="monitor"):
        simulate_delay_ph(bare, hist, None, T=1.0, h=0.1)
    traj, record = simulate_delay_ph(bare, hist, None, T=1.0, h=0.1,
                                     monitor=False)
    assert record is None
    assert traj.times[-1] == pytest.approx(1.0)


def test_simulate_validates_system():
    bad = DelayPHSystem(H=[[-1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                        G=[[1.0]], tau=1.0, theta=[[1.0]])
    with pytest.raises(SystemValidationError):
        simulate_delay_ph(bad, HistoryFunction.constant([0.5], 1.0),
                          None, T=1.0, h=0.1)


@pytest.mark.parametrize("monitor", [True, False])
def test_simulate_validates_under_the_given_tolerance(monitor):
    """Theta = -1e-6 is PSD within psd_tol = 1e-3, not within the default."""
    near = certified_scalar(theta=-1e-6)
    hist = HistoryFunction.constant([0.5], 1.0)
    with pytest.raises(SystemValidationError, match="theta is not positive semidefinite"):
        simulate_delay_ph(near, hist, None, T=1.0, h=0.1, monitor=monitor)
    traj, record = simulate_delay_ph(near, hist, None, T=1.0, h=0.1,
                                     monitor=monitor, tol=Tolerance(psd_tol=1e-3))
    assert traj.times[-1] == pytest.approx(1.0)
    assert (record is None) == (not monitor)


def test_simulate_monitor_matches_manual_call():
    sys1 = certified_scalar()
    hist = HistoryFunction.constant([0.5], 1.0)
    traj, record = simulate_delay_ph(sys1, hist, lambda t: 1.0, T=2.0, h=0.05)
    manual = monitor_dissipation(traj, sys1.H, sys1.theta)
    assert np.array_equal(record.hamiltonians, manual.hamiltonians)
    assert record.violations == manual.violations


# ---------------------------------------------------------------------------
# CSV export


def test_csv_round_trip(tmp_path):
    sys1 = certified_scalar()
    hist = HistoryFunction.constant([1.0 / 3.0], 1.0)
    traj, record = simulate_delay_ph(sys1, hist, lambda t: math.sin(t),
                                     T=1.0, h=0.25)
    path = tmp_path / "run.csv"
    export_trajectory_csv(traj, path, energies=record.hamiltonians)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,u1,y1,H"
    assert len(lines) == traj.times.size + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.states[0])
    assert np.array_equal(data[:, 2], traj.inputs[0])
    assert np.array_equal(data[:, 3], traj.outputs[0])
    assert np.array_equal(data[:, 4], record.hamiltonians)


def test_csv_default_energy_column_and_checks(tmp_path):
    hist = HistoryFunction.constant([1.0], 1.0)
    traj = integrate_dde(pure_delay_system(), hist, None, T=1.0, h=0.5)
    path = tmp_path / "bare.csv"
    export_trajectory_csv(traj, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(data[:, -1] == 0.0)
    with pytest.raises(ValueError, match="entries"):
        export_trajectory_csv(traj, path, energies=[1.0, 2.0])
