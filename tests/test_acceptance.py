"""End-to-end acceptance checks, one per published capability.

Each test prints one PASS/FAIL line (with its runtime budget) so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Numeric
tolerances are part of the contract and are asserted literally.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from phdelay import (
    CERTIFIED,
    DISSIPATIVE,
    POWER_CONSERVING,
    DelayPHSystem,
    GeneralDelaySystem,
    HistoryFunction,
    StandardLTISystem,
    certify_delay_ph,
    certify_interconnection,
    check_necessary,
    classify_feedback,
    construct_theta,
    delay_ph_to_general,
    exists_certifying_theta_grid,
    integrate_dde,
    ph_condition_matrix,
    simulate_delay_ph,
)
from phdelay.linalg import spectral_norm, sym_part, whitening_basis
from phdelay.standard import kyp_matrix, weighted_system_matrix
from helpers import rand_antisym, rand_certified_delay_ph, rand_spd

SQ3 = math.sqrt(3.0)


@contextlib.contextmanager
def criterion(num, budget, desc):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc} "
              f"[{elapsed:.2f}s/{budget:.0f}s]")


def scalar_system(a0=2.0, a1=1.0):
    return DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[a0]], Z=[[a1]],
                         G=[[1.0]], tau=1.0)


def plain_system(r, z):
    n = r.shape[0]
    return DelayPHSystem(H=np.eye(n), J=np.zeros((n, n)), R=r, Z=z,
                         G=np.zeros((n, 1)), tau=1.0)


def test_criterion_01_scalar_interval_via_bisection():
    with criterion(1, 1.0, "scalar certified-theta set matches the closed form"):
        sys1 = scalar_system()

        def certifies(theta):
            return certify_delay_ph(sys1, [[theta]]).verdict == CERTIFIED

        def bisect(lo, hi):
            # invariant: the predicate differs at lo and hi
            flo = certifies(lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if certifies(mid) == flo:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert not certifies(0.0) and certifies(1.0) and not certifies(3.0)
        lower = bisect(0.0, 1.0)
        upper = bisect(1.0, 3.0)
        assert abs(lower - (1.0 - SQ3 / 2.0)) < 1e-6
        assert abs(upper - (1.0 + SQ3 / 2.0)) < 1e-6


def test_criterion_02_weak_dissipation_never_certifies():
    with criterion(2, 5.0, "no theta certifies when coupling beats dissipation"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a1 = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
            a0 = rng.uniform(0.0, 0.999) * abs(a1)
            sys1 = scalar_system(a0, a1)
            grid = np.linspace(0.0, 2.0 * (a0 + abs(a1)) + 1.0, 100)
            for theta in grid:
                cert = certify_delay_ph(sys1, [[theta]])
                assert cert.verdict != CERTIFIED, (a0, a1, theta)


def test_criterion_03_construction_declines_but_explicit_theta_works():
    with criterion(3, 1.0, "coupling above one refuses construction, "
                           "explicit theta still certifies"):
        r = np.eye(2)
        z = np.array([[0.0, 1.0 / SQ3], [2.0 / SQ3, 0.0]])
        out = construct_theta(r, z)
        assert not out.success
        assert out.interval.sigma == pytest.approx(2.0 / SQ3, abs=1e-12)
        cert = certify_delay_ph(plain_system(r, z), np.diag([0.5, 0.25]))
        assert cert.verdict == CERTIFIED
        assert cert.min_eigenvalue >= -1e-9


def test_criterion_04_construction_sound_with_tight_endpoints():
    with criterion(4, 30.0, "constructed theta certifies; interval endpoints "
                            "are tight (500 instances)"):
        rng = np.random.default_rng(103)
        for trial in range(500):
            n = int(rng.integers(1, 7))
            rank = n if trial % 5 else max(1, n - int(rng.integers(1, n + 1)))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = np.concatenate([rng.uniform(0.3, 2.0, rank),
                                np.zeros(n - rank)])
            r = q @ np.diag(d) @ q.T
            r = 0.5 * (r + r.T)
            basis = q[:, :rank]
            proj = basis @ basis.T
            z = proj @ rng.standard_normal((n, n)) @ proj
            v1, _ = whitening_basis(r)
            coupling = np.linalg.norm(v1.T @ z @ v1, 2)
            if coupling > 0.0:
                z *= rng.uniform(0.0, 1.0) / coupling
            out = construct_theta(r, z)
            assert out.success, (trial, out.reason)
            cert = certify_delay_ph(plain_system(r, z), out.theta)
            assert cert.verdict == CERTIFIED, trial
            norm_r = spectral_norm(r)
            for alpha in (out.interval.lo, out.interval.hi):
                lam = np.linalg.eigvalsh(
                    ph_condition_matrix(r, z, alpha * r)
                )[0]
                assert -1e-9 <= lam <= 1e-5 * norm_r, (trial, alpha, lam)


def test_criterion_05_necessary_conditions_on_certified_instances():
    with criterion(5, 30.0, "kernel conditions hold on 500 certified instances"):
        rng = np.random.default_rng(105)
        for trial in range(500):
            n = int(rng.integers(1, 7))
            sys1 = rand_certified_delay_ph(rng, n)
            cert = certify_delay_ph(sys1)
            assert cert.verdict == CERTIFIED and cert.min_eigenvalue >= 1e-6
            conditions = check_necessary(sys1.R, sys1.theta, sys1.Z)
            assert conditions.all_hold, trial


def test_criterion_06_dissipativity_matrix_identity():
    with criterion(6, 5.0, "structure test equals -2 sym of the weighted "
                           "system matrix (100 instances)"):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            sys1 = StandardLTISystem(rng.standard_normal((n, n)),
                                     rng.standard_normal((n, m)),
                                     rng.standard_normal((m, n)))
            h = rand_spd(rng, n)
            lhs = kyp_matrix(sys1, h)
            rhs = -2.0 * sym_part(weighted_system_matrix(sys1, h))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_07_classical_quadratic_crosscheck():
    with criterion(7, 10.0, "delay certificates survive the classical "
                            "quadratic storage test (200 instances)"):
        rng = np.random.default_rng(109)
        for trial in range(200):
            n = int(rng.integers(1, 6))
            sys1 = rand_certified_delay_ph(rng, n)
            theta = sys1.theta
            gen = delay_ph_to_general(sys1)
            q = 0.5 * sys1.H
            lhs = (gen.A0.T @ q + q @ gen.A0
                   + q @ gen.A1 @ np.linalg.solve(theta, gen.A1.T @ q)
                   + theta)
            assert np.linalg.eigvalsh(-lhs)[0] >= -1e-9, trial
            rhs = (-sys1.R + theta
                   + 0.25 * sys1.Z @ np.linalg.solve(theta, sys1.Z.T))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10, trial


def test_criterion_08_interconnection_closure():
    with criterion(8, 30.0, "200 power-conserving/dissipative couplings all "
                            "stay certified"):
        rng = np.random.default_rng(111)
        for trial in range(200):
            n1, n2 = (int(v) for v in rng.integers(1, 4, 2))
            m1, m2 = (int(v) for v in rng.integers(1, 3, 2))
            sys1 = rand_certified_delay_ph(rng, n1, m=m1)
            sys2 = rand_certified_delay_ph(rng, n2, m=m2)
            f = rand_antisym(rng, m1 + m2)
            if trial % 2:
                f = f - np.diag(rng.uniform(0.05, 1.0, m1 + m2))
                assert classify_feedback(f) == DISSIPATIVE
            else:
                assert classify_feedback(f) == POWER_CONSERVING
            cert = certify_interconnection(sys1, sys2, f)
            assert cert.verdict == CERTIFIED, trial


def test_criterion_09_monitored_energy_balance():
    with criterion(9, 30.0, "certified scalar run is violation-free; "
                            "lossless run conserves energy"):
        sys1 = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                             G=[[1.0]], tau=1.0, theta=[[1.0]])
        hist = HistoryFunction.constant([0.5], 1.0)
        h = 1e-3
        for inputs in (None, lambda t: 1.0, lambda t: math.sin(t)):
            traj, record = simulate_delay_ph(sys1, hist, inputs, T=10.0, h=h)
            # (||H||_2 + tau ||Theta||_2) = 1 + 1 * 1 for this system
            max_sq = float(np.max(np.sum(traj.padded_states**2, axis=0)))
            assert record.tol_energy == pytest.approx(
                10.0 * h * h * 2.0 * max_sq, rel=1e-12
            )
            assert record.violations == []

        lossless = DelayPHSystem(
            H=np.eye(2), J=[[0.0, 1.0], [-1.0, 0.0]], R=np.zeros((2, 2)),
            Z=np.zeros((2, 2)), G=np.zeros((2, 1)), tau=1.0,
            theta=np.zeros((2, 2)),
        )
        s = np.linspace(-1.0, 0.0, 1001)
        start = HistoryFunction(s, np.vstack([np.cos(s), -np.sin(s)]))
        traj, record = simulate_delay_ph(lossless, start, None, T=10.0, h=h)
        energy = 0.5 * np.sum(traj.states**2, axis=0)
        assert np.max(np.abs(energy - energy[0])) <= 1e-8
        assert record.violations == []


def test_criterion_10_fourth_order_self_convergence():
    with criterion(10, 10.0, "halving the step cuts the error by >= 12x"):
        sys1 = GeneralDelaySystem(A0=[[-1.3]], A1=[[-0.7]], B=[[0.0]],
                                  C=[[0.0]], tau=1.0)
        grid = np.array([-1.0, 0.0])
        hist = HistoryFunction(grid, (0.5 + 0.3 * grid).reshape(1, -1))

        def final(h):
            return integrate_dde(sys1, hist, None, T=1.0, h=h).states[0, -1]

        reference = final(1.25e-4)
        coarse = abs(final(2e-3) - reference)
        fine = abs(final(1e-3) - reference)
        assert fine > 0.0
        assert coarse / fine >= 12.0, (coarse, fine)


def test_criterion_11_grid_search_agrees_with_construction():
    with criterion(11, 60.0, "brute-force theta search matches construction "
                             "(50 instances) and beats it above coupling one"):
        rng = np.random.default_rng(113)
        for trial in range(50):
            scale = rng.uniform(0.5, 2.0)
            r = scale * rand_spd(rng, 2, (0.5, 1.0))
            z = rng.standard_normal((2, 2))
            v1, _ = whitening_basis(r)
            z *= rng.uniform(0.05, 0.85) / np.linalg.norm(v1.T @ z @ v1, 2)
            out = construct_theta(r, z)
            assert out.success and out.interval.sigma <= 0.86, trial
            found, theta = exists_certifying_theta_grid(r, z)
            assert found, trial
            lam = np.linalg.eigvalsh(ph_condition_matrix(r, z, theta))[0]
            assert lam >= -1e-9 * (1.0 + spectral_norm(r)), trial

        r = np.eye(2)
        z = np.array([[0.0, 1.0 / SQ3], [2.0 / SQ3, 0.0]])
        assert not construct_theta(r, z).success
        found, theta = exists_certifying_theta_grid(r, z)
        assert found
        lam = np.linalg.eigvalsh(ph_condition_matrix(r, z, theta))[0]
        assert lam >= -1e-9
