import math
from dataclasses import replace

import numpy as np
import pytest

import scnls.grid
from scnls import Grid, nls
from scnls.config import DEFAULT_EPSILON_LADDER
from scnls.errors import ConfigError, GridMismatchError, NumericalGuardError
from scnls.grid import MAX_STEPS, observation_steps
from scnls.limit import evolve_limit
from scnls.nls import (NLSConfig, build_initial_data,
                       evolve_nls, evolve_nls_batch, nls_invariants)
from scnls.presets import InitialData, gaussian, snap_wavevector


def make_plane_wave_data(grid, amplitude, k_request, epsilon):
    ksnap, _ = snap_wavevector([k_request], grid, epsilon)
    return InitialData(
        grid=grid, a0=np.full(grid.shape, amplitude, dtype=complex),
        a1=np.zeros(grid.shape, dtype=complex),
        phi0_periodic=np.zeros(grid.shape), phi0_wavevector=ksnap,
    ), ksnap[0]


class TestBuildInitialData:
    def test_zero_first_order_term(self, gaussian_data):
        data = InitialData(grid=gaussian_data.grid, a0=gaussian_data.a0,
                           a1=np.zeros(gaussian_data.grid.shape, dtype=complex),
                           phi0_periodic=gaussian_data.phi0_periodic,
                           phi0_wavevector=(0.0,))
        u0 = build_initial_data(data, 0.25)
        assert np.max(np.abs(u0 - data.a0)) < 1e-14

    def test_two_term_amplitude(self, gaussian_data):
        u0 = build_initial_data(gaussian_data, 0.1)
        expected = gaussian_data.a0 + 0.1 * gaussian_data.a1
        assert np.max(np.abs(u0 - expected)) < 1e-14

    def test_phase_factor(self, grid_wide):
        g = grid_wide
        per = 0.3 * np.cos(2 * np.pi * g.axes[0] / g.lengths[0])
        data = InitialData(grid=g, a0=np.ones(g.shape, dtype=complex),
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=per, phi0_wavevector=(0.0,))
        eps = 0.2
        u0 = build_initial_data(data, eps)
        assert np.max(np.abs(u0 - np.exp(1j * per / eps))) < 1e-13

    def test_wavevector_snapping_example(self):
        # round(k*L/(2 pi eps)) with k=0.5, eps=1/8, L=2 pi -> mode 4
        g = Grid(64, 2 * np.pi)
        ksnap, modes = snap_wavevector([0.5], g, 0.125)
        assert modes == (4,)
        assert ksnap[0] / 0.125 == pytest.approx(4.0)  # k/eps on the lattice

    def test_snapped_wave_is_periodic(self):
        g = Grid(64, 2 * np.pi)
        eps = 0.125
        data, _ = make_plane_wave_data(g, 1.0, 0.47, eps)
        u0 = build_initial_data(data, eps)
        # single lattice mode: spectrum has exactly one nonzero coefficient
        spectrum = np.abs(np.fft.fft(u0))
        assert np.sum(spectrum > 1e-8 * spectrum.max()) == 1

    def test_epsilon_out_of_range(self, gaussian_data):
        with pytest.raises(ConfigError):
            build_initial_data(gaussian_data, 1.5)


class TestEvolve:
    def test_plane_wave_exact(self):
        # dispersion oracle: u = A exp(i(kx - w t)/eps), w = k^2/2 + |A|^(2s)
        g = Grid(256, 2 * np.pi)
        eps, sigma, A, T = 0.125, 2, 0.8, 0.1
        data, k = make_plane_wave_data(g, A, 0.5, eps)
        u0 = build_initial_data(data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        dt_override=1e-5, self_check=False)
        traj = evolve_nls(u0, cfg)
        omega = k**2 / 2 + A ** (2 * sigma)
        exact = A * np.exp(1j * (k * g.axes[0] - omega * T) / eps)
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8

    def test_zero_stays_zero(self, grid_1d):
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=1, final_time=0.1,
                        dt_override=1e-3, self_check=False)
        traj = evolve_nls(np.zeros(grid_1d.shape, complex), cfg)
        assert np.max(np.abs(traj.states[-1])) == 0.0

    def test_richardson_self_convergence(self, gaussian_data):
        # second-order splitting: halving dt shrinks the defect ~4x
        g = gaussian_data.grid
        eps = 0.5
        u0 = build_initial_data(gaussian_data, eps)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=0.2,
                            dt_override=dt, self_check=False)
            return evolve_nls(u0, cfg).states[-1]

        f1, f2, f4 = final(2e-3), final(1e-3), final(5e-4)
        ratio = g.l2_norm(f1 - f2) / g.l2_norm(f2 - f4)
        assert 3.5 <= ratio <= 4.5

    def test_energy_drift_second_order(self, gaussian_data):
        # splitting conserves energy up to O(dt^2): halving dt shrinks the
        # accumulated drift by ~4
        g = gaussian_data.grid
        eps, sigma, T = 0.5, 2, 0.2
        u0 = build_initial_data(gaussian_data, eps)

        def drift(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                            dt_override=dt, self_check=False)
            traj = evolve_nls(u0, cfg)
            e0 = nls_invariants(traj.states[0], 0.0, g, eps, sigma).energy
            eT = nls_invariants(traj.states[-1], T, g, eps, sigma).energy
            return abs(eT - e0)

        ratio = drift(2e-3) / drift(1e-3)
        assert 3.5 <= ratio <= 4.5

    def test_mass_drift_1000_steps(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.125)
        cfg = NLSConfig(grid=g, epsilon=0.125, sigma=2, final_time=0.1,
                        dt_override=1e-4, self_check=False)
        traj = evolve_nls(u0, cfg)  # exactly 1000 steps
        m = traj.mass_history
        assert abs(m[-1] - m[0]) / m[0] < 1e-12

    def test_gauge_covariance(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        theta = 0.7
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05,
                        dt_override=1e-3, self_check=False)
        t1 = evolve_nls(u0, cfg).states[-1]
        t2 = evolve_nls(np.exp(1j * theta) * u0, cfg).states[-1]
        assert np.max(np.abs(t2 - np.exp(1j * theta) * t1)) < 1e-12

    def test_translation_equivariance(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05,
                        dt_override=1e-3, self_check=False)
        t1 = evolve_nls(u0, cfg).states[-1]
        t2 = evolve_nls(np.roll(u0, 1), cfg).states[-1]
        assert np.max(np.abs(t2 - np.roll(t1, 1))) < 1e-12 * np.max(np.abs(t1))

    def test_observation_snapshots(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.1,
                        self_check=False)
        obs = np.linspace(0.0, 0.1, 6)
        traj = evolve_nls(u0, cfg, 6)
        assert np.allclose(traj.times, obs)
        assert len(traj.states) == 6

    def test_self_check_guard_raises(self, gaussian_data, monkeypatch):
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 1e-9)
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                        dt_override=0.05, self_check=True)
        with pytest.raises(NumericalGuardError):
            evolve_nls(u0, cfg)

    def test_self_check_passes_at_sane_dt(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05)
        traj = evolve_nls(u0, cfg)
        assert traj.self_check_ok
        assert traj.self_check_error < 0.05 * 0.25 * g.l2_norm(u0)

    def test_grid_mismatch(self, gaussian_data):
        cfg = NLSConfig(grid=gaussian_data.grid, epsilon=0.25, sigma=2,
                        final_time=0.05, self_check=False)
        with pytest.raises(GridMismatchError):
            evolve_nls(np.zeros(17, complex), cfg)

    def test_dt_must_fit_final_time(self, grid_1d):
        with pytest.raises(ConfigError):
            NLSConfig(grid=grid_1d, epsilon=1.0, sigma=1, final_time=0.005)


class TestYoshida4:
    def test_richardson_fourth_order(self, gaussian_data):
        # fourth-order composition: halving dt shrinks the defect ~16x
        g = gaussian_data.grid
        eps = 0.5
        u0 = build_initial_data(gaussian_data, eps)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=0.2,
                            dt_override=dt, self_check=False, scheme="yoshida4")
            return evolve_nls(u0, cfg).states[-1]

        f1, f2, f4 = final(1e-2), final(5e-3), final(2.5e-3)
        ratio = g.l2_norm(f1 - f2) / g.l2_norm(f2 - f4)
        assert 12.0 <= ratio <= 20.0

    def test_plane_wave_exact(self):
        # at the order-matched default step, not only at a tiny one
        g = Grid(256, 2 * np.pi)
        eps, sigma, A, T = 0.125, 2, 0.8, 0.1
        data, k = make_plane_wave_data(g, A, 0.5, eps)
        u0 = build_initial_data(data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        self_check=False, scheme="yoshida4")
        traj = evolve_nls(u0, cfg)
        omega = k**2 / 2 + A ** (2 * sigma)
        exact = A * np.exp(1j * (k * g.axes[0] - omega * T) / eps)
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8

    def test_mass_drift_1000_steps(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.125)
        cfg = NLSConfig(grid=g, epsilon=0.125, sigma=2, final_time=0.1,
                        dt_override=1e-4, self_check=False, scheme="yoshida4")
        traj = evolve_nls(u0, cfg)  # exactly 1000 steps, 3000 substeps
        m = traj.mass_history
        assert abs(m[-1] - m[0]) / m[0] < 1e-12

    def test_order_matched_step(self, grid_1d):
        # (dt/eps)^4 = (dt_s/eps)^2 with the Strang step dt_s = dt0*eps
        eps, dt0 = 0.125, 0.01
        cfg = NLSConfig(grid=grid_1d, epsilon=eps, sigma=2, final_time=0.25,
                        dt0=dt0, scheme="yoshida4")
        assert cfg.dt_raw == np.sqrt(dt0 * eps * eps)
        strang = NLSConfig(grid=grid_1d, epsilon=eps, sigma=2, final_time=0.25,
                           dt0=dt0)
        assert strang.dt_raw == dt0 * eps

    @pytest.mark.parametrize("scheme", ["strang", "yoshida4"])
    def test_step_linear_in_epsilon(self, grid_1d, scheme):
        # dt/eps is one constant over the default ladder: sqrt(dt0) for
        # yoshida4, dt0 for Strang
        ratios = [NLSConfig(grid=grid_1d, epsilon=eps, sigma=2,
                            final_time=0.25, scheme=scheme).dt_raw / eps
                  for eps in DEFAULT_EPSILON_LADDER]
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)

    def test_step_longer_than_final_time(self, gaussian_data):
        # the Strang step 0.01 fits T = 0.04; the sqrt step 0.1 does not and
        # is cut to one step per observation interval
        g = gaussian_data.grid
        cfg = NLSConfig(grid=g, epsilon=1.0, sigma=2, final_time=0.04,
                        scheme="yoshida4")
        assert cfg.dt_raw > cfg.final_time
        traj = evolve_nls(build_initial_data(gaussian_data, 1.0), cfg)
        assert traj.dt == pytest.approx(0.04)
        assert traj.self_check_ok

    def test_law_step_longer_than_final_time_runs(self, gaussian_data):
        # the Strang-equivalent step dt0*eps = 0.00125 exceeds T = 0.001;
        # the yoshida4 step is cut to the observation interval and runs, while
        # an explicit step of T is still refused
        g = gaussian_data.grid
        cfg = NLSConfig(grid=g, epsilon=0.125, sigma=2, final_time=0.001,
                        scheme="yoshida4")
        traj = evolve_nls(build_initial_data(gaussian_data, 0.125), cfg)
        assert traj.dt == pytest.approx(0.001)
        assert traj.self_check_ok
        with pytest.raises(ConfigError):
            NLSConfig(grid=g, epsilon=0.125, sigma=2, final_time=0.001,
                      dt_override=0.001, scheme="yoshida4")

    def test_guard_rerun_keeps_scheme(self, gaussian_data, monkeypatch):
        import scnls.nls as nls
        schemes = []
        raw = nls._evolve_batch

        def spy(u0s, cfgs, n_obs):
            schemes.extend(cfg.scheme for cfg in cfgs)
            return raw(u0s, cfgs, n_obs)

        monkeypatch.setattr(nls, "_evolve_batch", spy)
        cfg = NLSConfig(grid=gaussian_data.grid, epsilon=0.25, sigma=2,
                        final_time=0.05, scheme="yoshida4")
        evolve_nls(build_initial_data(gaussian_data, 0.25), cfg)
        assert schemes == ["yoshida4", "yoshida4"]

    def test_unknown_scheme_rejected(self, grid_1d):
        with pytest.raises(ConfigError):
            NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=0.1,
                      scheme="rk4")


class TestStepCount:
    @pytest.mark.parametrize("scheme", ["strang", "yoshida4"])
    @pytest.mark.parametrize("eps", [1e-300, 1e-100])
    def test_tiny_epsilon_rejected(self, grid_1d, scheme, eps):
        # 1e-300: the step underflows to 0; 1e-100: ~1e149 steps
        with pytest.raises(ConfigError) as err:
            NLSConfig(grid=grid_1d, epsilon=eps, sigma=2, final_time=0.25,
                      scheme=scheme)
        assert err.value.key == "physics.epsilon"

    def test_step_count_limit(self, grid_1d):
        T = 1.0
        NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=T,
                  dt_override=T / MAX_STEPS)
        with pytest.raises(ConfigError):
            NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=T,
                      dt_override=T / (2 * MAX_STEPS))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, 5e-324, math.nan, math.inf])
    def test_budget_refuses_bad_step(self, dt):
        # a subnormal step is refused like any step too small to finish,
        # not by an OverflowError of math.ceil
        with pytest.raises(ConfigError) as err:
            observation_steps(1.0, 5, dt, "some.key")
        assert err.value.key == "some.key"

    def test_budget_counts_every_interval(self):
        # T/dt = MAX_STEPS fits in one interval or in 4, but 3 intervals
        # take ceil(3,333,333.3) = 3,333,334 steps each, 2 over the budget
        dt = 1.0 / MAX_STEPS
        assert observation_steps(1.0, 2, dt, "k")[0] == MAX_STEPS
        assert observation_steps(1.0, 5, dt, "k")[0] == MAX_STEPS // 4
        with pytest.raises(ConfigError):
            observation_steps(1.0, 4, dt, "k")


class TestInvariants:
    def test_plane_wave_mass_momentum(self):
        # direct integrals: mass = |A| sqrt(L), momentum = |A|^2 k L
        g = Grid(256, 2 * np.pi)
        eps = 0.125
        data, k = make_plane_wave_data(g, 1.0, 0.5, eps)
        u0 = build_initial_data(data, eps)
        inv = nls_invariants(u0, 0.0, g, eps, 2)
        L = g.lengths[0]
        assert inv.mass == pytest.approx(np.sqrt(L), rel=1e-12)
        assert inv.momentum[0] == pytest.approx(k * L, rel=1e-12)

    def test_conservation_along_run(self, gaussian_data):
        g = gaussian_data.grid
        eps, sigma = 0.25, 2
        u0 = build_initial_data(gaussian_data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=0.2,
                        dt_override=5e-4, self_check=False)
        traj = evolve_nls(u0, cfg, 5)
        invs = [nls_invariants(u, float(t), g, eps, sigma)
                for t, u in zip(traj.times, traj.states)]
        e0 = invs[0]
        for inv in invs[1:]:
            assert abs(inv.mass - e0.mass) / e0.mass < 1e-12
            assert abs(inv.energy - e0.energy) / abs(e0.energy) < 1e-6
            assert abs(inv.momentum[0] - e0.momentum[0]) < 1e-10
            assert abs(inv.weighted_mass_center[0]
                       - e0.weighted_mass_center[0]) < 1e-6 * e0.mass

    def test_pseudo_conformal_critical_case(self, gaussian_data):
        # n=1, sigma=2: the source (2 - n*sigma) vanishes, so the
        # pseudo-conformal quantity is conserved up to discretization error
        g = gaussian_data.grid
        eps, sigma = 0.5, 2
        u0 = build_initial_data(gaussian_data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=0.5,
                        dt_override=5e-4, self_check=False)
        traj = evolve_nls(u0, cfg, 6)
        pcs = [nls_invariants(u, float(t), g, eps, sigma).pseudo_conformal
               for t, u in zip(traj.times, traj.states)]
        drift = max(abs(p - pcs[0]) for p in pcs) / abs(pcs[0])
        assert drift < 1e-4

    def test_pseudo_conformal_source_noncritical(self, gaussian_data):
        # n=1, sigma=1: d/dt PC = t (2 - n sigma)/(sigma+1) ||u||^{2s+2}
        # verified against a centered finite difference of PC(t)
        g = gaussian_data.grid
        eps, sigma = 0.5, 1
        u0 = build_initial_data(gaussian_data, eps)
        h = 0.01
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=0.2,
                        dt_override=2.5e-4, self_check=False)
        traj = evolve_nls(u0, cfg, 21)  # spacing h
        invs = [nls_invariants(u, float(t), g, eps, sigma)
                for t, u in zip(traj.times, traj.states)]
        i = 10
        t_mid = float(traj.times[i])
        dpc = (invs[i + 1].pseudo_conformal - invs[i - 1].pseudo_conformal) / (2 * h)
        u_mid = traj.states[i]
        rho_int = float(g.integral(np.abs(u_mid) ** (2 * sigma + 2)).real)
        expected = t_mid * (2 - 1 * sigma) / (sigma + 1) * rho_int
        assert dpc == pytest.approx(expected, rel=5e-3)

    def test_support_warning_flag(self, grid_1d):
        u = np.ones(grid_1d.shape, dtype=complex)  # constant: mass at boundary
        inv = nls_invariants(u, 0.0, grid_1d, 0.5, 1)
        assert not inv.support_ok

    def test_2d_smoke(self):
        g = Grid((32, 32), (16.0, 16.0))
        x, y = g.coords
        u0 = np.exp(-(x**2 + y**2)).astype(complex)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=1, final_time=0.02,
                        dt_override=1e-3, self_check=False)
        traj = evolve_nls(u0, cfg)
        inv0 = nls_invariants(traj.states[0], 0.0, g, 0.5, 1)
        invT = nls_invariants(traj.states[-1], 0.02, g, 0.5, 1)
        assert abs(invT.mass - inv0.mass) / inv0.mass < 1e-12
        assert invT.momentum.shape == (2,)


class TestStepDoublingGuard:
    """The self-check pairs the reported run at dt with one run at about
    2*dt over the whole horizon (2*n steps only when n <= 3)."""

    T = 0.04

    def spied_run(self, gaussian_data, monkeypatch, n):
        # eps = 1, dt0 = 0.01: the yoshida4 step 0.1 exceeds every one of
        # the n observation intervals, so the reported run takes n steps
        import scnls.nls as nls
        calls = []
        raw = nls._evolve_batch

        def spy(u0s, cfgs, n_obs):
            calls.extend(zip((cfg.dt_override for cfg in cfgs), n_obs))
            return raw(u0s, cfgs, n_obs)

        monkeypatch.setattr(nls, "_evolve_batch", spy)
        cfg = NLSConfig(grid=gaussian_data.grid, epsilon=1.0, sigma=2,
                        final_time=self.T, scheme="yoshida4")
        u0 = build_initial_data(gaussian_data, 1.0)
        traj = evolve_nls(u0, cfg, n + 1)
        return traj, calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_check_step(self, gaussian_data, monkeypatch, n):
        traj, calls = self.spied_run(gaussian_data, monkeypatch, n)
        assert traj.dt == pytest.approx(self.T / n)
        assert len(calls) == 2
        assert calls[0][0] is None  # the reported run
        check_dt, check_n_obs = calls[1]
        n_check = n // 2 if n >= 4 else 2 * n
        assert check_dt == self.T / n_check
        assert check_dt < self.T
        assert check_n_obs == 2  # observed at 0 and T
        assert traj.self_check_dt == pytest.approx(check_dt)
        # never a rerun at the same step count
        assert traj.self_check_error > 0.0
        assert traj.self_check_ok

    def test_reported_states_unchanged(self, gaussian_data):
        u0 = build_initial_data(gaussian_data, 0.25)
        checked = evolve_nls(u0, NLSConfig(
            grid=gaussian_data.grid, epsilon=0.25, sigma=2, final_time=0.05,
            scheme="yoshida4"), 6)
        plain = evolve_nls(u0, NLSConfig(
            grid=gaussian_data.grid, epsilon=0.25, sigma=2, final_time=0.05,
            scheme="yoshida4", self_check=False), 6)
        assert checked.dt == plain.dt
        assert plain.self_check_dt is None
        assert checked.self_check_dt > checked.dt
        assert len(checked.states) == len(plain.states)
        for a, b in zip(checked.states, plain.states):
            assert np.array_equal(a, b)

    def test_doubled_pair_is_16x_the_halved_pair(self, gaussian_data):
        # fourth order: |u_2dt - u_dt| ~ 2^4 |u_dt - u_dt/2|
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                            dt_override=dt, self_check=False, scheme="yoshida4")
            return evolve_nls(u0, cfg).states[-1]

        u2, u1, uh = final(1e-2), final(5e-3), final(2.5e-3)
        ratio = g.l2_norm(u2 - u1) / g.l2_norm(u1 - uh)
        assert 12.0 <= ratio <= 20.0

    def test_failed_check_carries_trajectory(self, gaussian_data, monkeypatch):
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 1e-9)
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                        dt_override=0.05)
        with pytest.raises(NumericalGuardError) as info:
            evolve_nls(u0, cfg)
        traj = info.value.trajectory
        assert traj is not None and not traj.self_check_ok
        assert traj.self_check_error == info.value.value
        plain = evolve_nls(u0, NLSConfig(grid=g, epsilon=0.5, sigma=2,
                                         final_time=0.2, dt_override=0.05,
                                         self_check=False))
        assert np.array_equal(traj.states[-1], plain.states[-1])


class TestBatch:
    """evolve_nls_batch runs every member and every step-doubling check in
    one split-step loop; each member gets the trajectory of its lone run."""

    @staticmethod
    def ladder(grid, ladder, T, self_check=True, scheme="yoshida4"):
        x = grid.coords
        r2 = sum(c**2 for c in x)
        a = np.exp(-r2) * (1 + 0.2j * np.exp(-r2))
        u0s = [a * np.exp(0.3j * np.exp(-r2) / eps) for eps in ladder]
        cfgs = [NLSConfig(grid=grid, epsilon=eps, sigma=2, final_time=T,
                          self_check=self_check, scheme=scheme)
                for eps in ladder]
        return u0s, cfgs

    @staticmethod
    def lone_runs(u0s, cfgs, n_obs):
        return [evolve_nls(u0, cfg, n_obs) for u0, cfg in zip(u0s, cfgs)]

    @pytest.mark.parametrize("scheme", ["strang", "yoshida4"])
    def test_bitwise_lone_runs_1d(self, scheme):
        u0s, cfgs = self.ladder(Grid(512, 16.0), (0.25, 0.125, 0.0625, 0.03125),
                                0.05, scheme=scheme)
        batch = evolve_nls_batch(u0s, cfgs, 6)
        for traj, lone in zip(batch, self.lone_runs(u0s, cfgs, 6)):
            assert traj.dt == lone.dt
            assert traj.self_check_dt == lone.self_check_dt
            assert traj.self_check_error == lone.self_check_error
            assert len(traj.states) == len(lone.states) == 6
            for a, b in zip(traj.states, lone.states):
                assert np.array_equal(a, b)

    def test_bitwise_lone_runs_128x128(self):
        # batch and lone runs both hold at least 256 KiB per array
        u0s, cfgs = self.ladder(Grid((128, 128), (12.0, 12.0)), (0.25, 0.125), 0.01)
        batch = evolve_nls_batch(u0s, cfgs, 3)
        for traj, lone in zip(batch, self.lone_runs(u0s, cfgs, 3)):
            assert (traj.dt, traj.self_check_dt, traj.self_check_error) == \
                (lone.dt, lone.self_check_dt, lone.self_check_error)
            for a, b in zip(traj.states, lone.states):
                assert np.array_equal(a, b)

    def test_roundoff_lone_runs_64x64(self):
        # six 64 KiB members make a 384 KiB batch, a lone run and its check
        # two arrays of 64 KiB: numpy elides the large temporaries only, so
        # the product u*exp rounds in another operand order and the bits may
        # differ.  The check error is a difference of two close states, so
        # its roundoff is bounded relative to ||u0||, not to itself.
        g = Grid((64, 64), (12.0, 12.0))
        u0s, cfgs = self.ladder(g, (0.25, 0.125, 0.0625), 0.02)
        batch = evolve_nls_batch(u0s, cfgs, 5)
        for u0, traj, lone in zip(u0s, batch, self.lone_runs(u0s, cfgs, 5)):
            assert (traj.dt, traj.self_check_dt) == (lone.dt, lone.self_check_dt)
            for a, b in zip(traj.states, lone.states):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            assert abs(traj.self_check_error - lone.self_check_error) \
                <= 1e-12 * g.l2_norm(u0)

    def test_members_retire_after_their_last_step(self, monkeypatch):
        # each member is transformed once at the start and once per substep,
        # and no more: a snapshot comes from its substep's own spectrum
        u0s, cfgs = self.ladder(Grid(512, 16.0), (0.25, 0.125, 0.0625), 0.05)
        members = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda f, *a, **k: members.append(len(f)) or fft(f, *a, **k))
        trajs = evolve_nls_batch(u0s, cfgs, 6)
        substeps = [3 * round(0.05 / t.dt) for t in trajs]  # yoshida4
        check_substeps = [3 * round(0.05 / t.self_check_dt) for t in trajs]
        assert sum(members) == sum(1 + n for n in substeps) \
            + sum(1 + n for n in check_substeps)
        assert members[0] == 6 and members[-1] == 1

    def test_failed_check_flags_only_its_member(self, gaussian_data,
                                                monkeypatch):
        # at a tolerance of 1e-9*eps*||u0|| the Gaussian's check fails, while
        # a constant state's passes (the split step is exact on it up to
        # roundoff); each member keeps the error and states of its own run
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 1e-9)
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)
        flat = np.full(g.shape, 0.8, dtype=complex)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                        dt_override=0.05)
        flagged, passed = evolve_nls_batch([u0, flat], [cfg, cfg])
        assert not flagged.self_check_ok
        assert passed.self_check_ok
        with pytest.raises(NumericalGuardError) as info:
            evolve_nls(u0, cfg)
        assert flagged.self_check_error == info.value.value
        assert np.array_equal(flagged.states[-1],
                              info.value.trajectory.states[-1])
        assert passed.self_check_error == evolve_nls(flat, cfg).self_check_error

    def test_nonfinite_member_raises_with_own_time(self, grid_1d):
        # |u|^4 overflows at the first substep of the second member; its
        # first observation time is T/3, the first member's T/4
        import scnls.nls as nls
        T = 0.04
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=T,
                        dt_override=0.005, self_check=False)
        ok = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        bad = np.full(grid_1d.shape, 1e80, dtype=complex)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalGuardError, match=r"t=0\.0133333;"):
            nls._evolve_batch([ok, bad], [cfg, cfg], [5, 4])
        states, _ = nls._evolve_raw(ok, cfg, 5)
        assert len(states) == 5

    def test_observation_times_checked_before_any_transform(self, grid_1d,
                                                            gaussian_data,
                                                            monkeypatch):
        # both solvers refuse fewer than 2 observation times before any
        # transform, n-d or one-axis
        import scnls.nls as nls
        calls = []
        for name in ("fftn", "ifftn", "rfftn", "irfftn",
                     "fft", "ifft", "rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _f=real, **k: calls.append(1) or _f(*a, **k))
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=0.04,
                        dt_override=0.005, self_check=False)
        u0 = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        with pytest.raises(ConfigError) as err:
            nls._evolve_raw(u0, cfg, 1)
        assert err.value.key == "time.observation_count"
        with pytest.raises(ConfigError):
            nls._evolve_batch([u0, u0], [cfg, cfg], [5, 1])
        for run in (lambda: evolve_nls(u0, replace(cfg, self_check=True), 1),
                    lambda: evolve_nls_batch([u0, u0], [cfg, cfg], 1),
                    lambda: evolve_limit(gaussian_data, 2, 0.04, n_obs=1)):
            with pytest.raises(ConfigError) as err:
                run()
            assert err.value.key == "time.observation_count"
        assert calls == []
        nls._evolve_raw(u0, cfg, 5)
        assert calls  # the spies see the transforms

    def test_step_cap_counts_observation_steps(self, grid_1d, monkeypatch):
        # T/dt = 8 steps pass a cap of 10, but 21 observation times of 0.002
        # take one step of 0.002 each, 20 in all: refused before any
        # transform; 6 observation times take 2 steps each, 10 in all
        monkeypatch.setattr(scnls.grid, "MAX_STEPS", 10)
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=0.04,
                        dt_override=0.005, self_check=False)
        u0 = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda *a, **k: calls.append(1) or fft(*a, **k))
        with pytest.raises(ConfigError) as err:
            evolve_nls(u0, cfg, 21)
        assert err.value.key == "time.observation_count"
        assert calls == []
        assert len(evolve_nls(u0, cfg, 6).states) == 6

    def test_snapshot_budget_as_limit_nodes(self, gaussian_data, monkeypatch):
        # under a budget of 100,000 B, 41 snapshots of 512 points (335,872 B)
        # are refused like the limit's 41 nodes, both with the key grid.N;
        # 6 snapshots (49,152 B) fit
        import scnls.grid
        monkeypatch.setattr(scnls.grid, "MAX_STORED_BYTES", 100_000)
        g = gaussian_data.grid
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.04,
                        self_check=False)
        u0 = build_initial_data(gaussian_data, 0.25)
        for run in (lambda: evolve_nls(u0, cfg, 41),
                    lambda: evolve_limit(gaussian_data, 2, 0.04, n_obs=41)):
            with pytest.raises(ConfigError) as err:
                run()
            assert err.value.key == "grid.N"
        assert len(evolve_nls(u0, cfg, 6).states) == 6

    def test_members_share_sigma_and_scheme(self, grid_1d):
        u0 = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=0.04,
                        self_check=False)
        for other in (replace(cfg, sigma=1), replace(cfg, scheme="yoshida4")):
            with pytest.raises(ValueError):
                evolve_nls_batch([u0, u0], [cfg, other])
