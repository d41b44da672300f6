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
from scnls.nls import (NLSConfig, build_initial_data, evolve_nls,
                       evolve_nls_batch, nls_invariants, pick_scheme)
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

    def test_shared_phase_needs_integer_ratio(self):
        # one snap of the linear phase at epsilon_ref serves a ladder member
        # only if epsilon_ref/epsilon is an integer: 0.3/0.2 is not
        g = Grid(128, 2 * np.pi)
        data, _ = make_plane_wave_data(g, 1.0, 0.6, 0.3)
        build_initial_data(data, 0.1, epsilon_ref=0.3)
        with pytest.raises(ConfigError) as err:
            build_initial_data(data, 0.2, epsilon_ref=0.3)
        assert err.value.key == "physics.epsilon_list"


class TestEvolve:
    def test_plane_wave_exact(self):
        # dispersion oracle: u = A exp(i(kx - w t)/eps), w = k^2/2 + |A|^(2s)
        g = Grid(256, 2 * np.pi)
        eps, sigma, A, T = 0.125, 2, 0.8, 0.1
        data, k = make_plane_wave_data(g, A, 0.5, eps)
        u0 = build_initial_data(data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        dt_override=1e-5)
        traj = evolve_nls(u0, cfg)
        omega = k**2 / 2 + A ** (2 * sigma)
        exact = A * np.exp(1j * (k * g.axes[0] - omega * T) / eps)
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8

    def test_zero_stays_zero(self, grid_1d):
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=1, final_time=0.1,
                        dt_override=1e-3)
        traj = evolve_nls(np.zeros(grid_1d.shape, complex), cfg)
        assert np.max(np.abs(traj.states[-1])) == 0.0

    def test_richardson_self_convergence(self, gaussian_data):
        # second-order splitting: halving dt shrinks the defect ~4x
        g = gaussian_data.grid
        eps = 0.5
        u0 = build_initial_data(gaussian_data, eps)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=0.2,
                            dt_override=dt)
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
                            dt_override=dt)
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
                        dt_override=1e-4)
        traj = evolve_nls(u0, cfg)  # exactly 1000 steps
        m = traj.mass_history
        assert abs(m[-1] - m[0]) / m[0] < 1e-12

    def test_gauge_covariance(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        theta = 0.7
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05,
                        dt_override=1e-3)
        t1 = evolve_nls(u0, cfg).states[-1]
        t2 = evolve_nls(np.exp(1j * theta) * u0, cfg).states[-1]
        assert np.max(np.abs(t2 - np.exp(1j * theta) * t1)) < 1e-12

    def test_translation_equivariance(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05,
                        dt_override=1e-3)
        t1 = evolve_nls(u0, cfg).states[-1]
        t2 = evolve_nls(np.roll(u0, 1), cfg).states[-1]
        assert np.max(np.abs(t2 - np.roll(t1, 1))) < 1e-12 * np.max(np.abs(t1))

    def test_observation_snapshots(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.1)
        obs = np.linspace(0.0, 0.1, 6)
        traj = evolve_nls(u0, cfg, 6)
        assert np.allclose(traj.times, obs)
        assert len(traj.states) == 6

    def test_self_check_guard_flags(self, gaussian_data, monkeypatch):
        # a failed check flags the run and raises nothing, as in the batch
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 1e-9)
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                        dt_override=0.05)
        traj = evolve_nls(u0, cfg)
        assert not traj.self_check_ok
        assert traj.self_check_error > 1e-9 * 0.5 * g.l2_norm(u0)

    def test_self_check_passes_at_sane_dt(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.05)
        traj = evolve_nls(u0, cfg)
        assert traj.self_check_ok
        assert traj.self_check_error < 0.05 * 0.25 * g.l2_norm(u0)

    def test_grid_mismatch(self, gaussian_data):
        cfg = NLSConfig(grid=gaussian_data.grid, epsilon=0.25, sigma=2,
                        final_time=0.05)
        with pytest.raises(GridMismatchError):
            evolve_nls(np.zeros(17, complex), cfg)

    def test_dt_must_fit_final_time(self, grid_1d):
        with pytest.raises(ConfigError):
            NLSConfig(grid=grid_1d, epsilon=1.0, sigma=1, final_time=0.005)


class TestYoshida4:
    """The fourth-order compositions of the Strang step: yoshida4 and, where
    named, suzuki4."""

    def test_richardson_fourth_order(self, gaussian_data):
        # fourth-order composition: halving dt shrinks the defect ~16x
        g = gaussian_data.grid
        eps = 0.5
        u0 = build_initial_data(gaussian_data, eps)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=0.2,
                            dt_override=dt, scheme="yoshida4")
            return evolve_nls(u0, cfg).states[-1]

        f1, f2, f4 = final(1e-2), final(5e-3), final(2.5e-3)
        ratio = g.l2_norm(f1 - f2) / g.l2_norm(f2 - f4)
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_plane_wave_exact(self, sigma):
        # at the order-matched default step, not only at a tiny one
        g = Grid(256, 2 * np.pi)
        eps, A, T = 0.125, 0.8, 0.1
        data, k = make_plane_wave_data(g, A, 0.5, eps)
        u0 = build_initial_data(data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        scheme="yoshida4")
        traj = evolve_nls(u0, cfg)
        omega = k**2 / 2 + A ** (2 * sigma)
        exact = A * np.exp(1j * (k * g.axes[0] - omega * T) / eps)
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8

    def test_mass_drift_1000_steps(self, gaussian_data):
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.125)
        cfg = NLSConfig(grid=g, epsilon=0.125, sigma=2, final_time=0.1,
                        dt_override=1e-4, scheme="yoshida4")
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
        # suzuki4's floor is its accuracy constant times the same step
        suzuki = NLSConfig(grid=grid_1d, epsilon=eps, sigma=2, final_time=0.25,
                           dt0=dt0, scheme="suzuki4")
        assert suzuki.dt_raw == 1.664 * np.sqrt(dt0 * eps * eps)

    def test_suzuki4_richardson_fourth_order(self, gaussian_data):
        # Suzuki's five-stage composition is fourth order too: halving dt
        # shrinks the defect ~16x
        g = gaussian_data.grid
        eps = 0.5
        u0 = build_initial_data(gaussian_data, eps)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=0.2,
                            dt_override=dt, scheme="suzuki4")
            return evolve_nls(u0, cfg).states[-1]

        f1, f2, f4 = final(1e-2), final(5e-3), final(2.5e-3)
        ratio = g.l2_norm(f1 - f2) / g.l2_norm(f2 - f4)
        assert 12.0 <= ratio <= 20.0

    def test_suzuki4_weights(self):
        # (p, p, 1 - 4p, p, p), p = 1/(4 - 4^(1/3)): the weights sum to one
        # and their cubes to zero (the fourth-order condition), and the
        # largest |weight| is 0.658 against yoshida4's 1.70
        w = nls.SCHEMES["suzuki4"]
        assert len(w) == 5 and w == w[::-1]
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        assert math.fsum(x**3 for x in w) == pytest.approx(0.0, abs=1e-15)
        assert max(map(abs, w)) == pytest.approx(0.65796, abs=1e-5)
        assert max(map(abs, nls.SCHEMES["yoshida4"])) == pytest.approx(1.70241, abs=1e-5)

    @pytest.mark.parametrize("scheme", ["yoshida4", "suzuki4"])
    def test_kinetic_tables_once_per_weight(self, gaussian_data, monkeypatch, scheme):
        # the compositions are symmetric, so the weights of the first and
        # last half steps and the merged kicks repeat: 3 distinct of 5
        # tables for yoshida4 and of 7 for suzuki4, each one grid.cis per
        # batch (the nonlinear rotations write into a buffer, out=)
        tables = []
        cis = nls.cis

        def spy(theta, out=None):
            if out is None:
                tables.append(np.shape(theta))
            return cis(theta, out)

        u0s = [build_initial_data(gaussian_data, eps) for eps in (0.25, 0.125)]
        cfgs = [NLSConfig(grid=gaussian_data.grid, epsilon=eps, sigma=2,
                          final_time=0.05, scheme=scheme) for eps in (0.25, 0.125)]
        monkeypatch.setattr(nls, "cis", spy)
        trajs = evolve_nls_batch(u0s, cfgs, 3)
        # one table per weight for the whole batch: two runs, two checks
        assert tables == [(4, *gaussian_data.grid.shape)] * 3
        assert all(t.self_check_ok for t in trajs)

    @pytest.mark.parametrize("scheme", ["strang"])
    def test_step_linear_in_epsilon(self, grid_1d, scheme):
        # dt/eps is one constant over the default ladder: dt0 for Strang
        ratios = [NLSConfig(grid=grid_1d, epsilon=eps, sigma=2,
                            final_time=0.25, scheme=scheme).dt_raw / eps
                  for eps in DEFAULT_EPSILON_LADDER]
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)

    def test_step_law(self, grid_wide):
        # on the default ladder and grid (N = 512, L = 16) a composition's
        # step with accuracy constant c is never below c*sqrt(dt0)*eps nor
        # above c*sqrt(dt0*eps), and where it is longer than that floor, the
        # check's substeps of about 2*h*w stay under half the stability
        # bound B = 2*dx^2/(pi*eps)
        assert nls.LAW_CONSTANTS == {"yoshida4": 1.0, "suzuki4": 1.664}
        dt0 = 0.01
        dx = min(grid_wide.dx)
        for scheme, c, binds in (
                # the cap binds at eps = 1/64, the accuracy law at 1/128
                ("yoshida4", 1.0, [2.0**-6, 2.0**-7]),
                # the cap binds at eps = 1/32 and 1/64, the law at 1/128
                ("suzuki4", 1.664, [2.0**-5, 2.0**-6, 2.0**-7])):
            w = max(abs(x) for x in nls.SCHEMES[scheme])
            longer = []
            for eps in DEFAULT_EPSILON_LADDER:
                h = NLSConfig(grid=grid_wide, epsilon=eps, sigma=2,
                              final_time=0.25, dt0=dt0, scheme=scheme).dt_raw
                floor = c * math.sqrt(dt0) * eps
                assert floor * (1 - 1e-12) <= h <= c * math.sqrt(dt0 * eps)
                if h > floor * (1 + 1e-12):
                    longer.append(eps)
                    assert 2 * h * w <= dx**2 / (math.pi * eps) * (1 + 1e-12)
            assert longer == binds

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


class TestPickScheme:
    """Each wavefunction run takes the fourth-order composition whose
    step-doubling check stays under the stability bound in the fewest
    substeps per observation interval, else the shorter largest substep."""

    HEADLINE = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_headline_ladder_picks_suzuki4(self, n):
        # the README config: N points on L = 16, T = 0.25, 20 observations
        assert [pick_scheme(0.01, eps, 16.0 / n, 0.25, 20)
                for eps in self.HEADLINE] == ["suzuki4"] * 5

    @pytest.mark.parametrize("dx, T, n_obs", [
        (12.0 / 128, 0.05, 11),  # the bench's sweep-2d
        (12.0 / 64, 0.02, 5),    # CI's small 2-D config
        (6.0 / 64, 0.02, 5),     # its 12 x 6 twin
        (12.0 / 128, 0.02, 11),  # its 128 x 128 twin
    ])
    def test_2d_configs_keep_yoshida4(self, dx, T, n_obs):
        # one step per observation interval either way: three substeps
        # beat five
        assert [pick_scheme(0.01, eps, dx, T, n_obs)
                for eps in (0.25, 0.125, 0.0625)] == ["yoshida4"] * 3

    def test_rule(self):
        # the headline's eps = 1/8 and 1/128 rungs at N = 512, by hand
        dx, T, n_obs = 16.0 / 512, 0.25, 20

        def run(scheme, eps):
            """(substeps per interval, the check's largest substep, the
            run's largest substep) over the stability bound's scale."""
            w = nls.SCHEMES[scheme]
            m, dt = observation_steps(
                T, n_obs, nls.scheme_step(scheme, 0.01, eps, dx), "x")
            n = m * (n_obs - 1)
            check = T / (n // 2 if n >= 4 else 2 * n)
            bound = 2 * dx**2 / (math.pi * eps)
            return (m * len(w), max(map(abs, w)) * check / bound,
                    max(map(abs, w)) * dt / bound)

        # eps = 1/128: both checks stay under the bound; suzuki4 takes one
        # step of five substeps per interval, yoshida4 two of three
        y, s = run("yoshida4", 2.0**-7), run("suzuki4", 2.0**-7)
        assert y[1] < 1 and s[1] < 1 and (y[0], s[0]) == (6, 5)
        assert pick_scheme(0.01, 2.0**-7, dx, T, n_obs) == "suzuki4"
        # eps = 1/8: neither check does; suzuki4's largest substep is the
        # shorter
        y, s = run("yoshida4", 2.0**-3), run("suzuki4", 2.0**-3)
        assert y[1] > 1 and s[1] > 1 and s[2] < y[2]
        assert pick_scheme(0.01, 2.0**-3, dx, T, n_obs) == "suzuki4"
        # over T = 0.008 either law step is cut to one step: three
        # substeps beat five
        assert pick_scheme(0.01, 2.0**-7, dx, 0.008, 2) == "yoshida4"

    @pytest.mark.parametrize("dt0", [0.0, -0.01, math.nan, math.inf])
    def test_step_not_positive_finite(self, dt0):
        with pytest.raises(ConfigError) as err:
            pick_scheme(dt0, 0.125, 16.0 / 512, 0.25, 20)
        assert err.value.key == "time.dt0"


class TestConfigChecks:
    """NLSConfig refuses a run it cannot take when it is made, naming the
    config key at fault."""

    @staticmethod
    def key_of(grid, **kwargs):
        with pytest.raises(ConfigError) as err:
            NLSConfig(grid=grid, **{"epsilon": 0.5, "sigma": 2,
                                    "final_time": 0.25, **kwargs})
        return err.value.key

    @pytest.mark.parametrize("eps", [0.0, -0.125, 1.5, math.nan])
    def test_epsilon_outside_unit_interval(self, grid_1d, eps):
        assert self.key_of(grid_1d, epsilon=eps) == "physics.epsilon"

    def test_sigma_below_one(self, grid_1d):
        assert self.key_of(grid_1d, sigma=0) == "physics.sigma"

    @pytest.mark.parametrize("scheme", ["strang", "yoshida4"])
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
    def test_horizon_not_positive(self, grid_1d, scheme, T):
        assert self.key_of(grid_1d, final_time=T, scheme=scheme) == "time.T"

    @pytest.mark.parametrize("scheme", ["strang", "yoshida4"])
    @pytest.mark.parametrize("name", ["dt0", "dt_override"])
    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_step_not_positive_finite(self, grid_1d, scheme, name, dt):
        # refused before the step is derived from it, where yoshida4 at
        # dt0 = -0.01 would raise ValueError (math domain error), and a
        # dt0 of 0 or NaN would be refused under physics.epsilon
        assert self.key_of(grid_1d, scheme=scheme, **{name: dt}) == "time.dt0"

    def test_observation_steps_refuse_horizon_as_time_T(self):
        # whatever key the caller passes for the step
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError) as err:
                observation_steps(T, 5, 0.01, "physics.epsilon")
            assert err.value.key == "time.T"


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
                        dt_override=5e-4)
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
                        dt_override=5e-4)
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
                        dt_override=2.5e-4)
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
                        dt_override=1e-3)
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
        # the check member changes no bit of the run: its states are those
        # of the lone member without a check
        u0 = build_initial_data(gaussian_data, 0.25)
        cfg = NLSConfig(grid=gaussian_data.grid, epsilon=0.25, sigma=2,
                        final_time=0.05, scheme="yoshida4")
        checked = evolve_nls(u0, cfg, 6)
        states, dt = nls._evolve_raw(u0, cfg, 6)
        assert checked.dt == dt
        assert checked.self_check_dt > checked.dt
        assert len(checked.states) == len(states) == 6
        for a, b in zip(checked.states, states):
            assert np.array_equal(a, b)

    def test_doubled_pair_is_16x_the_halved_pair(self, gaussian_data):
        # fourth order: |u_2dt - u_dt| ~ 2^4 |u_dt - u_dt/2|
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)

        def final(dt):
            cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                            dt_override=dt, scheme="yoshida4")
            return evolve_nls(u0, cfg).states[-1]

        u2, u1, uh = final(1e-2), final(5e-3), final(2.5e-3)
        ratio = g.l2_norm(u2 - u1) / g.l2_norm(u1 - uh)
        assert 12.0 <= ratio <= 20.0

    def test_failed_check_returns_trajectory(self, gaussian_data, monkeypatch):
        # the flagged run is the one-member batch's, and its states are
        # those of the lone member without a check
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", 1e-9)
        g = gaussian_data.grid
        u0 = build_initial_data(gaussian_data, 0.5)
        cfg = NLSConfig(grid=g, epsilon=0.5, sigma=2, final_time=0.2,
                        dt_override=0.05)
        traj = evolve_nls(u0, cfg)
        (batched,) = evolve_nls_batch([u0], [cfg])
        assert not traj.self_check_ok and not batched.self_check_ok
        assert traj.self_check_error == batched.self_check_error
        states, _ = nls._evolve_raw(u0, cfg, 2)
        for a, b, c in zip(traj.states, batched.states, states, strict=True):
            assert np.array_equal(a, b) and np.array_equal(a, c)


class TestBatch:
    """evolve_nls_batch runs every member and every step-doubling check in
    one split-step loop; each member gets the trajectory of its lone run."""

    @staticmethod
    def ladder(grid, ladder, T, scheme="yoshida4"):
        x = grid.coords
        r2 = sum(c**2 for c in x)
        a = np.exp(-r2) * (1 + 0.2j * np.exp(-r2))
        u0s = [a * np.exp(0.3j * np.exp(-r2) / eps) for eps in ladder]
        cfgs = [NLSConfig(grid=grid, epsilon=eps, sigma=2, final_time=T,
                          scheme=scheme)
                for eps in ladder]
        return u0s, cfgs

    @staticmethod
    def lone_runs(u0s, cfgs, n_obs):
        return [evolve_nls(u0, cfg, n_obs) for u0, cfg in zip(u0s, cfgs)]

    @pytest.mark.parametrize("scheme", ["strang", "yoshida4", "suzuki4"])
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

    def test_bitwise_lone_runs_64x64(self):
        # six 64 KiB members make a 384 KiB batch, a lone run and its check
        # two arrays of 64 KiB: the batch is over numpy's 256 KiB
        # temporary-elision size and the lone runs are not, and the bits
        # still agree, because no product of the loop depends on elision
        u0s, cfgs = self.ladder(Grid((64, 64), (12.0, 12.0)), (0.25, 0.125, 0.0625), 0.02)
        batch = evolve_nls_batch(u0s, cfgs, 5)
        for traj, lone in zip(batch, self.lone_runs(u0s, cfgs, 5)):
            assert (traj.dt, traj.self_check_dt, traj.self_check_error) == \
                (lone.dt, lone.self_check_dt, lone.self_check_error)
            for a, b in zip(traj.states, lone.states):
                assert np.array_equal(a, b)

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
        lone = evolve_nls(u0, cfg)
        assert not lone.self_check_ok
        assert flagged.self_check_error == lone.self_check_error
        assert np.array_equal(flagged.states[-1], lone.states[-1])
        assert passed.self_check_error == evolve_nls(flat, cfg).self_check_error

    def test_nonfinite_member_raises_with_own_time(self, grid_1d):
        # |u|^4 overflows at the first substep of the second member; its
        # first observation time is T/3, the first member's T/4
        import scnls.nls as nls
        T = 0.04
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=T,
                        dt_override=0.005)
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
                        dt_override=0.005)
        u0 = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        with pytest.raises(ConfigError) as err:
            nls._evolve_raw(u0, cfg, 1)
        assert err.value.key == "time.observation_count"
        with pytest.raises(ConfigError):
            nls._evolve_batch([u0, u0], [cfg, cfg], [5, 1])
        for run in (lambda: evolve_nls(u0, cfg, 1),
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
                        dt_override=0.005)
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
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.04)
        u0 = build_initial_data(gaussian_data, 0.25)
        for run in (lambda: evolve_nls(u0, cfg, 41),
                    lambda: evolve_limit(gaussian_data, 2, 0.04, n_obs=41)):
            with pytest.raises(ConfigError) as err:
                run()
            assert err.value.key == "grid.N"
        assert len(evolve_nls(u0, cfg, 6).states) == 6

    def test_members_share_sigma_and_scheme(self, grid_1d):
        u0 = np.exp(-grid_1d.axes[0] ** 2).astype(complex)
        cfg = NLSConfig(grid=grid_1d, epsilon=0.5, sigma=2, final_time=0.04)
        for other in (replace(cfg, sigma=1), replace(cfg, scheme="yoshida4")):
            with pytest.raises(ValueError):
                evolve_nls_batch([u0, u0], [cfg, other])
