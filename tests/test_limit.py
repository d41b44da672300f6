import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from scnls import Grid, cli, limit, parse_config
from scnls.corrector import tilde_amplitude
from scnls.errors import ConfigError, NumericalGuardError
from scnls.grid import CHUNK_POINTS
from scnls.limit import (GrowthRow, blowup_monitor,
                         characteristic_gradient_scale, euler_invariants,
                         evolve_limit, focusing_demo, power_consistency,
                         rk4_step)
from scnls.nls import NLSConfig, build_initial_data, evolve_nls
from scnls.presets import InitialData, compact_bump, gaussian
from scnls.sweep import SweepPlan, run_sweep


def constant_state_data(grid, rho0=0.64, v0=0.0):
    """Constant amplitude sqrt(rho0), constant velocity v0 (v0 must sit on
    the wavenumber lattice for a torus-compatible linear phase)."""
    return InitialData(
        grid=grid, a0=np.full(grid.shape, np.sqrt(rho0), dtype=complex),
        a1=np.zeros(grid.shape, dtype=complex),
        phi0_periodic=np.zeros(grid.shape),
        phi0_wavevector=(v0,) * grid.dim,
    )


def spy_rhs(monkeypatch) -> list:
    """One entry per limit._rhs call from here on."""
    calls = []
    rhs = limit._rhs
    monkeypatch.setattr(limit, "_rhs",
                        lambda *a, **k: calls.append(1) or rhs(*a, **k))
    return calls


class TestEvolve:
    def test_constant_state_stays_constant(self, grid_1d):
        data = constant_state_data(grid_1d, rho0=0.81)
        traj = evolve_limit(data, 2, 1.0, n_obs=5)
        assert traj.status == "completed"
        for i in range(traj.times.size):
            assert np.max(np.abs(traj.a[i] - traj.a[0])) == 0.0
            assert np.max(np.abs(traj.v[i])) == 0.0

    def test_rk4_richardson_ratio(self, gaussian_data):
        g = gaussian_data.grid

        def final(dt):
            return evolve_limit(gaussian_data, 2, 0.1, dt=dt).a[-1]

        a1, a2, a4 = final(2e-3), final(1e-3), final(5e-4)
        ratio = g.l2_norm(a1 - a2) / g.l2_norm(a2 - a4)
        assert 14.0 <= ratio <= 18.0

    def test_power_consistency(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=20)
        # banded comparison (both fields in the 2/3 band)
        assert power_consistency(traj, banded=True) < 1e-8
        # raw comparison against the state-size scale
        amax = max(float(np.max(np.abs(traj.a[i])))
                   for i in range(traj.times.size))
        assert power_consistency(traj, banded=False) < 1e-8 * (1 + amax**2)

    def test_density_gap_monotone_in_epsilon(self, gaussian_data):
        # independent oracle: the wavefunction solver; the density gap
        # || |u|^2 - rho || must shrink as epsilon does
        g = gaussian_data.grid
        sigma, T = 2, 0.1
        traj = evolve_limit(gaussian_data, sigma, T, n_obs=3)
        rho_T = np.abs(traj.state(-1).a) ** 2
        gaps = []
        for eps in (1.0 / 16.0, 1.0 / 64.0):
            u0 = build_initial_data(gaussian_data, eps)
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                            self_check=False)
            u_T = evolve_nls(u0, cfg).states[-1]
            gaps.append(g.lebesgue_norm(np.abs(u_T) ** 2 - rho_T, sigma + 1))
        assert gaps[1] < gaps[0]

    def test_2d_curl_free_velocity(self):
        # v = grad phi initially; the evolution must keep curl v at the
        # integrator-noise level
        g = Grid((32, 32), (12.0, 12.0))
        x, y = g.coords
        a0 = np.exp(-(x**2 + y**2)).astype(complex)
        phi0 = 0.3 * np.exp(-(x**2 + y**2) / 2.0)
        data = InitialData(grid=g, a0=a0,
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=phi0, phi0_wavevector=(0.0, 0.0))
        traj = evolve_limit(data, 2, 0.05, n_obs=3)
        for i in (0, traj.times.size - 1):
            v = traj.v[i]
            curl = g.spectral_derivative(v[1], 0) - g.spectral_derivative(v[0], 1)
            assert g.l2_norm(curl.real) < 1e-8

    def test_nonuniform_status_when_too_coarse(self, grid_1d):
        data = constant_state_data(grid_1d, rho0=4.0)
        # dt far above the CFL bound: a fixed-step run's stop raises
        with pytest.raises(NumericalGuardError):
            evolve_limit(data, 2, 1.0, dt=0.9)

    def test_stop_raises_fixed_and_returns_adaptive(self):
        # the ill-posed sign grows the mode-8 perturbation of the focusing
        # background until the wave speed outruns the step.  The adaptive
        # run returns where its CFL step falls under the floor, with the
        # nodes up to its last step; the same data at a fixed step raises
        g = Grid(512, 2 * np.pi)
        data = constant_state_data(g, rho0=1.0)
        data = replace(data, a0=data.a0 + 1e-7 * np.cos(8 * g.coords[0]))
        traj = evolve_limit(data, 2, 1.0, n_obs=11, pressure_sign=-1,
                            adaptive=True)
        assert traj.status == "dt_floor"
        assert traj.step_times[-1] == pytest.approx(0.1735, abs=5e-4)
        np.testing.assert_array_equal(traj.times, [0.0, 0.1])
        assert traj.v.shape[0] == traj.a.shape[0] == 2
        with pytest.raises(NumericalGuardError,
                           match=r"t=0\.164 with status 'cfl'"):
            evolve_limit(data, 2, 1.0, dt=0.004, n_obs=11, pressure_sign=-1)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_over_budget_refused_before_any_rhs(self, monkeypatch, adaptive):
        # T = 50000 at N = 2048 plans 23,057,061 CFL steps, over
        # grid.MAX_STEPS: refused with key time.T before the first
        # right-hand side, whether the run steps fixed or adaptively
        cfg = parse_config(json.dumps({
            "grid": {"N": 2048, "L": 16.0},
            "physics": {"epsilon": 0.125, "epsilon_list": [1.0, 0.5, 0.25]},
            "time": {"T": 50000.0, "observation_count": 20},
            "initial": {"a0_preset": "gaussian",
                        "a0_params": {"width": 1.0, "amplitude_re": 1.0,
                                      "amplitude_im": 0.2}}}))
        calls = spy_rhs(monkeypatch)
        with pytest.raises(ConfigError) as err:
            evolve_limit(cfg.make_initial_data(), cfg.sigma, cfg.final_time,
                         n_obs=cfg.observation_count, adaptive=adaptive)
        assert err.value.key == "time.T"
        assert calls == []

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_step_not_positive_finite_refused(self, monkeypatch, dt):
        # a given dt of 0 is not "use the CFL step", and a negative one is
        # not one step of T: they are refused before the first step
        data, sigma, _, _ = config_data(n=128)
        calls = spy_rhs(monkeypatch)
        with pytest.raises(ConfigError) as err:
            evolve_limit(data, sigma, 0.001, dt=dt)
        assert err.value.key == "time.T"
        assert calls == []

    def test_a1_shape_mismatch_refused(self, gaussian_data, monkeypatch):
        # the corrector's a1 must match a0 (with its batch axes), checked
        # before the first step
        calls = spy_rhs(monkeypatch)
        with pytest.raises(ConfigError) as err:
            evolve_limit(gaussian_data, 2, 0.01, a1=gaussian_data.a1[::2])
        assert err.value.key == "initial.a1"
        assert calls == []

    def test_stored_nodes_over_budget(self):
        # 2,001 nodes of 65,536 points would need 6.3 GB: the run is refused
        # before anything is stored
        g = Grid(65536, 16.0)
        data = InitialData(grid=g, a0=gaussian(g, 1.0).astype(complex),
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0,))
        with pytest.raises(ConfigError) as err:
            evolve_limit(data, 2, 0.25, n_obs=2001)
        assert err.value.key == "grid.N"

    def test_fixed_step_count_with_roundoff(self):
        # 620 steps of T/620 sum to 1.1e-12 short of T = 70.175: the run
        # takes its 620 steps and stores 5 nodes, with no sliver step
        g = Grid(16, 2 * np.pi)
        traj = evolve_limit(constant_state_data(g, rho0=1.0), 2, 70.175,
                            n_obs=5)
        assert traj.status == "completed"
        assert len(traj.step_times) - 1 == 620
        assert traj.times.size == 5
        assert traj.times[-1] == pytest.approx(70.175, rel=1e-12)

    @pytest.mark.parametrize("case", ["reproducer", "n_obs", "dt",
                                      "n_obs7", "n_obs11"])
    def test_fixed_step_times_exact(self, gaussian_data, case):
        # the nodes sit on the observation times np.linspace(0, T, n_obs)
        # bit for bit, the last on T itself (not 70.17499999999886 for the
        # reproducer), and every step is dt: no sliver before T.  The steps
        # are those of the n_obs = 2 run, whatever n_obs; at n_obs7 and
        # n_obs11 the inner nodes fall inside steps.
        n_obs = {"reproducer": 5, "n_obs": 20, "dt": 2,
                 "n_obs7": 7, "n_obs11": 11}[case]
        kw = {}
        if case == "reproducer":
            data, T = constant_state_data(Grid(16, 2 * np.pi), rho0=1.0), 70.175
        elif case == "dt":  # 0.003 does not divide 0.05: 17 equal steps of 0.05/17
            data, T, kw = gaussian_data, 0.05, {"dt": 0.003}
        else:
            data = gaussian_data
            T = {"n_obs": 0.25, "n_obs7": 0.35, "n_obs11": 0.25}[case]
            kw = {"a1": data.a1}
        traj = evolve_limit(data, 2, T, n_obs=n_obs, **kw)
        np.testing.assert_array_equal(traj.times, np.linspace(0.0, T, n_obs))
        assert traj.step_times[-1] == T
        np.testing.assert_allclose(np.diff(traj.step_times), traj.dt,
                                   rtol=0, atol=1e-12 * T)
        two = evolve_limit(data, 2, T, n_obs=2, **kw)
        np.testing.assert_array_equal(traj.step_times, two.step_times)
        assert traj.dt == two.dt

    def test_batch_equals_members(self, gaussian_data):
        # two initial data as one (2, N) batch: each member's fields and the
        # shared step equal its own run bit for bit when neither run's
        # CFL step decides the shared one (fixed dt)
        g = gaussian_data.grid
        other = replace(gaussian_data, a0=0.8 * gaussian_data.a0,
                        phi0_periodic=0.1 * gaussian(g, 2.0))
        members = [gaussian_data, other]
        batch = InitialData(
            grid=g, a0=np.stack([d.a0 for d in members]),
            a1=np.stack([d.a1 for d in members]),
            phi0_periodic=np.stack([d.phi0_periodic for d in members]),
            phi0_wavevector=(0.0,))
        kw = dict(dt=0.0125, n_obs=3)
        traj = evolve_limit(batch, 2, 0.05, a1=batch.a1, **kw)
        for m, d in enumerate(members):
            one = evolve_limit(d, 2, 0.05, a1=d.a1, **kw)
            np.testing.assert_array_equal(traj.times, one.times)
            for name in ("S", "a", "phi", "phi1", "w"):
                np.testing.assert_array_equal(getattr(traj, name)[:, m],
                                              getattr(one, name))
            np.testing.assert_array_equal(traj.v[:, :, m], one.v)
        assert traj.v.shape == (3, 1, 2, *g.shape)

    def test_batch_equals_members_2d(self):
        # the 2-D twin: a joint stage of two 128x64 members passes
        # CHUNK_POINTS, so its transforms go in chunks, and each member
        # still equals its own run bit for bit
        g = Grid((128, 64), (12.0, 12.0))
        assert 9 * 2 * g.size > CHUNK_POINTS
        x, y = g.coords
        bump = np.exp(-(x**2 + 0.5 * y**2))
        members = [InitialData(grid=g, a0=amp * bump * (1 + 0.2j * bump),
                               a1=(0.4 * np.exp(-(x**2 + y**2) / 1.4)
                                   ).astype(complex),
                               phi0_periodic=phase * np.exp(-(x**2 + y**2)),
                               phi0_wavevector=(0.0, 0.0))
                   for amp, phase in ((1.0, 0.0), (0.8, 0.1))]
        batch = InitialData(
            grid=g, a0=np.stack([d.a0 for d in members]),
            a1=np.stack([d.a1 for d in members]),
            phi0_periodic=np.stack([d.phi0_periodic for d in members]),
            phi0_wavevector=(0.0, 0.0))
        kw = dict(dt=0.01, n_obs=3)
        traj = evolve_limit(batch, 2, 0.02, a1=batch.a1, **kw)
        for m, d in enumerate(members):
            one = evolve_limit(d, 2, 0.02, a1=d.a1, **kw)
            for name in ("S", "a", "phi", "phi1", "w"):
                np.testing.assert_array_equal(getattr(traj, name)[:, m],
                                              getattr(one, name))
            np.testing.assert_array_equal(traj.v[:, :, m], one.v)
        assert traj.v.shape == (3, 2, 2, *g.shape)

    def test_batch_over_budget_refused_before_run(self, monkeypatch):
        # 2,001 nodes of 512 points fit the budget once (49 MB) but not as a
        # batch of 64 members (3.1 GB); the refusal comes before any stage
        g = Grid(512, 16.0)
        one = InitialData(grid=g, a0=gaussian(g, 1.0).astype(complex),
                          a1=np.zeros(g.shape, dtype=complex),
                          phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0,))
        batch = replace(one, a0=np.broadcast_to(one.a0, (64, *g.shape)))

        def no_stage(*args):
            raise RuntimeError("right-hand side evaluated")

        monkeypatch.setattr("scnls.limit._rhs", no_stage)
        with pytest.raises(RuntimeError):  # the single run passes the check
            evolve_limit(one, 2, 2.0, dt=1e-3, n_obs=2001)
        with pytest.raises(ConfigError) as err:
            evolve_limit(batch, 2, 2.0, dt=1e-3, n_obs=2001)
        assert err.value.key == "grid.N"

    def test_adaptive_short_last_remainder_completes(self):
        # the background's adaptive CFL step ADAPTIVE_CFL*dx/(sqrt(3)*rho0)
        # is 0.3 and the cap is final_time, so three CFL steps leave a last
        # step of 1e-8, far under DT_FLOOR_FACTOR * 0.3: the floor judges
        # the CFL step, not the remainder to final_time, so the run completes
        rho0 = limit.ADAPTIVE_CFL * (2 * np.pi / 16) / (0.3 * math.sqrt(3))
        data = constant_state_data(Grid(16, 2 * np.pi), rho0=rho0)
        T = 0.9 + 1e-8
        traj = evolve_limit(data, 2, T, dt=T, adaptive=True)
        assert traj.status == "completed"
        assert len(traj.step_times) == 5
        np.testing.assert_allclose(np.diff(traj.step_times)[:3], 0.3,
                                   rtol=1e-12)
        assert np.diff(traj.step_times)[-1] < limit.DT_FLOOR_FACTOR * 0.3
        assert traj.times[-1] == traj.step_times[-1]

    def test_adaptive_roundoff_stores_n_obs_nodes(self):
        # 310 adaptive steps of T/310 sum to 1.4e-13 short of T = 70.175;
        # the last of them reaches the last observation time, so the run
        # stores its 5 nodes and ends, with no sliver step and no node twice
        t = 0.0
        for _ in range(310):
            t += 70.175 / 310
        assert 0 < 70.175 - t < 1e-12
        g = Grid(16, 2 * np.pi)
        traj = evolve_limit(constant_state_data(g, rho0=1.0), 2, 70.175,
                            n_obs=5, adaptive=True)
        assert traj.status == "completed"
        assert len(traj.step_times) - 1 == 310
        assert traj.times.size == 5
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(70.175, rel=1e-12)

    def test_adaptive_run_ends_at_final_time(self):
        # the adaptive step that reaches T = 70.175 within roundoff ends on
        # it exactly, and so does the last node
        g = Grid(16, 2 * np.pi)
        traj = evolve_limit(constant_state_data(g, rho0=1.0), 2, 70.175,
                            n_obs=5, adaptive=True)
        assert traj.status == "completed"
        assert traj.times[-1] == 70.175
        assert traj.step_times[-1] == 70.175

    def test_adaptive_nodes_interpolated_at_observation_times(self,
                                                              monkeypatch):
        # the adaptive step shrinks as the bump steepens and ignores the
        # nodes: the run takes the steps of its n_obs = 2 twin and ends on
        # final_time, where its last node is that twin's end state bit for
        # bit.  Every node sits on its observation time bit for bit and is
        # the cubic Hermite interpolant, in the step's end states and their
        # derivatives, of the step holding it
        g = Grid(128, 16.0)
        data = InitialData(grid=g, a0=compact_bump(g, 3.0, 1.2).astype(complex),
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0,))
        ends = []  # the spectral state at every step's end, from its grid pass
        grid_fields = limit._grid_fields

        def spy(y, grid, step=False):
            if step:
                ends.append(y)
            return grid_fields(y, grid, step)

        monkeypatch.setattr(limit, "_grid_fields", spy)
        obs = np.linspace(0.0, 3.0, 7)
        traj = evolve_limit(data, 2, 3.0, n_obs=7, adaptive=True)
        monkeypatch.undo()
        assert traj.status == "completed"
        np.testing.assert_array_equal(traj.times, obs)
        steps = traj.step_times
        assert len(ends) == steps.size and steps[-1] == 3.0
        two = evolve_limit(data, 2, 3.0, adaptive=True)
        np.testing.assert_array_equal(steps, two.step_times)
        for name in ("v", "S", "a", "phi"):
            assert getattr(traj, name)[-1].tobytes() == getattr(two, name)[-1].tobytes()
        for i in range(1, obs.size - 1):
            n = int(np.searchsorted(steps, obs[i])) - 1  # the step holding node i
            assert steps[n] < obs[i] < steps[n + 1]
            h = steps[n + 1] - steps[n]
            s = (obs[i] - steps[n]) / h
            y0, y1 = ends[n], ends[n + 1]
            f0, f1 = (limit._rhs(y, g, 2, 1, g.dealias_mask) for y in (y0, y1))
            R, C = ((2 * s**3 - 3 * s**2 + 1) * a + (s**3 - 2 * s**2 + s) * h * b
                    + (3 * s**2 - 2 * s**3) * p + (s**3 - s**2) * h * q
                    for a, b, p, q in zip(y0, f0, y1, f1))
            real, cplx = g.irfft(R), g.ifft(C)
            for got, want in ((traj.v[i], real[:1]), (traj.phi[i], real[1]),
                              (traj.S[i], cplx[0]), (traj.a[i], cplx[1])):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_obs", [0, 1])
    def test_n_obs_below_two_rejected(self, gaussian_data, n_obs):
        # a run stores at least its start and its end
        with pytest.raises(ConfigError) as err:
            evolve_limit(gaussian_data, 2, 0.25, n_obs=n_obs)
        assert err.value.key == "time.observation_count"

    @pytest.mark.parametrize("n_obs", [20, None], ids=["given", "default"])
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_n_obs_stores_only_observation_times(self, gaussian_data,
                                                 adaptive, n_obs):
        # n_obs = 2 (the start and the end) by default; the stored nodes
        # are the observation times and nothing else, with or without the
        # corrector; the steps do not depend on n_obs (a fixed run takes
        # the same steps at 2, 11 and 20 nodes), and the per-step scalars
        # still cover every step
        obs = np.linspace(0.0, 0.25, n_obs or 2)
        kw = {} if n_obs is None else {"n_obs": n_obs}
        for a1 in (None, gaussian_data.a1):
            traj = evolve_limit(gaussian_data, 2, 0.25, adaptive=adaptive,
                                a1=a1, **kw)
            np.testing.assert_array_equal(traj.times, obs)
            fields = [traj.v, traj.S, traj.a, traj.phi]
            if a1 is not None:
                fields += [traj.phi1, traj.w]
            assert all(f.shape[0] == obs.size for f in fields)
            steps = traj.step_times
            assert steps[-1] == 0.25
            assert traj.grad_div_v_max.size == steps.size
            for other in (2, 11, 20):
                twin = evolve_limit(gaussian_data, 2, 0.25, adaptive=adaptive,
                                    a1=a1, n_obs=other)
                np.testing.assert_array_equal(twin.step_times, steps)
            if not adaptive:
                assert traj.dt * (steps.size - 1) == pytest.approx(0.25)

    def test_node_on_step_end_is_its_state(self, gaussian_data):
        # node 1 of a run at dt = 0.0125 to T = 0.05 with 3 nodes falls on
        # the end of step 2: it is the end state of the run that stops
        # there, bit for bit, and so is the last node
        kw = dict(dt=0.0125, a1=gaussian_data.a1)
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3, **kw)
        half = evolve_limit(gaussian_data, 2, 0.025, **kw)
        assert traj.step_times[2] == traj.times[1] == half.step_times[-1]
        for name in ("v", "S", "a", "phi", "phi1", "w"):
            assert (getattr(traj, name)[1].tobytes()
                    == getattr(half, name)[-1].tobytes())

    def test_inner_node_converges_at_fourth_order(self, gaussian_data):
        # the node at T/3 lies a third or two thirds into its step at each
        # of dt = 2e-3, 1e-3 and 5e-4, never on a step end; the interpolant
        # keeps RK4's order there (Richardson ratio 2^4 = 16, measured
        # 16.06-16.08), as the step ends do in acceptance 03
        g = gaussian_data.grid
        runs = [evolve_limit(gaussian_data, 2, 0.1, dt=dt, n_obs=4,
                             a1=gaussian_data.a1) for dt in (2e-3, 1e-3, 5e-4)]
        for r in runs:
            assert not np.any(r.step_times == r.times[1])
        for name in ("a", "phi", "w"):
            n1, n2, n4 = (getattr(r, name)[1] for r in runs)
            assert 14.0 <= g.l2_norm(n1 - n2) / g.l2_norm(n2 - n4) <= 18.0

    def test_fixed_step_stop_below_rk4_limit(self):
        # a fixed-step run stops (status "cfl") once its CFL number passes
        # 2*CFL_NUMBER = 1.0; that stop must lie below RK4's stability limit
        # 2*sqrt(2) on the imaginary axis, reached in 1-D at the largest
        # wavenumber of the 2/3 band: a CFL number of about 3*sqrt(2)/pi =
        # 1.35.  So must ADAPTIVE_CFL, the adaptive runs' CFL number in 1-D
        # (ADAPTIVE_CFL/dim in dim dimensions, TestAdaptiveStep)
        for n, length in ((512, 16.0), (64, 12.0), (128, 2 * np.pi)):
            g = Grid(n, length)
            k_max = np.max(np.abs(g.wavenumbers[0][g.dealias_mask]))
            limit_cfl = 2 * math.sqrt(2) / (k_max * g.dx[0])
            assert limit_cfl == pytest.approx(3 * math.sqrt(2) / math.pi, rel=0.02)
            assert 2 * limit.CFL_NUMBER < limit_cfl
            assert limit.ADAPTIVE_CFL < limit_cfl


def nan_at_stage(monkeypatch, stage: int) -> list:
    """limit._rhs whose call number `stage` (from 0) returns NaN rows; one
    entry per call."""
    calls = []
    rhs = limit._rhs

    def spy(*args, **kwargs):
        calls.append(1)
        dR, dC = rhs(*args, **kwargs)
        if len(calls) == stage + 1:
            dR = np.full_like(dR, np.nan)
        return dR, dC

    monkeypatch.setattr(limit, "_rhs", spy)
    return calls


class TestNonfiniteStop:
    """A step whose new state is not finite stops the run with status
    'nonfinite': a fixed-step run raises there, an adaptive one returns."""

    STAGE = 5  # stage 2 of the second step; calls 0-3 are the first step's

    def test_fixed_step_raises(self, gaussian_data, monkeypatch):
        calls = nan_at_stage(monkeypatch, self.STAGE)
        with pytest.raises(NumericalGuardError, match="status 'nonfinite'"):
            evolve_limit(gaussian_data, 2, 0.25, n_obs=5)
        assert len(calls) == 8  # no stage after the second step

    def test_adaptive_returns(self, gaussian_data, monkeypatch):
        calls = nan_at_stage(monkeypatch, self.STAGE)
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=5, adaptive=True)
        assert traj.status == "nonfinite"
        assert len(calls) == 8
        assert len(traj.step_times) == 2  # t = 0 and the first step
        assert np.all(np.isfinite(traj.a)) and np.all(np.isfinite(traj.v))

    def test_cli_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        # the limit command runs at a fixed step: exit 3, a numerical_guard
        # record on stderr, and no summary
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "grid": {"N": 128, "L": 16.0},
            "time": {"T": 0.04, "observation_count": 5}}))
        out = tmp_path / "out"
        nan_at_stage(monkeypatch, self.STAGE)
        assert cli.main(["limit", str(path), "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "numerical_guard"
        assert "status 'nonfinite'" in record["error"]["message"]
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.json"]


def config_data(dim=1, n=512, length=16.0, sigma=2, T=0.25, n_obs=20,
                width=1.0, amp_im=0.2, center=None, width1=1.2):
    """(initial data, sigma, T, n_obs) of a CLI config with the README's
    gaussian a0 and a1, made as the commands make it."""
    at = {} if center is None else {"center": center}
    cfg = parse_config(json.dumps({
        "grid": {"dim": dim, "N": n, "L": length}, "physics": {"sigma": sigma},
        "time": {"T": T, "observation_count": n_obs},
        "initial": {"a0_preset": "gaussian",
                    "a0_params": {"width": width, "amplitude_re": 1.0,
                                  "amplitude_im": amp_im, **at},
                    "a1_preset": "gaussian", "a1_params": {"width": width1, **at}}}))
    return cfg.make_initial_data(), sigma, T, n_obs


def sweep_2d_data(width=1.0, amp_im=0.2, center=(0.0, 0.0), a1_width2=1.4):
    """(initial data, sigma, T, n_obs) of the 128x128 benchmark sweep."""
    g = Grid((128, 128), (12.0, 12.0))
    x, y = g.coords
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    bump = np.exp(-r2 / width**2)
    return InitialData(grid=g, a0=bump * (1 + 1j * amp_im * bump),
                       a1=(0.4 * np.exp(-r2 / a1_width2)).astype(complex),
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0, 0.0)), 2, 0.05, 11


# the fixed-step runs of the README config (its sigma = 1 and 3 twins and
# its T = 0.35 twin with 7 observations), of the benchmark's configs (the
# 1-D ones at the steepest corner of their seed jitter), of the CI's 64x64
# sweep and of the acceptance fixtures (acceptance 07: T = 0.1 with 41
# observations; acceptance 12: N = 256, T = 0.1)
STEP_CONFIGS = {
    "readme": lambda: config_data(),
    "readme-sigma1": lambda: config_data(sigma=1),
    "readme-sigma3": lambda: config_data(sigma=3),
    "readme-obs7": lambda: config_data(T=0.35, n_obs=7),
    "bench-1d-corner": lambda: config_data(width=0.95, amp_im=0.25, center=0.1,
                                           width1=1.08),
    "bench-2d": lambda: sweep_2d_data(),
    "bench-2d-corner": lambda: sweep_2d_data(0.95, 0.25, (0.1, -0.1), 1.26),
    "ci-64x64": lambda: config_data(dim=2, n=64, length=12.0, T=0.02, n_obs=5),
    "acceptance-07-sigma1": lambda: config_data(sigma=1, T=0.1, n_obs=41),
    "acceptance-07-sigma2": lambda: config_data(T=0.1, n_obs=41),
    "acceptance-12": lambda: config_data(n=256, T=0.1, n_obs=8),
}


def budget_plan(dim):
    """A small sweep plan, 1-D or 2-D, whose limit nodes mostly fall inside
    steps: 6 steps of 1/60 for 6 nodes 0.02 apart (N = 256), and 2 steps of
    0.03 for 5 nodes 0.015 apart (64x64)."""
    if dim == 1:
        g = Grid(256, 16.0)
        a0 = gaussian(g, 1.0, 1.0) * (1 + 0.2j * gaussian(g, 1.0))
        data = InitialData(grid=g, a0=a0, a1=(0.5 * gaussian(g, 1.2)).astype(complex),
                           phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0,))
        return SweepPlan(initial=data, sigma=2, epsilon_list=(2.0**-3, 2.0**-4, 2.0**-5),
                         final_time=0.1, n_obs=6, self_check=False)
    g = Grid((64, 64), (12.0, 12.0))
    r2 = sum(c**2 for c in g.coords)
    bump = np.exp(-r2)
    data = InitialData(grid=g, a0=bump * (1 + 0.2j * bump),
                       a1=(0.4 * np.exp(-r2 / 1.4)).astype(complex),
                       phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0, 0.0))
    return SweepPlan(initial=data, sigma=2, epsilon_list=(0.25, 0.125, 0.0625),
                     final_time=0.06, n_obs=5, self_check=False)


class TestLargerStep:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nodes_within_budget(self, dim):
        # every rung's limit error stays below 1e-3 of its two-term WKB
        # error, on ||a_tilde - a_tilde_ref|| and on ||phi - phi_ref||/eps
        # (the phase enters the WKB ansatz as exp(i phi/eps)), against a run
        # at CFL 0.125 (measured: at most 0.056 of the budget in 1-D, 0.16
        # in 2-D, both on the phase at the smallest eps)
        plan = budget_plan(dim)
        data, g = plan.initial, plan.initial.grid
        rows = run_sweep(plan).rows
        run = evolve_limit(data, 2, plan.final_time, n_obs=plan.n_obs, a1=data.a1)
        assert len(set(run.times) - set(run.step_times)) >= 2  # inside steps
        ref = evolve_limit(data, 2, plan.final_time, n_obs=plan.n_obs, a1=data.a1,
                           dt=run.dt * 0.125 / run.cfl_numbers[0])
        err_a = max(g.l2_norm(tilde_amplitude(run.state(i))
                              - tilde_amplitude(ref.state(i)))
                    for i in range(plan.n_obs))
        err_phi = max(g.l2_norm(run.phi[i] - ref.phi[i]) for i in range(plan.n_obs))
        for row in rows:
            budget = 1e-3 * row["err_two_term_l2"]
            assert err_a <= budget
            assert err_phi / row["epsilon"] <= budget

    @pytest.mark.parametrize("name", list(STEP_CONFIGS))
    def test_configs_still_complete(self, name):
        # the CFL step alone sets the step now, up to 5x the one that the
        # observation interval cut it to; every fixed-step run that
        # completed under that rule completes under this one, well inside
        # the stop at 2*CFL_NUMBER = 1.0 (measured at most 0.56)
        data, sigma, T, n_obs = STEP_CONFIGS[name]()
        traj = evolve_limit(data, sigma, T, n_obs=n_obs, a1=data.a1)
        assert traj.status == "completed"
        assert traj.times.size == n_obs
        assert np.max(traj.cfl_numbers) < 0.6 < 2 * limit.CFL_NUMBER

    @pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
    def test_focusing_demo_completes(self, dim, n):
        # the demo's adaptive step is capped at its first CFL step, no
        # longer at a third of its observation interval: the CLI default
        # (N = 512) and the CI's 64x64 modes still complete the window
        g = Grid(n, 2 * np.pi, dim=dim)
        background = InitialData(grid=g, a0=np.ones(g.shape, dtype=complex),
                                 a1=np.zeros(g.shape, dtype=complex),
                                 phi0_periodic=np.zeros(g.shape),
                                 phi0_wavevector=(0.0,) * dim)
        modes = [4, 8, 16, 32] if dim == 1 else [2, 4, 8]
        for psign in (-1, 1):
            assert len(focusing_demo(background, modes, 2,
                                     pressure_sign=psign)) == len(modes)


def oracle_rhs(state, grid, sigma, psign, mask):
    """The module docstring's right-hand sides in physical space:
    Grid.gradient for every derivative and Grid.dealias on every product
    (onto mask for the limit fields, onto the 2/3 band for the corrector
    pair)."""
    v, S, a, phi, *pair = state
    grad_v = grid.gradient(v).real
    div_v = np.trace(grad_v)
    grad_S, grad_a = grid.gradient(S), grid.gradient(a)
    p = np.abs(S) ** 2
    grad_p = grid.gradient(p).real
    out = [
        grid.dealias(-(np.sum(v[:, None] * grad_v, axis=0) + psign * grad_p),
                     mask).real,
        grid.dealias(-(np.sum(v * grad_S, axis=0) + 0.5 * sigma * S * div_v),
                     mask),
        grid.dealias(-(np.sum(v * grad_a, axis=0) + 0.5 * a * div_v), mask),
        grid.dealias(-(0.5 * np.sum(v**2, axis=0) + psign * p), mask).real,
    ]
    if pair:
        phi1, w = pair
        grad_phi1 = grid.gradient(phi1).real
        lap_phi1 = grid.laplacian(phi1).real
        dphi1 = -(np.sum(v * grad_phi1, axis=0) + 2.0 * sigma
                  * np.real(np.conj(a) * w) * np.abs(a) ** (2 * sigma - 2))
        dw = (-(np.sum(v * grid.gradient(w), axis=0)
                + np.sum(grad_phi1 * grad_a, axis=0)
                + 0.5 * w * div_v + 0.5 * a * lap_phi1)
              + 0.5j * grid.laplacian(a))
        out += [grid.dealias(dphi1).real, grid.dealias(dw)]
    return out


def count_calls(monkeypatch, names) -> Counter:
    """Calls of each named numpy.fft function from here on."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


ALL_FFTS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
            "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")


def spectral(state, grid):
    """The spectral RK4 state (R, C) of the fields (v, S, a, phi[, phi1,
    w]): half spectra of v_1..v_dim, phi (and phi1), full spectra of S, a
    (and w)."""
    v, S, a, phi, *pair = state
    return (grid.rfft(np.array([*v, phi, *pair[:1]])),
            grid.fft(np.array([S, a, *pair[1:]])))


def physical(dR, dC, grid):
    """The fields [v, S, a, phi[, phi1, w]] of the spectral pair (dR, dC)."""
    real, cplx = grid.irfft(dR), grid.ifft(dC)
    return [real[:grid.dim], *cplx[:2], *real[grid.dim:], *cplx[2:]]


def joint_state(grid, batch=()):
    """Smooth fields of the joint state (v, S, a, phi, phi1, w), a batch
    member per leading index."""
    r2 = sum(c**2 for c in grid.coords)
    scale = np.reshape(np.linspace(1.0, 0.7, max(1, math.prod(batch))),
                       batch + (1,) * grid.dim)
    bump = scale * np.exp(-r2)
    a = bump * (1 + 0.3j * np.exp(-r2 / 2))
    v = np.stack([0.4 * np.sin(c) * bump for c in grid.coords])
    phi = 0.2 * bump * np.cos(sum(grid.coords))
    phi1 = 0.1 * bump * np.sin(sum(grid.coords))
    w = (0.5 - 0.2j) * scale * np.exp(-r2 / 1.4)
    return v, a**2, a, phi, phi1, w


STAGE_CASES = ["1d", "2d", "batch", "cutoff"]


def stage_case(case, grid_2d):
    """Grid, batch, mask and pressure sign of a stage test case."""
    grid = grid_2d if case == "2d" else Grid(256, 16.0)
    batch = (3,) if case == "batch" else ()
    mask, psign = grid.dealias_mask, 1
    if case == "cutoff":
        mask, psign = mask & grid.mode_mask(20), -1
    return grid, batch, mask, psign


class TestSpectralStage:
    @pytest.mark.parametrize("case", STAGE_CASES)
    def test_matches_physical_oracle(self, case):
        grid, batch, mask, psign = stage_case(case, Grid((32, 32), (10.0, 10.0)))
        state = joint_state(grid, batch)
        expected = oracle_rhs(state, grid, 2, psign, mask)
        y = spectral(state, grid)
        dR, dC = limit._rhs(y, grid, 2, psign, mask)
        assert (dR.shape, dC.shape) == (y[0].shape, y[1].shape)
        got = physical(dR, dC, grid)
        assert len(got) == 6
        for got_f, want in zip(got, expected):
            assert got_f.shape == want.shape
            assert np.max(np.abs(got_f - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("joint", [True, False], ids=["joint", "limit"])
    def test_one_stage_takes_at_most_four_transforms(self, monkeypatch, joint):
        # one inverse and one forward call per kind, real and complex
        grid = Grid(512, 16.0)
        y = spectral(joint_state(grid)[: 6 if joint else 4], grid)
        calls = count_calls(monkeypatch, ALL_FFTS)
        dR, dC = limit._rhs(y, grid, 2, 1, grid.dealias_mask)
        assert (dR.shape, dC.shape) == (y[0].shape, y[1].shape)
        assert sum(calls.values()) <= 4, calls

    @pytest.mark.parametrize("joint", [True, False], ids=["joint", "limit"])
    @pytest.mark.parametrize("case", STAGE_CASES)
    def test_stage_one_from_grid_pass_is_bitwise(self, case, joint):
        # a stage fed the step's grid pass of y equals one that transforms
        # y afresh, bit for bit, and empties the pass it was fed
        grid, batch, mask, psign = stage_case(case, Grid((32, 16), (10.0, 8.0)))
        y = spectral(joint_state(grid, batch)[: 6 if joint else 4], grid)
        grid_pass = limit._grid_fields(y, grid, step=True)
        fed = limit._rhs(y, grid, 2, psign, mask, grid_pass)
        assert grid_pass == []
        fresh = limit._rhs(y, grid, 2, psign, mask)
        for got, want in zip(fed, fresh):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    def test_one_grid_pass_per_step(self, monkeypatch):
        # a 1-D joint step makes one forward call of each kind per stage
        # (four stages), one inverse call of each kind in stages 2-4, and
        # one grid pass of its new state (one irfft call: v, grad v,
        # grad phi1, Lap phi1, grad div v, phi and phi1; one ifft call: S, a
        # and w with their gradients), which feeds the next step's stage 1;
        # no n-d transform at all
        g = Grid(256, 16.0)
        data = InitialData(grid=g, a0=gaussian(g, 1.0).astype(complex),
                           a1=0.3 * gaussian(g, 1.2).astype(complex),
                           phi0_periodic=np.zeros(g.shape), phi0_wavevector=(0.0,))
        calls = count_calls(monkeypatch, ALL_FFTS)
        per_run = []
        for steps in (3, 5):
            calls.clear()
            traj = evolve_limit(data, 2, 0.01 * steps, dt=0.01, a1=data.a1)
            assert len(traj.step_times) == steps + 1
            per_run.append(+calls)
        assert set(per_run[0]) == set(per_run[1]) == {"rfft", "fft", "irfft", "ifft"}
        assert per_run[1] - per_run[0] == Counter(
            {"rfft": 2 * 4, "fft": 2 * 4, "irfft": 2 * 4, "ifft": 2 * 4})

        # the 2-D layout of the pass: v, d_j v_i, grad phi1, Lap phi1,
        # grad div v, phi, phi1 and S, a, w with their gradients agree with
        # the physical fields and Grid.gradient
        g = Grid((32, 16), (10.0, 8.0))
        state = joint_state(g)
        real, cplx = limit._grid_fields(spectral(state, g), g, step=True)
        v, S, a, phi, phi1, w = state
        grad_v = g.gradient(v).real
        want = np.concatenate([v, grad_v.reshape(4, *g.shape),
                               g.gradient(phi1).real, g.laplacian(phi1).real[None],
                               g.gradient(np.trace(grad_v)).real, [phi, phi1]])
        assert real.shape == want.shape
        Saw = np.array([S, a, w])
        assert cplx.shape == (3, 3, *g.shape)
        for got, ref in zip([*real, *cplx.reshape(9, *g.shape)],
                            [*want, *Saw, *g.gradient(Saw).reshape(6, *g.shape)]):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRK4Step:
    def test_taylor_polynomial_of_linear_growth(self):
        # y' = y: one RK4 step is the degree-4 Taylor polynomial of exp(h)
        h = 0.1
        (y,) = rk4_step(lambda y, c: (y[0],), (np.array([1.0]),), h)
        assert y[0] == pytest.approx(1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24,
                                     rel=1e-15)

    def test_stage_fractions_integrate_cubic_exactly(self):
        # y' = (t0 + c*h)^3 with y untouched: RK4 reduces to Simpson's rule,
        # exact for cubics, so the stage fraction c must be passed through
        t0, h = 0.3, 0.2
        (y, z) = rk4_step(lambda y, c: ((t0 + c * h) ** 3, 0.0 * y[1]),
                          (0.0, np.ones(2)), h)
        assert y == pytest.approx(((t0 + h) ** 4 - t0**4) / 4, rel=1e-14)
        np.testing.assert_array_equal(z, np.ones(2))

    def test_given_first_stage_is_bitwise_the_same(self):
        # the caller's k1 = rhs(y, 0.0), here a joint limit stage, gives the
        # step's own bits
        grid = Grid(256, 16.0)
        y = spectral(joint_state(grid), grid)

        def rhs(y, c):
            return limit._rhs(y, grid, 2, 1, grid.dealias_mask)

        given = rk4_step(rhs, y, 0.01, k1=rhs(y, 0.0))
        for got, want in zip(given, rk4_step(rhs, y, 0.01)):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


class TestPhase:
    def test_initial_phase_exact(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3)
        assert np.max(np.abs(traj.phi_periodic[0] - gaussian_data.phi0_periodic)) == 0.0

    def test_constant_state_closed_form(self, grid_1d):
        # phi(t, x) = phi0 + v0 x - (v0^2/2 + rho0^sigma) t
        rho0 = 0.49
        v0 = 2 * 2 * np.pi / grid_1d.lengths[0]  # lattice point
        sigma = 2
        data = constant_state_data(grid_1d, rho0=rho0, v0=v0)
        traj = evolve_limit(data, sigma, 0.5, n_obs=6)
        t = float(traj.times[-1])
        expected_per = -(0.5 * v0**2 + rho0**sigma) * t
        assert np.max(np.abs(traj.phi_periodic[-1] - expected_per)) < 1e-12
        assert traj.phi0_wavevector[0] == pytest.approx(v0)
        state = traj.state(-1)
        lin = v0 * grid_1d.coords[0]
        assert np.max(np.abs(state.phi_total() - (lin + expected_per))) < 1e-12

    def test_gradient_matches_velocity(self, gaussian_data):
        g = gaussian_data.grid
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=20)
        phi = traj.phi_periodic
        worst = 0.0
        for i in range(0, traj.times.size, 8):
            dphi = g.spectral_derivative(phi[i], 0).real
            worst = max(worst, g.l2_norm(dphi - traj.v[i][0]))
        assert worst < 1e-6

    def test_phase_consistent_at_roundoff(self, gaussian_data):
        # the phase is an RK4 component whose right-hand side has gradient
        # equal to d_t v (curl-free v, projection inside the band), so
        # grad phi - v stays at roundoff whatever the step
        g2 = Grid((32, 32), (12.0, 12.0))
        x, y = g2.coords
        # band-limited phase: grad phi0 - v0 starts at roundoff too
        phi0 = 0.3 * np.cos(2 * np.pi * x / 12.0) * np.sin(2 * np.pi * y / 12.0)
        data_2d = InitialData(grid=g2, a0=np.exp(-(x**2 + y**2)).astype(complex),
                              a1=np.zeros(g2.shape, dtype=complex),
                              phi0_periodic=phi0, phi0_wavevector=(0.0, 0.0))
        for data, n_obs in ((gaussian_data, 5), (data_2d, 3)):
            for dt in (4e-3, 2e-3, None):
                traj = evolve_limit(data, 2, 0.1, dt=dt, n_obs=n_obs)
                assert phase_defect(traj) < 1e-12

    def test_phase_fourth_order(self, gaussian_data):
        # Richardson ratio of the phase at T: 2^4 = 16 for RK4 (measured 16.1)
        g = gaussian_data.grid

        def final(dt):
            return evolve_limit(gaussian_data, 2, 0.1, dt=dt).phi_periodic[-1]

        p1, p2, p4 = final(4e-3), final(2e-3), final(1e-3)
        ratio = g.l2_norm(p1 - p2) / g.l2_norm(p2 - p4)
        assert 12.0 <= ratio <= 20.0


def phase_defect(traj) -> float:
    """max over stored nodes and axes of ||d_j phi + k_j - v_j||_L2."""
    g = traj.grid
    return max(
        g.l2_norm(g.spectral_derivative(traj.phi_periodic[i], j).real
                  + traj.phi0_wavevector[j] - traj.v[i][j])
        for i in range(traj.times.size) for j in range(g.dim))


class TestEulerInvariants:
    def test_constant_state_values(self, grid_1d):
        L = grid_1d.lengths[0]
        rho0 = 0.36
        v0 = 2 * np.pi / L  # one lattice mode
        sigma = 2
        data = constant_state_data(grid_1d, rho0=rho0, v0=v0)
        traj = evolve_limit(data, sigma, 0.2, n_obs=3)
        inv = euler_invariants(traj.state(0), sigma)
        assert inv.mass == pytest.approx(rho0 * L, rel=1e-12)
        assert inv.momentum[0] == pytest.approx(rho0 * v0 * L, rel=1e-12)
        expected_e = (0.5 * rho0 * v0**2 + rho0 ** (sigma + 1) / (sigma + 1)) * L
        assert inv.energy == pytest.approx(expected_e, rel=1e-12)
        assert inv.total_pressure == pytest.approx(rho0 ** (sigma + 1) * L, rel=1e-12)

    def test_drifts_pre_breakdown(self, gaussian_data):
        sigma = 2
        traj = evolve_limit(gaussian_data, sigma, 0.25, n_obs=20)
        inv0 = euler_invariants(traj.state(0), sigma)
        for i in range(0, 20, 4):
            inv = euler_invariants(traj.state(i), sigma)
            assert abs(inv.mass - inv0.mass) / inv0.mass < 1e-8
            assert abs(inv.energy - inv0.energy) / abs(inv0.energy) < 1e-8
            assert abs(inv.momentum[0] - inv0.momentum[0]) < 1e-8 * inv0.mass
            assert abs(inv.center_of_mass[0]
                       - inv0.center_of_mass[0]) < 1e-7 * inv0.mass

    def test_pseudo_conformal_critical(self, gaussian_data):
        # sigma=2, n=1: source term vanishes; quantity stays constant
        sigma = 2
        traj = evolve_limit(gaussian_data, sigma, 0.25, n_obs=20)
        pcs = [euler_invariants(traj.state(i), sigma).pseudo_conformal
               for i in range(0, 20, 4)]
        assert max(abs(p - pcs[0]) for p in pcs) / abs(pcs[0]) < 1e-6

    def test_pseudo_conformal_source_rate(self, gaussian_data):
        # sigma=1, n=1: d/dt PC = t/2 * int rho^2, centered-difference check
        sigma = 1
        traj = evolve_limit(gaussian_data, sigma, 0.2, n_obs=21)
        h = 0.01
        ts = np.linspace(0.0, 0.2, 21)
        invs = [euler_invariants(traj.state(i), sigma) for i in range(ts.size)]
        i = 10
        dpc = (invs[i + 1].pseudo_conformal - invs[i - 1].pseudo_conformal) / (2 * h)
        expected = ts[i] * (2 - 1) / 2 * invs[i].total_pressure
        assert dpc == pytest.approx(expected, rel=5e-3)


def blowup_run(grid, sigma=2):
    """The adaptive breakdown hunt of the blowup command on grid, for its
    amplitude-1.0 bump."""
    a0 = compact_bump(grid, radius=3.0, amplitude=1.0).astype(complex)
    data = InitialData(grid=grid, a0=a0, a1=np.zeros(grid.shape, dtype=complex),
                       phi0_periodic=np.zeros(grid.shape),
                       phi0_wavevector=(0.0,) * grid.dim)
    threshold = limit.breakdown_threshold(
        grid, np.zeros((grid.dim, *grid.shape)), a0**sigma, sigma)
    return evolve_limit(data, sigma, 20.0, adaptive=True, grad_stop=threshold)


class TestBlowup:
    def test_constant_never_flags(self, grid_1d):
        data = constant_state_data(grid_1d, rho0=0.5)
        traj = evolve_limit(data, 2, 4.0, adaptive=True)
        rep = blowup_monitor(traj)
        assert not rep.breakdown_flag

    def test_compact_bump_flags_and_monotone(self):
        g = Grid(256, 20.0)
        sigma = 1
        t_flagged = []
        for amp in (0.5, 1.0):
            a0 = compact_bump(g, radius=3.0, amplitude=amp).astype(complex)
            data = InitialData(grid=g, a0=a0,
                               a1=np.zeros(g.shape, dtype=complex),
                               phi0_periodic=np.zeros(g.shape),
                               phi0_wavevector=(0.0,))
            scale = characteristic_gradient_scale(
                g, np.zeros((1, *g.shape)), a0**sigma, sigma)
            traj = evolve_limit(data, sigma, 20.0, adaptive=True,
                                grad_stop=40.0 * scale)
            rep = blowup_monitor(traj)
            assert rep.breakdown_flag
            assert rep.t_estimate is not None and rep.t_estimate < 20.0
            assert rep.envelope_ok
            t_flagged.append(rep.t_estimate)
        assert t_flagged[1] < t_flagged[0]  # doubling amplitude breaks earlier

    def test_grad_stop_run_stores_node_0_only(self):
        # the breakdown hunt stops at the monitor's crossing, long before
        # its second observation time (the end): node 0, from which the
        # monitor reads its threshold, is all it stores
        traj = blowup_run(Grid(256, 20.0), sigma=1)
        assert traj.status == "grad_stop"
        assert traj.times.tolist() == [0.0]
        assert traj.v.shape[0] == traj.a.shape[0] == 1
        assert blowup_monitor(traj).t_estimate == traj.step_times[-1]

    @pytest.mark.parametrize("shape, lengths", [(128, 10.0),
                                                ((32, 16), (10.0, 8.0))])
    def test_gradient_scale_matches_v_scalars(self, shape, lengths):
        # max|grad v| + sqrt(sigma+1)*max|grad |S||, term by term
        g = Grid(shape, lengths)
        v = np.stack([np.sin(2 * np.pi * (j + 1) * c / g.lengths[j])
                      * np.exp(-c**2) for j, c in enumerate(g.coords)])
        S = (1.0 + 0.3 * np.exp(-sum(c**2 for c in g.coords))
             * (1 + 0.5j)).astype(complex)
        old = (np.max(np.abs(g.gradient(v).real)) + math.sqrt(3)
               * float(np.max(np.abs(g.gradient(np.abs(S)).real))))
        assert characteristic_gradient_scale(g, v, S, 2) == old


@pytest.fixture(scope="module")
def background():
    g = Grid(256, 2 * np.pi)
    return InitialData(grid=g, a0=np.ones(g.shape, dtype=complex),
                       a1=np.zeros(g.shape, dtype=complex),
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0,))


class TestFocusingDemo:
    @staticmethod
    def oracle_rate(k_xi, sigma, rho0):
        """Eigenvalue oracle: largest real part of the frozen-coefficient
        symbol -i*xi*M of the linearized (density, velocity) system with the
        ill-posed pressure sign."""
        m = np.array([[0.0, rho0], [-sigma * rho0 ** (sigma - 1), 0.0]])
        eig = np.linalg.eigvals(-1j * k_xi * m)
        return float(np.max(eig.real))

    def test_rates_match_eigenvalue_oracle(self, background):
        rows = focusing_demo(background, [4, 8, 16, 32], 1, pressure_sign=-1)
        rates = [r.rate for r in rows]
        assert all(rates[i] < rates[i + 1] for i in range(len(rates) - 1))
        for row in rows:
            oracle = self.oracle_rate(row.xi, 1, 1.0)
            assert oracle == pytest.approx(np.sqrt(1.0) * row.xi, rel=1e-12)
            assert row.rate == pytest.approx(oracle, rel=0.2)
        # by the largest probed mode the measured rate is within a few percent
        assert rows[-1].rate == pytest.approx(
            self.oracle_rate(rows[-1].xi, 1, 1.0), rel=0.05)

    def test_defocusing_control_bounded(self, background):
        rows = focusing_demo(background, [4, 8, 16, 32], 1, pressure_sign=1)
        for row in rows:
            assert 0.8 <= row.max_growth <= 1.2

    def test_row_equals_explicit_background_run(self, background):
        # the old reduction: the background evolved alongside the perturbed
        # run and subtracted node by node; at rest it stays bit-for-bit put
        # the defaults of focusing_demo; the cutoff is its default for k = 8
        k, sigma, psign, delta, window = 8, 1, -1, 1e-7, 0.35
        g = background.grid

        def run(a0):
            data = InitialData(grid=g, a0=a0, a1=background.a1,
                               phi0_periodic=background.phi0_periodic,
                               phi0_wavevector=background.phi0_wavevector)
            return evolve_limit(data, sigma, window, n_obs=36,
                                pressure_sign=psign, adaptive=True,
                                spectral_cutoff=16)

        base = run(background.a0)
        xi = 2.0 * np.pi * k / g.lengths[0]
        traj = run(background.a0 + delta * np.cos(xi * g.coords[0]))
        rho_bg = np.abs(base.a) ** 2
        rho0 = float(np.mean(rho_bg[0]))
        w = np.array([np.sqrt(
            sigma * rho0 ** (sigma - 1)
            * float(g.integral((np.abs(traj.a[i]) ** 2 - rho_bg[i]) ** 2).real)
            + rho0 * float(g.integral(
                np.sum((traj.v[i] - base.v[i]) ** 2, axis=0)).real))
            for i in range(traj.times.size)])
        half = w.size // 2
        rate = float(np.polyfit(traj.times[half:],
                                np.log(np.maximum(w[half:], 1e-300)), 1)[0])
        ref = GrowthRow(mode=k, xi=xi, rate=rate,
                        max_growth=float(np.max(w) / w[0]), w0=float(w[0]))
        np.testing.assert_array_equal(base.times, traj.times)
        assert focusing_demo(background, [k], sigma, pressure_sign=psign,
                             delta=delta, window=window) == [ref]

    def test_batched_rows_equal_single_runs(self, background):
        # one batched run for all wavenumbers gives the rows of one run per
        # wavenumber once they share the cutoff (the default depends on ks)
        ks = [4, 8, 16]
        for psign in (-1, 1):
            rows = focusing_demo(background, ks, 1, pressure_sign=psign,
                                 spectral_cutoff=32)
            assert rows == [focusing_demo(background, [k], 1, pressure_sign=psign,
                                          spectral_cutoff=32)[0] for k in ks]

    @pytest.mark.parametrize("key", ["a0", "phi0_periodic", "phi0_wavevector"])
    def test_background_must_be_constant_at_rest(self, background, key):
        bump = 0.1 * np.cos(background.grid.coords[0])
        changed = {"a0": background.a0 + bump, "phi0_periodic": bump,
                   "phi0_wavevector": (1.0,)}[key]
        with pytest.raises(ConfigError) as err:
            focusing_demo(replace(background, **{key: changed}), [4], 1)
        assert err.value.key == "initial.a0"

    @pytest.mark.parametrize("kwargs,key", [
        # mode 86 lies above the 2/3 band N // 3 = 85: projected away at once
        ({"perturbation_wavenumbers": [4, 85, 86]}, "focusing.wavenumbers"),
        # the ill-posed sigma = 2 growth leaves the linear regime long
        # before the end of a window of 1.0
        ({"perturbation_wavenumbers": [32], "sigma": 2, "window": 1.0},
         "focusing.window"),
        # the sigma = 1 run completes a window of 1.0, but its perturbation
        # outgrows the background (max|a - a_bg| reaches 2.3-2.8 |a_bg|)
        ({"perturbation_wavenumbers": [4, 8, 16, 32], "window": 1.0},
         "focusing.window"),
    ])
    def test_unmeasurable_run_rejected(self, background, kwargs, key):
        with pytest.raises(ConfigError) as err:
            focusing_demo(background, **{"sigma": 1, **kwargs})
        assert err.value.key == key

    def test_run_stopped_inside_window_rejected(self, background):
        # the ill-posed sigma = 2 growth raises the wave speed until the CFL
        # step falls below DT_FLOOR_FACTOR times the first one at
        # t = 0.393: no rows from part of the window, while the default
        # window completes
        with pytest.raises(ConfigError) as err:
            focusing_demo(background, [32], 2, pressure_sign=-1, window=0.5)
        assert err.value.key == "focusing.window"
        assert "stopped at t=0.39338 of the window 0.5 with status " \
            "'dt_floor'" in str(err.value)
        assert len(focusing_demo(background, [32], 2, pressure_sign=-1)) == 1

    @pytest.mark.parametrize("window", [1e-300, 1e-100, 8.6e-3, 0.012])
    def test_window_inside_first_cfl_step_rejected(self, background,
                                                   monkeypatch, window):
        # the background's first adaptive CFL step at sigma = 1 is
        # ADAPTIVE_CFL*(2*pi/256)/sqrt(2) = 0.0174: a shorter window puts
        # all 36 nodes inside one step, and is refused before any step.
        # 0.012 lies above the step at CFL_NUMBER (8.68e-3) but inside the
        # first step that the adaptive run takes
        calls = spy_rhs(monkeypatch)
        with pytest.raises(ConfigError) as err:
            focusing_demo(background, [4], 1, window=window)
        assert err.value.key == "focusing.window"
        assert "first CFL step 0.017355" in str(err.value)
        assert calls == []
        assert window < evolve_limit(background, 1, 1.0,
                                     adaptive=True).step_times[1]

    def test_zero_perturbation_zero_growth(self, background):
        rows = focusing_demo(background, [4], 1, pressure_sign=-1, delta=0.0)
        assert rows[0].rate == 0.0
        assert rows[0].max_growth == 0.0


class TestAdaptiveStep:
    @pytest.mark.parametrize("shape, lengths", [(256, 16.0),
                                                ((32, 32), (12.0, 12.0)),
                                                ((32, 16), (12.0, 6.0))])
    def test_cfl_numbers_at_adaptive_bound(self, shape, lengths):
        # an adaptive step is ADAPTIVE_CFL/dim*min(dx)/speed: every step's
        # CFL number stays at most ADAPTIVE_CFL/dim (0.5 in 2-D, the
        # fixed-step CFL_NUMBER), and the hunt steps at that bound
        g = Grid(shape, lengths)
        traj = blowup_run(g)
        assert traj.status == "grad_stop"
        bound = limit.ADAPTIVE_CFL / g.dim
        assert np.max(traj.cfl_numbers) <= bound * (1 + 1e-12)
        assert np.max(traj.cfl_numbers) == pytest.approx(bound, rel=1e-12)

    def test_accuracy_against_finer_step(self, monkeypatch):
        # the blowup time and the focusing rates at ADAPTIVE_CFL against a
        # reference at 0.125, as the commands make them: the blowup hunt
        # at N = 256 (t_estimate 1.7725 against 1.7661, 0.36%) and the
        # focusing-demo defaults (N = 512, sigma = 2, modes 4, 8, 16, 32;
        # at most 5.9e-4 relative, mode 8: 11.3323 against 11.3390)
        g = Grid(512, 2 * np.pi)
        background = InitialData(grid=g, a0=np.ones(g.shape, dtype=complex),
                                 a1=np.zeros(g.shape, dtype=complex),
                                 phi0_periodic=np.zeros(g.shape),
                                 phi0_wavevector=(0.0,))

        def measure():
            t = blowup_monitor(blowup_run(Grid(256, 16.0)))
            rows = focusing_demo(background, [4, 8, 16, 32], 2)
            return t.t_estimate, [r.rate for r in rows]

        t_run, rates = measure()
        monkeypatch.setattr(limit, "ADAPTIVE_CFL", 0.125)
        t_ref, rates_ref = measure()
        assert t_run == pytest.approx(t_ref, rel=1e-2)
        assert rates == pytest.approx(rates_ref, rel=1e-3)
