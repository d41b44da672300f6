from dataclasses import fields

import numpy as np
import pytest

from scnls import Grid
from scnls.diagnostics import (density_metrics, diagnostics_record,
                               gronwall_constant, modulate, modulated_energy,
                               q_g_fields, residual_transport)
from scnls.corrector import tilde_amplitude
from scnls.errors import GridMismatchError
from scnls.limit import evolve_limit
from scnls.nls import NLSConfig, build_initial_data, evolve_nls
from scnls.presets import InitialData


class TestModulate:
    def test_zero_phase_identity(self, grid_1d):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        out = modulate(u, np.zeros(grid_1d.shape), 0.25, grid_1d)
        assert np.max(np.abs(out - u)) == 0.0

    def test_round_trip(self, grid_1d):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        phi = np.sin(grid_1d.axes[0])
        eps = 0.1
        back = modulate(u, phi, eps, grid_1d) * np.exp(1j * phi / eps)
        assert np.max(np.abs(back - u)) < 1e-13 * np.max(np.abs(u))

    def test_modulus_preserved(self, grid_1d):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        phi = np.cos(grid_1d.axes[0])
        out = modulate(u, phi, 0.05, grid_1d)
        assert np.max(np.abs(np.abs(out) - np.abs(u))) < 1e-13

    def test_plane_wave_constant_modulus(self, grid_1d):
        # matched pair: u = A exp(i(kx - w t)/eps) with phi = kx - w t gives a
        # spatially constant filtered amplitude
        L = grid_1d.lengths[0]
        eps = 0.25
        k = 2 * np.pi * 2 * eps / L  # k/eps on the lattice
        t, A = 0.3, 0.7
        omega = k**2 / 2 + A**2
        x = grid_1d.axes[0]
        u = A * np.exp(1j * (k * x - omega * t) / eps)
        phi = k * x - omega * t
        a_eps = modulate(u, phi, eps, grid_1d)
        assert np.max(np.abs(a_eps - A)) < 1e-12

    def test_shape_mismatch(self, grid_1d):
        with pytest.raises(GridMismatchError):
            modulate(np.zeros(5, complex), np.zeros(grid_1d.shape), 0.1, grid_1d)


class TestQGFields:
    def test_equal_amplitudes_give_zero(self, grid_1d):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        q, g = q_g_fields(a, a, 0.1, 3)
        assert np.max(np.abs(q)) == 0.0

    def test_sigma1_exact_density_quotient(self, grid_1d):
        rng = np.random.default_rng(5)
        a_eps = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        a = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        eps = 0.05
        q, g = q_g_fields(a_eps, a, eps, 1)
        expected = (np.abs(a_eps) ** 2 - np.abs(a) ** 2) / eps
        assert np.max(np.abs(q - expected)) < 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(g - 1.0)) == 0.0

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_pointwise_composition(self, grid_1d, sigma):
        rng = np.random.default_rng(sigma + 6)
        a_eps = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        a = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        eps = 0.2
        q, g = q_g_fields(a_eps, a, eps, sigma)
        lhs = eps * q * g
        rhs = np.abs(a_eps) ** (2 * sigma) - np.abs(a) ** (2 * sigma)
        mask = (np.abs(lhs) > 1e-12) | (np.abs(rhs) > 1e-12)
        scale = np.abs(a_eps) ** (2 * sigma) + np.abs(a) ** (2 * sigma)
        assert np.max(np.abs(lhs - rhs)[mask] / scale[mask]) < 1e-10

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_squared_identity(self, grid_1d, sigma):
        # (eps q)^2 equals the closed-form square of the symmetrized gap
        rng = np.random.default_rng(sigma + 11)
        a_eps = 2 * rng.random(grid_1d.shape) + 1j * rng.random(grid_1d.shape)
        a = 2 * rng.random(grid_1d.shape) + 0j
        eps = 0.3
        q, _ = q_g_fields(a_eps, a, eps, sigma)
        r1, r2 = np.abs(a_eps) ** 2, np.abs(a) ** 2
        rhs = (2.0 / (sigma + 1)) * (r1 ** (sigma + 1) - r2 ** (sigma + 1)) \
            - 2.0 * r2**sigma * (r1 - r2)
        assert np.max(np.abs((eps * q) ** 2 - rhs)) < 1e-10 * np.max(np.abs(rhs) + 1)

    def test_initial_bound_uniform_in_epsilon(self, gaussian_data):
        # two-term data: ||q(0)||_{H^(sigma-1)} stays uniformly bounded
        g = gaussian_data.grid
        sigma = 3
        vals = []
        for eps in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7):
            a0e = gaussian_data.a0 + eps * gaussian_data.a1
            q, _ = q_g_fields(a0e, gaussian_data.a0, eps, sigma)
            vals.append(g.sobolev_norm(np.real(q), float(sigma - 1)))
        assert max(vals) / min(vals) < 2.0


@pytest.fixture(scope="module")
def sigma2_run(gaussian_data):
    """One wavefunction run with dense snapshots plus the matching limit flow."""
    g = gaussian_data.grid
    sigma, eps, T = 2, 2.0**-4, 0.1
    n_obs = 41
    obs = np.linspace(0.0, T, n_obs)
    ltraj = evolve_limit(gaussian_data, sigma, T, n_obs=n_obs)
    ltraj.phi_periodic
    u0 = build_initial_data(gaussian_data, eps)
    cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                    self_check=False)
    traj = evolve_nls(u0, cfg, n_obs)
    recs = [diagnostics_record(u, float(t), ltraj.state(i), eps, sigma)
            for i, (t, u) in enumerate(zip(traj.times, traj.states))]
    return g, ltraj, traj, recs, obs


class TestResidualTransport:
    def test_matched_plane_wave_zero(self, grid_1d):
        # beta vanishes identically and the filtered amplitude is constant
        L = grid_1d.lengths[0]
        eps, sigma = 0.25, 2
        k = 2 * np.pi * 2 * eps / L
        A = 0.9
        omega = k**2 / 2 + A ** (2 * sigma)
        x = grid_1d.axes[0]
        data = InitialData(grid=grid_1d,
                           a0=np.full(grid_1d.shape, A, dtype=complex),
                           a1=np.zeros(grid_1d.shape, dtype=complex),
                           phi0_periodic=np.zeros(grid_1d.shape),
                           phi0_wavevector=(k,))
        ltraj = evolve_limit(data, sigma, 0.03, n_obs=4)
        ltraj.phi_periodic
        h = 0.01
        recs = []
        for i, t in enumerate((0.0, h, 2 * h)):
            u = A * np.exp(1j * (k * x - omega * t) / eps)
            recs.append(diagnostics_record(u, t, ltraj.state(i), eps, sigma))
        res = residual_transport(recs[0], recs[1], recs[2],
                                 ltraj.state(1), h, grid_1d)
        assert res < 1e-10

    def test_sigma2_refinement_order(self, sigma2_run):
        g, ltraj, traj, recs, obs = sigma2_run
        h = float(obs[1] - obs[0])
        mid = 20
        r_2h = residual_transport(recs[mid - 2], recs[mid], recs[mid + 2],
                                  ltraj.state(mid), 2 * h, g)
        r_h = residual_transport(recs[mid - 1], recs[mid], recs[mid + 1],
                                 ltraj.state(mid), h, g)
        order = np.log2(r_2h / r_h)
        assert 1.5 <= order <= 2.5

    def test_sigma1_reduces_to_density_balance(self, gaussian_data):
        # for sigma=1 the residual is algebraically the centered difference of
        # the two density balance laws; both evaluations must agree to roundoff
        g = gaussian_data.grid
        sigma, eps, T = 1, 2.0**-4, 0.06
        obs = np.linspace(0.0, T, 13)
        h = float(obs[1] - obs[0])
        ltraj = evolve_limit(gaussian_data, sigma, T, n_obs=13)
        ltraj.phi_periodic
        u0 = build_initial_data(gaussian_data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        self_check=False)
        traj = evolve_nls(u0, cfg, obs.size)
        recs = [diagnostics_record(u, float(t), ltraj.state(i), eps, sigma)
                for i, (t, u) in enumerate(zip(traj.times, traj.states))]
        mid = 6
        st = ltraj.state(mid)
        res = residual_transport(recs[mid - 1], recs[mid], recs[mid + 1],
                                 st, h, g)

        def density_gap(i):
            rho_eps = np.abs(recs[i].a_eps) ** 2
            rho = np.abs(ltraj.state(i).a) ** 2
            return rho_eps - rho

        ddt = (density_gap(mid + 1) - density_gap(mid - 1)) / (2 * h)
        j_eps = np.stack([
            eps * np.imag(np.conj(recs[mid].a_eps) * recs[mid].psi_eps[0])])
        flux = g.divergence(j_eps + density_gap(mid) * st.v).real
        direct = g.l2_norm(ddt + flux)
        assert res == pytest.approx(direct, rel=1e-10)

        # refinement ratio ~4 (pure central-difference error)
        r_2h = residual_transport(recs[mid - 2], recs[mid], recs[mid + 2],
                                  st, 2 * h, g)
        assert 3.0 <= r_2h / res <= 5.0

    def test_unequal_spacing_rejected(self, sigma2_run):
        g, ltraj, traj, recs, obs = sigma2_run
        h = float(obs[1] - obs[0])
        with pytest.raises(ValueError):
            residual_transport(recs[0], recs[1], recs[3],
                               ltraj.state(1), h, g)


class TestModulatedEnergy:
    def test_constant_matched_state(self, grid_1d):
        # a_eps = a = const: energy reduces to rho0 * L
        L = grid_1d.lengths[0]
        rho0 = 0.49
        data = InitialData(grid=grid_1d,
                           a0=np.full(grid_1d.shape, np.sqrt(rho0), complex),
                           a1=np.zeros(grid_1d.shape, complex),
                           phi0_periodic=np.zeros(grid_1d.shape),
                           phi0_wavevector=(0.0,))
        ltraj = evolve_limit(data, 2, 0.02, n_obs=3)
        ltraj.phi_periodic
        u = np.full(grid_1d.shape, np.sqrt(rho0), complex)
        rec = diagnostics_record(u, 0.0, ltraj.state(0), 0.25, 2)
        assert rec.modulated_energy == pytest.approx(rho0 * L, rel=1e-12)

    def test_matches_norm_sum(self, sigma2_run):
        g, ltraj, traj, recs, obs = sigma2_run
        rec = recs[5]
        expected = (g.l2_norm(rec.a_eps) ** 2
                    + g.l2_norm(rec.psi_eps[0]) ** 2
                    + g.l2_norm(rec.q_eps) ** 2)
        assert modulated_energy(rec, g) == pytest.approx(expected, rel=1e-13)

    def test_gronwall_envelope_along_run(self, sigma2_run):
        g, ltraj, traj, recs, obs = sigma2_run
        c_hat = gronwall_constant(ltraj)
        assert c_hat >= 1.0
        me0 = recs[0].modulated_energy
        for rec in recs:
            assert rec.modulated_energy <= me0 * np.exp(c_hat * rec.time) * (1 + 1e-9)

    @pytest.mark.parametrize("case", ["1d", "2d-joint"])
    def test_gronwall_matches_node_scan(self, gaussian_data, case):
        # one CFL step per observation interval stores every step, so the
        # per-step scalars must reproduce the constant scanned off the
        # stored velocity fields;
        # the 2-D case checks the d x d layout of grad v on a non-square grid
        data, a1 = gaussian_data, None
        if case == "2d-joint":
            g = Grid((32, 16), (10.0, 8.0))
            x, y = g.coords
            bump = np.exp(-(x**2 + 2 * y**2) / 2)
            data = InitialData(grid=g, a0=bump * (1 + 0.2j * np.sin(x)),
                               a1=(0.5 * bump).astype(complex),
                               phi0_periodic=0.3 * bump * np.cos(x - y),
                               phi0_wavevector=(0.0, 0.0))
            a1 = data.a1
        g = data.grid
        steps = len(evolve_limit(data, 2, 0.25, a1=a1).step_times) - 1
        ltraj = evolve_limit(data, 2, 0.25, n_obs=steps + 1, a1=a1)
        scan = 0.0
        for v in ltraj.v:
            grad_v = [g.gradient(v[j]).real for j in range(g.dim)]
            div_v = sum(grad_v[j][j] for j in range(g.dim))
            grad_div = g.gradient(div_v).real
            scan = max(scan, 2 * float(np.max(np.abs(div_v)))
                       + 2.0 * max(float(np.max(np.abs(gv))) for gv in grad_v)
                       + float(np.max(np.abs(grad_div))) + 1.0)
        assert ltraj.times.size == ltraj.step_times.size
        assert gronwall_constant(ltraj) == pytest.approx(scan, rel=1e-12)


class TestDensityMetrics:
    def test_zero_when_matched(self, grid_1d):
        data = InitialData(grid=grid_1d,
                           a0=np.full(grid_1d.shape, 0.8, complex),
                           a1=np.zeros(grid_1d.shape, complex),
                           phi0_periodic=np.zeros(grid_1d.shape),
                           phi0_wavevector=(0.0,))
        ltraj = evolve_limit(data, 2, 0.02, n_obs=3)
        ltraj.phi_periodic
        st = ltraj.state(0)
        u = np.full(grid_1d.shape, 0.8, complex)
        rec = diagnostics_record(u, 0.0, st, 0.25, 2)
        dm = density_metrics(rec, st, 2, 0.25)
        assert dm.pos_err_lsp1 == 0.0
        assert dm.cur_err_transport == 0.0
        assert dm.cur_err_l1 < 1e-12

    def test_small_epsilon_rates(self, gaussian_data):
        # sweep-free two-point rate probe: the squared-density gap in
        # L^(sigma+1) and the eps-scaled current both shrink linearly
        g = gaussian_data.grid
        sigma, T = 2, 0.05
        ltraj = evolve_limit(gaussian_data, sigma, T, n_obs=3)
        ltraj.phi_periodic
        st = ltraj.state(-1)
        out = {}
        for eps in (2.0**-3, 2.0**-5):
            u0 = build_initial_data(gaussian_data, eps)
            cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                            self_check=False)
            u = evolve_nls(u0, cfg).states[-1]
            rec = diagnostics_record(u, T, st, eps, sigma)
            out[eps] = density_metrics(rec, st, sigma, eps)
        ratio_pos = out[2.0**-3].pos_err_lsp1 / out[2.0**-5].pos_err_lsp1
        ratio_cur = out[2.0**-3].cur_err_l1 / out[2.0**-5].cur_err_l1
        assert ratio_pos > 2.0   # at least first order over a 4x epsilon drop
        assert 2.0 < ratio_cur < 8.0


def assert_stack_matches_records(ltraj, traj, eps, sigma):
    """A record of every snapshot at once holds, per snapshot, the bits of
    that snapshot's own record, and so do its energy and density gaps."""
    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    nodes = ltraj.state(slice(None))
    stack = diagnostics_record(np.stack(traj.states), traj.times, nodes, eps,
                               sigma, sobolev_orders=(2.0,))
    gaps = density_metrics(stack, nodes, sigma, eps)
    if ltraj.phi1 is not None:
        a_tilde = tilde_amplitude(nodes)
    for i, u in enumerate(traj.states):
        st = ltraj.state(i)
        rec = diagnostics_record(u, float(traj.times[i]), st, eps, sigma,
                                 sobolev_orders=(2.0,))
        assert bits(stack.a_eps[i]) == bits(rec.a_eps)
        assert bits(stack.psi_eps[:, i]) == bits(rec.psi_eps)
        assert bits(stack.q_eps[i]) == bits(rec.q_eps)
        for name, norms in rec.sobolev.items():
            for s, value in norms.items():
                assert stack.sobolev[name][s][i] == value
        assert stack.modulated_energy[i] == rec.modulated_energy
        one = density_metrics(rec, st, sigma, eps)
        for f in fields(one):
            assert getattr(gaps, f.name)[i] == getattr(one, f.name)
        if ltraj.phi1 is not None:
            assert bits(a_tilde[i]) == bits(tilde_amplitude(st))


class TestStackedRecord:
    """A stack of snapshots is one record: the sweep takes its diagnostics
    so, and its rows keep the bits of one record per snapshot."""

    def test_1d_run(self, sigma2_run):
        # 41 snapshots of 512 points: a 328 KiB stack, over numpy's 256 KiB
        # temporary-elision size, where one snapshot is far under it
        g, ltraj, traj, recs, obs = sigma2_run
        assert_stack_matches_records(ltraj, traj, traj.epsilon, traj.sigma)

    def test_2d_joint_run(self):
        # 5 nodes of 64x64 (a 320 KiB stack) with the corrector pair
        g = Grid((64, 64), (12.0, 12.0))
        x, y = g.coords
        bump = np.exp(-(x**2 + y**2))
        data = InitialData(grid=g, a0=bump * (1 + 0.2j), a1=(0.4 * bump).astype(complex),
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0, 0.0))
        eps, T = 0.125, 0.02
        ltraj = evolve_limit(data, 2, T, n_obs=5, a1=data.a1)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=2, final_time=T,
                        self_check=False)
        traj = evolve_nls(build_initial_data(data, eps), cfg, 5)
        assert_stack_matches_records(ltraj, traj, eps, 2)


class TestRecordInvariants:
    def test_filtered_modulus_and_sobolev_table(self, sigma2_run):
        g, ltraj, traj, recs, obs = sigma2_run
        rec = recs[10]
        u = traj.states[10]
        assert np.max(np.abs(np.abs(rec.a_eps) - np.abs(u))) < 1e-13
        r = diagnostics_record(u, rec.time, ltraj.state(10),
                               rec.epsilon, rec.sigma, sobolev_orders=(2.0,))
        assert 2.0 in r.sobolev["a_eps"]
        assert 1.0 in r.sobolev["q_eps"]
        assert r.sobolev["a_eps"][2.0] >= g.l2_norm(r.a_eps) * (1 - 1e-12)
