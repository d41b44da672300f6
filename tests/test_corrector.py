import numpy as np
import pytest

from scnls.corrector import evolve_corrector, tilde_amplitude
from scnls.limit import evolve_limit
from scnls.nls import NLSConfig, build_initial_data, evolve_nls


class TestInitialConditions:
    def test_phase_zero_amplitude_a1(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3,
                            a1=gaussian_data.a1)
        corr = evolve_corrector(traj)
        assert np.max(np.abs(corr.phi1[0])) == 0.0
        assert np.max(np.abs(corr.w[0] - gaussian_data.a1)) == 0.0


class TestRealDataCriterion:
    def test_phase_stays_zero(self, real_imag_data):
        # a0 real, a1 purely imaginary: the (phi1, Re(conj(a) w)) pair solves
        # a homogeneous linear system from zero data, so phi1 == 0 throughout
        traj = evolve_limit(real_imag_data, 2, 0.25, n_obs=20,
                            a1=real_imag_data.a1)
        corr = evolve_corrector(traj)
        assert max(float(np.max(np.abs(p))) for p in corr.phi1) < 1e-9

    def test_phase_nonzero_for_complex_data(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=20,
                            a1=gaussian_data.a1)
        corr = evolve_corrector(traj)
        assert float(np.max(np.abs(corr.phi1[-1]))) > 1e-3


class TestSelfConvergence:
    def test_rk4_richardson_ratio(self, gaussian_data):
        g = gaussian_data.grid

        # the corrector rides in the limit run, so these are joint steps
        def final(dt):
            traj = evolve_limit(gaussian_data, 2, 0.1, dt=dt,
                                a1=gaussian_data.a1)
            corr = evolve_corrector(traj)
            return corr.phi1[-1], corr.w[-1]

        p1, w1 = final(4e-3)
        p2, w2 = final(2e-3)
        p4, w4 = final(1e-3)
        ratio_w = g.l2_norm(w1 - w2) / g.l2_norm(w2 - w4)
        ratio_p = g.l2_norm(p1 - p2) / g.l2_norm(p2 - p4)
        assert 14.0 <= ratio_w <= 18.0
        assert 14.0 <= ratio_p <= 18.0

    def test_default_step_matches_fine_limit(self, gaussian_data):
        # the pair rides in the limit run at its step h (two per observation
        # interval here); against a joint run at h/8 the gap measured
        # 2.0e-8 (phi1) and 2.3e-7 (w), in L2 max over nodes
        g = gaussian_data.grid
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=20,
                            a1=gaussian_data.a1)
        fine = evolve_limit(gaussian_data, 2, 0.25, dt=traj.dt / 8,
                            n_obs=20, a1=gaussian_data.a1)
        corr = evolve_corrector(traj)
        ref = evolve_corrector(fine)
        nodes = list(range(corr.times.size))  # node i is observation i
        np.testing.assert_allclose(ref.times[nodes], corr.times, atol=1e-12)
        pairs = list(enumerate(nodes))
        gap_p = max(g.l2_norm(corr.phi1[i] - ref.phi1[k]) for i, k in pairs)
        gap_w = max(g.l2_norm(corr.w[i] - ref.w[k]) for i, k in pairs)
        assert gap_p < 1.5e-6
        assert gap_w < 1.2e-5

    def test_shares_limit_times_and_step(self, gaussian_data):
        # the pair is carried by the limit run: evolve_corrector hands back
        # that run, so the pair has its nodes and its step
        traj = evolve_limit(gaussian_data, 2, 0.05, dt=1e-3,
                            a1=gaussian_data.a1)
        assert evolve_corrector(traj) is traj
        assert traj.times[-1] == pytest.approx(0.05)

    def test_limit_run_without_a1_carries_none(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3)
        assert traj.phi1 is None and traj.w is None
        with pytest.raises(ValueError):
            evolve_corrector(traj)


class TestTildeAmplitude:
    def test_zero_phase_is_identity(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3,
                            a1=np.zeros(gaussian_data.grid.shape, complex))
        corr = evolve_corrector(traj)
        # a1 = 0 and phi1(0) = 0: at t=0 the corrected amplitude equals a
        til = tilde_amplitude(corr.state(0))
        assert np.max(np.abs(til - traj.a[0])) == 0.0

    def test_modulus_preserved_pointwise(self, gaussian_data):
        traj = evolve_limit(gaussian_data, 2, 0.25, n_obs=20,
                            a1=gaussian_data.a1)
        corr = evolve_corrector(traj)
        for i in (0, -1):
            ls = corr.state(i)
            til = tilde_amplitude(ls)
            assert np.max(np.abs(np.abs(til) - np.abs(ls.a))) < 1e-14

    def test_state_carries_the_pair(self, gaussian_data):
        # a state of a run with a1 holds the stored node arrays of the pair;
        # a run without a1 gives None for both, and no corrected amplitude
        traj = evolve_limit(gaussian_data, 2, 0.05, n_obs=3,
                            a1=gaussian_data.a1)
        for i in range(traj.times.size):
            ls = traj.state(i)
            np.testing.assert_array_equal(ls.phi1, traj.phi1[i])
            np.testing.assert_array_equal(ls.w, traj.w[i])
        bare = evolve_limit(gaussian_data, 2, 0.05, n_obs=3).state(-1)
        assert bare.phi1 is None and bare.w is None
        with pytest.raises(ValueError):
            tilde_amplitude(bare)

    def test_two_term_beats_one_term(self, gaussian_data):
        # against the wavefunction solver at small epsilon, the corrected
        # amplitude halves the WKB defect (complex a0 with active phi1)
        g = gaussian_data.grid
        sigma, T, eps = 2, 0.1, 1.0 / 32.0
        traj = evolve_limit(gaussian_data, sigma, T, n_obs=3,
                            a1=gaussian_data.a1)
        corr = evolve_corrector(traj)
        u0 = build_initial_data(gaussian_data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=T,
                        self_check=False)
        u_T = evolve_nls(u0, cfg).states[-1]
        ls = corr.state(-1)
        til = tilde_amplitude(ls)
        carrier = np.exp(1j * ls.phi_total() / eps)
        err_two = g.l2_norm(u_T - til * carrier)
        err_one = g.l2_norm(u_T - ls.a * carrier)
        assert err_two < err_one
