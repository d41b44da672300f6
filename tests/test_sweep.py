from dataclasses import replace

import numpy as np
import pytest

from scnls import Grid
from scnls.corrector import evolve_corrector, tilde_amplitude
from scnls.errors import ConfigError
from scnls.limit import evolve_limit
from scnls.nls import SCHEME, NLSConfig, build_initial_data, evolve_nls
from scnls.presets import InitialData
from scnls.sweep import (SweepPlan, fit_rate, run_sweep, sobolev_index,
                         sup_exponent)

from conftest import hash_of_csv, hash_of_json


class TestFitRate:
    def test_synthetic_linear(self):
        eps = [0.5, 0.25, 0.125, 0.0625]
        fit = fit_rate([(e, 3.0 * e) for e in eps])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert not fit.noisy

    def test_synthetic_quadratic(self):
        eps = [0.5, 0.25, 0.125]
        fit = fit_rate([(e, e**2) for e in eps])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_two_points_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_rate([(0.5, 1.0), (0.25, 0.5)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.1)])


class TestIndexRules:
    def test_sobolev_index(self):
        assert sobolev_index(1, 1) == 2
        assert sobolev_index(2, 1) == 2
        assert sobolev_index(2, 2) == 1
        assert sobolev_index(3, 1) == 3
        assert sobolev_index(4, 1) == 4

    def test_sup_exponent(self):
        assert sup_exponent(2, 1) == np.inf
        assert sup_exponent(2, 2) == 6.0
        assert sup_exponent(3, 2) == np.inf


class TestPlanValidation:
    def test_rejects_nondecreasing_ladder(self, gaussian_data):
        with pytest.raises(ConfigError):
            SweepPlan(initial=gaussian_data, sigma=2,
                      epsilon_list=(0.125, 0.25), final_time=0.1)

    def test_rejects_out_of_range(self, gaussian_data):
        with pytest.raises(ConfigError):
            SweepPlan(initial=gaussian_data, sigma=2,
                      epsilon_list=(2.0, 1.0), final_time=0.1)


@pytest.fixture(scope="module")
def small_sweep(gaussian_data):
    plan = SweepPlan(initial=gaussian_data, sigma=2,
                     epsilon_list=(2.0**-3, 2.0**-4, 2.0**-5),
                     final_time=0.1, n_obs=6, self_check=False)
    return plan, run_sweep(plan)


class TestRunSweep:
    def test_rows_sorted_and_complete(self, small_sweep):
        plan, res = small_sweep
        assert [r["epsilon"] for r in res.rows] == sorted(
            plan.epsilon_list, reverse=True)
        for row in res.rows:
            assert row["err_two_term_l2"] > 0
            assert row["err_two_term_l2"] < row["err_one_term_l2"]
            assert row["envelope_ok"]

    def test_two_term_error_first_order(self, small_sweep):
        _, res = small_sweep
        fit = res.fits["two_term_l2"]
        assert 0.8 <= fit.slope <= 1.2
        assert fit.r2 >= 0.98

    def test_errors_match_carrier_form(self, small_sweep):
        # the error columns come from a_eps - a_tilde and a_eps - a; they
        # must equal ||u - a_tilde e^{i phi/eps}|| and ||u - a e^{i phi/eps}||
        # taken on the same (deterministic) trajectories
        plan, res = small_sweep
        data, grid = plan.initial, plan.initial.grid
        obs = np.linspace(0.0, plan.final_time, plan.n_obs)
        limit_traj = evolve_corrector(evolve_limit(
            data, plan.sigma, plan.final_time, n_obs=plan.n_obs, a1=data.a1))
        p = sup_exponent(plan.sigma, grid.dim)
        for row in res.rows:
            eps = row["epsilon"]
            cfg = NLSConfig(grid=grid, epsilon=eps, sigma=plan.sigma,
                            final_time=plan.final_time, self_check=False,
                            scheme=SCHEME)
            u0 = build_initial_data(data, eps,
                                    epsilon_ref=max(plan.epsilon_list))
            errs = {"err_two_term_l2": [], "err_two_term_sup": [],
                    "err_one_term_l2": [], "err_one_term_sup": []}
            for t, u in zip(obs, evolve_nls(u0, cfg, obs).states):
                ls = limit_traj.state_at(t)
                carrier = np.exp(1j * ls.phi_total() / eps)
                a_tilde = tilde_amplitude(ls)
                for name, amp in (("two_term", a_tilde), ("one_term", ls.a)):
                    diff = u - amp * carrier
                    errs[f"err_{name}_l2"].append(grid.l2_norm(diff))
                    errs[f"err_{name}_sup"].append(grid.lebesgue_norm(diff, p))
            for col, vals in errs.items():
                assert row[col] == pytest.approx(max(vals), rel=1e-12, abs=0)
            assert row["series"]["err_two_term_l2"] == pytest.approx(
                errs["err_two_term_l2"], rel=1e-12, abs=0)
            assert row["series"]["err_one_term_l2"] == pytest.approx(
                errs["err_one_term_l2"], rel=1e-12, abs=0)

    def test_nls_error_within_budget(self, small_sweep):
        # the default step law keeps each rung's wavefunction error below
        # 1e-3 of its two-term WKB error, against a yoshida4 reference at an
        # eighth of the step (measured: below 1e-5 of it on every rung)
        plan, res = small_sweep
        data, grid = plan.initial, plan.initial.grid
        obs = np.linspace(0.0, plan.final_time, plan.n_obs)
        for row in res.rows:
            eps = row["epsilon"]
            cfg = NLSConfig(grid=grid, epsilon=eps, sigma=plan.sigma,
                            final_time=plan.final_time, self_check=False,
                            scheme=SCHEME)
            u0 = build_initial_data(data, eps,
                                    epsilon_ref=max(plan.epsilon_list))
            run = evolve_nls(u0, cfg, obs)
            ref = evolve_nls(u0, replace(cfg, dt_override=run.dt / 8), obs)
            err = max(grid.l2_norm(u - v)
                      for u, v in zip(run.states, ref.states))
            assert err <= 1e-3 * row["err_two_term_l2"]

    def test_deterministic_artifacts(self, small_sweep):
        plan, res = small_sweep
        res_b = run_sweep(plan)
        assert res.to_csv() == res_b.to_csv()
        assert res.to_json() == res_b.to_json()

    def test_csv_structure(self, small_sweep):
        _, res = small_sweep
        lines = res.to_csv().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("content_hash" in ln for ln in comments)
        assert any("config" in ln for ln in comments)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("epsilon,")
        assert len(data) == 1 + 3  # header + one row per epsilon
        stated, recomputed = hash_of_csv(res.to_csv())
        assert stated == recomputed

    def test_json_contains_fits_and_hash(self, small_sweep):
        import json

        _, res = small_sweep
        doc = json.loads(res.to_json())
        assert "content_hash" in doc
        assert doc["content_hash"] == hash_of_json(doc)
        assert "two_term_l2" in doc["fits"]
        assert doc["k_order"] == 2


class TestGuardAndVariants:
    def test_failed_self_check_flags_row_and_continues(self):
        # large-amplitude data at a deliberately huge base step trips the
        # step-doubling guard; the sweep must keep the row, mark it, and
        # still fill the error columns from the run the check flagged
        g = Grid(256, 16.0)
        a0 = (2.5 * np.exp(-(g.axes[0] / 1.5) ** 2)).astype(complex)
        data = InitialData(grid=g, a0=a0,
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0,))
        plan = SweepPlan(initial=data, sigma=2,
                         epsilon_list=(0.25, 0.125), final_time=0.05,
                         n_obs=3, dt0=0.16, self_check=True)
        res = run_sweep(plan)
        assert len(res.rows) == 2
        assert any(not r["self_check_ok"] for r in res.rows)
        for row in res.rows:
            assert row["err_two_term_l2"] > 0
            assert row["self_check_error"] != -1.0  # outcome recorded

    def test_failed_self_check_runs_no_rerun(self, monkeypatch):
        # a failed check keeps the run it flagged: each rung integrates
        # exactly twice, the reported run and its step-doubling check
        import scnls.nls as nls
        calls = []
        raw = nls._evolve_raw

        def spy(u0, cfg, obs_times):
            calls.append(cfg.epsilon)
            return raw(u0, cfg, obs_times)

        monkeypatch.setattr(nls, "_evolve_raw", spy)
        g = Grid(256, 16.0)
        a0 = (2.5 * np.exp(-(g.axes[0] / 1.5) ** 2)).astype(complex)
        data = InitialData(grid=g, a0=a0,
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0,))
        plan = SweepPlan(initial=data, sigma=2,
                         epsilon_list=(0.25, 0.125), final_time=0.05,
                         n_obs=3, dt0=0.16, self_check=True)
        res = run_sweep(plan)
        assert any(not r["self_check_ok"] for r in res.rows)
        assert calls == [0.25, 0.25, 0.125, 0.125]

    def test_sigma1_ladder(self, gaussian_data):
        # cubic case: corrected amplitude still first-order accurate,
        # uniformity reported at the k=2 choice
        plan = SweepPlan(initial=gaussian_data, sigma=1,
                         epsilon_list=(2.0**-3, 2.0**-4, 2.0**-5),
                         final_time=0.1, n_obs=5, self_check=False)
        res = run_sweep(plan)
        assert res.k_order == 2
        fit = res.fits["two_term_l2"]
        assert 0.8 <= fit.slope <= 1.2
        a_vals = [r["a_eps_hk_max"] for r in res.rows]
        assert max(a_vals) / min(a_vals) < 2.0

    def test_single_epsilon_plan_no_fits(self, gaussian_data):
        plan = SweepPlan(initial=gaussian_data, sigma=2,
                         epsilon_list=(0.25,), final_time=0.05, n_obs=3,
                         self_check=False)
        res = run_sweep(plan)
        assert len(res.rows) == 1
        assert res.fits == {}


class TestTwoDimensions:
    def test_small_2d_sweep(self):
        # exercises the dim-2 pipeline: k = 1 uniformity order and the L^6
        # stand-in for the sup norm (only L2 cap L^p control in dim >= 2)
        g = Grid((32, 32), (12.0, 12.0))
        x, y = g.coords
        a0 = np.exp(-(x**2 + y**2)) * (1 + 0.2j * np.exp(-(x**2 + y**2)))
        a1 = (0.4 * np.exp(-(x**2 + y**2) / 1.4)).astype(complex)
        data = InitialData(grid=g, a0=a0, a1=a1,
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0, 0.0))
        plan = SweepPlan(initial=data, sigma=2,
                         epsilon_list=(0.25, 0.125, 0.0625),
                         final_time=0.04, n_obs=3, self_check=False)
        res = run_sweep(plan)
        assert res.k_order == 1
        assert res.sup_p == 6.0
        assert len(res.rows) == 3
        errs = [r["err_two_term_l2"] for r in res.rows]
        assert errs[0] > errs[1] > errs[2]


class TestMatchedPlaneWave:
    def test_all_errors_at_roundoff(self):
        # exact WKB family: constant amplitude, linear lattice phase; every
        # member of the ladder reproduces the plane wave to roundoff
        g = Grid(64, 2 * np.pi)
        data = InitialData(grid=g, a0=np.full(g.shape, 0.9, dtype=complex),
                           a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(1.0,), label="plane-wave")
        plan = SweepPlan(initial=data, sigma=2,
                         epsilon_list=(0.5, 0.25, 0.125), final_time=0.05,
                         n_obs=4, self_check=False)
        res = run_sweep(plan)
        for row in res.rows:
            assert row["err_two_term_l2"] < 1e-9
            assert row["err_one_term_l2"] < 1e-9
            assert row["err_two_term_sup"] < 1e-9
