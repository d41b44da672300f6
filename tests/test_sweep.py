import json
import math
from dataclasses import replace

import numpy as np
import pytest

from scnls import Grid, nls
from scnls.corrector import evolve_corrector, tilde_amplitude
from scnls.config import parse_config
from scnls.errors import ConfigError
from scnls.grid import MAX_STORED_BYTES, SNAPSHOT_BYTES_PER_POINT
from scnls.limit import evolve_limit
from scnls.nls import SCHEME, NLSConfig, build_initial_data, evolve_nls
from scnls.presets import InitialData
from scnls.sweep import (SweepPlan, fit_rate, rung_groups, run_sweep,
                         sobolev_index, sup_exponent)

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
            for i, u in enumerate(evolve_nls(u0, cfg, plan.n_obs).states):
                ls = limit_traj.state(i)
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
        for row in res.rows:
            eps = row["epsilon"]
            cfg = NLSConfig(grid=grid, epsilon=eps, sigma=plan.sigma,
                            final_time=plan.final_time, self_check=False,
                            scheme=SCHEME)
            u0 = build_initial_data(data, eps,
                                    epsilon_ref=max(plan.epsilon_list))
            run = evolve_nls(u0, cfg, plan.n_obs)
            ref = evolve_nls(u0, replace(cfg, dt_override=run.dt / 8), plan.n_obs)
            err = max(grid.l2_norm(u - v)
                      for u, v in zip(run.states, ref.states))
            assert err <= 1e-3 * row["err_two_term_l2"]

    def test_deterministic_artifacts(self, small_sweep):
        plan, res = small_sweep
        res_b = run_sweep(plan)
        assert res.to_csv() == res_b.to_csv()
        assert res.to_json() == res_b.to_json()

    @staticmethod
    def spy_records(monkeypatch) -> list:
        """The shape of the snapshot stack of each diagnostics_record call
        the sweep makes from here on."""
        import scnls.sweep as sweep
        stacks = []
        record = sweep.diagnostics_record

        def spy(u, *args, **kwargs):
            stacks.append(np.shape(u))
            return record(u, *args, **kwargs)

        monkeypatch.setattr(sweep, "diagnostics_record", spy)
        return stacks

    def test_one_record_call_per_rung(self, gaussian_data, monkeypatch):
        # a 1-D rung's observation times fit one chunk: each rung takes its
        # diagnostics in one call, on the stack of all its snapshots
        stacks = self.spy_records(monkeypatch)
        plan = SweepPlan(initial=gaussian_data, sigma=2,
                         epsilon_list=(2.0**-2, 2.0**-3, 2.0**-4),
                         final_time=0.05, n_obs=5)
        run_sweep(plan)
        assert stacks == [(5, *gaussian_data.grid.shape)] * 3

    def test_chunked_rows_equal_unchunked(self, small_sweep, monkeypatch):
        # a chunk bound of 4 nodes cuts each rung's 6 observation times into
        # chunks of 4 and 2; the artifacts keep every byte
        import scnls.sweep as sweep
        plan, res = small_sweep
        grid = plan.initial.grid
        monkeypatch.setattr(sweep, "CHUNK_POINTS", 4 * grid.dim * grid.size)
        stacks = self.spy_records(monkeypatch)
        chunked = run_sweep(plan)
        assert [s[0] for s in stacks] == [4, 2] * len(plan.epsilon_list)
        assert chunked.to_csv() == res.to_csv()
        assert chunked.to_json() == res.to_json()

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
        raw = nls._evolve_batch

        def spy(u0s, cfgs, n_obs):
            calls.extend(cfg.epsilon for cfg in cfgs)
            return raw(u0s, cfgs, n_obs)

        monkeypatch.setattr(nls, "_evolve_batch", spy)
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


class TestObservationPairing:
    def test_nls_times_equal_limit_times(self, gaussian_data, monkeypatch):
        # both solvers take the count: every wavefunction run's times are
        # the limit run's node times bit for bit (T = 0.35 and 7 times,
        # where n*dt misses np.linspace in the last bit)
        import scnls.sweep as sweep
        seen = {"nls": []}
        batch, corrector = sweep.evolve_nls_batch, sweep.evolve_corrector

        def spy_batch(*args):
            seen["nls"] += batch(*args)
            return seen["nls"][-len(args[0]):]

        def spy_corrector(traj):
            seen["limit"] = corrector(traj)
            return seen["limit"]

        monkeypatch.setattr(sweep, "evolve_nls_batch", spy_batch)
        monkeypatch.setattr(sweep, "evolve_corrector", spy_corrector)
        plan = SweepPlan(initial=gaussian_data, sigma=2,
                         epsilon_list=(2.0**-2, 2.0**-3), final_time=0.35,
                         n_obs=7, self_check=False)
        run_sweep(plan)
        times = seen["limit"].times
        np.testing.assert_array_equal(times, np.linspace(0.0, 0.35, 7))
        assert len(seen["nls"]) == 2
        for traj in seen["nls"]:
            np.testing.assert_array_equal(traj.times, times)


class TestFitsSkipFlaggedRows:
    """The rate fits take the rows that pass their step-doubling check."""

    LADDER = (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)

    def flag_one_row(self, data, monkeypatch):
        # the check errors relative to eps*||u0||, the tolerance's scale;
        # a factor between the largest two flags exactly one row
        plan = SweepPlan(initial=data, sigma=2, epsilon_list=self.LADDER,
                         final_time=0.05, n_obs=3)
        rel = sorted(r["self_check_error"] / (r["epsilon"] * data.grid.l2_norm(
            build_initial_data(data, r["epsilon"]))) for r in run_sweep(plan).rows)
        assert rel[-2] < rel[-1]
        monkeypatch.setattr(nls, "SELF_CHECK_FACTOR", math.sqrt(rel[-2] * rel[-1]))
        return plan

    def test_fits_leave_out_the_flagged_row(self, gaussian_data, monkeypatch):
        plan = self.flag_one_row(gaussian_data, monkeypatch)
        res = run_sweep(plan)
        passed = [r for r in res.rows if r["self_check_ok"]]
        assert len(passed) == len(res.rows) - 1
        assert set(res.fits) == {"two_term_l2", "two_term_sup", "one_term_l2",
                                 "pos_gap_pow", "cur_l1"}
        assert all(f.n == len(res.rows) - 1 for f in res.fits.values())
        assert res.fits["two_term_l2"] == fit_rate(
            (r["epsilon"], r["err_two_term_l2"]) for r in passed)

    def test_fewer_than_three_passing_rows_no_fit(self, gaussian_data,
                                                  monkeypatch):
        plan = self.flag_one_row(gaussian_data, monkeypatch)
        flagged = [r["epsilon"] for r in run_sweep(plan).rows
                   if not r["self_check_ok"]]
        # the flagged rung and two passing ones: two rows left to fit
        ladder = sorted(flagged + [e for e in self.LADDER
                                   if e not in flagged][:2], reverse=True)
        res = run_sweep(replace(plan, epsilon_list=tuple(ladder)))
        assert len(res.rows) == 3
        assert sum(not r["self_check_ok"] for r in res.rows) == 1
        assert res.fits == {}
        assert '"fits": {}' in res.to_json()


class TestRungGroups:
    """The sweep integrates whole rungs, a run and its step-doubling check,
    in one wavefunction batch per group."""

    @staticmethod
    def spied_sweep(monkeypatch, plan):
        import scnls.nls as nls
        calls = []
        raw = nls._evolve_batch

        def spy(u0s, cfgs, n_obs):
            calls.append([cfg.epsilon for cfg in cfgs])
            return raw(u0s, cfgs, n_obs)

        monkeypatch.setattr(nls, "_evolve_batch", spy)
        return run_sweep(plan), calls

    def test_one_call_for_a_1d_ladder(self, gaussian_data, monkeypatch):
        ladder = (2.0**-2, 2.0**-3, 2.0**-4)
        plan = SweepPlan(initial=gaussian_data, sigma=2, epsilon_list=ladder,
                         final_time=0.05, n_obs=3)
        res, calls = self.spied_sweep(monkeypatch, plan)
        assert calls == [[eps for eps in ladder for _ in range(2)]]  # run, check
        assert [r["epsilon"] for r in res.rows] == list(ladder)
        assert all(r["self_check_ok"] for r in res.rows)

    def test_one_call_per_rung_at_128x128(self, monkeypatch):
        g = Grid((128, 128), (12.0, 12.0))
        x, y = g.coords
        a0 = np.exp(-(x**2 + y**2)).astype(complex)
        data = InitialData(grid=g, a0=a0, a1=np.zeros(g.shape, dtype=complex),
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0, 0.0))
        plan = SweepPlan(initial=data, sigma=2, epsilon_list=(0.25, 0.125),
                         final_time=0.01, n_obs=3)
        res, calls = self.spied_sweep(monkeypatch, plan)
        assert calls == [[0.25, 0.25], [0.125, 0.125]]
        assert len(res.rows) == 2

    def test_group_sizes(self):
        assert rung_groups(5, 512, 20, True) == [range(5)]
        assert rung_groups(3, 128 * 128, 11, True) == [range(0, 1), range(1, 2),
                                                      range(2, 3)]
        # without checks a rung is one member
        assert rung_groups(3, 128 * 128, 11, False) == [range(0, 2), range(2, 3)]
        assert rung_groups(3, 64 * 64, 5, True) == [range(3)]

    def test_groups_within_snapshot_budget(self):
        # a long ladder on a 16-point grid: the transform bound alone would
        # put 1,024 rungs in a group, each storing 150,000 snapshots
        ladder = [0.5 * 0.9**i for i in range(40)]
        cfg = parse_config(json.dumps({
            "grid": {"N": 16, "L": 8.0},
            "physics": {"sigma": 2, "epsilon_list": ladder},
            "time": {"T": 0.25, "observation_count": 150_000}}))
        n_obs = cfg.observation_count
        groups = rung_groups(len(cfg.epsilon_list), 16, n_obs, True)
        assert [i for group in groups for i in group] == list(range(40))
        assert len(groups) > 1
        for group in groups:
            assert len(group) * n_obs * 16 * SNAPSHOT_BYTES_PER_POINT <= MAX_STORED_BYTES


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


class TestOneTransformLayer:
    def test_no_nd_numpy_transform(self, monkeypatch):
        # Grid makes every transform of both solvers as numpy's one-axis
        # calls: a 1-D and a 2-D sweep (limit, corrector, diagnostics and the
        # split step with its checks) and a 128x128 split-step run with its
        # check call no n-d transform of numpy.fft
        called = []

        def refuse(name):
            def call(*args, **kwargs):
                called.append(name)
                raise AssertionError(f"numpy.fft.{name} called")
            return call

        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2",
                     "rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, refuse(name))
        for g in (Grid(128, 16.0), Grid((32, 32), (12.0, 12.0))):
            r2 = sum(c**2 for c in g.coords)
            data = InitialData(grid=g, a0=np.exp(-r2) * (1 + 0.2j * np.exp(-r2)),
                               a1=(0.4 * np.exp(-r2 / 1.4)).astype(complex),
                               phi0_periodic=np.zeros(g.shape),
                               phi0_wavevector=(0.0,) * g.dim)
            plan = SweepPlan(initial=data, sigma=2,
                             epsilon_list=(0.25, 0.125, 0.0625),
                             final_time=0.02, n_obs=3)
            assert len(run_sweep(plan).rows) == 3
        g = Grid((128, 128), (12.0, 12.0))
        u0 = np.exp(-sum(c**2 for c in g.coords)).astype(complex)
        cfg = NLSConfig(grid=g, epsilon=0.25, sigma=2, final_time=0.01,
                        scheme=SCHEME)
        assert len(evolve_nls(u0, cfg, 3).states) == 3
        assert called == []
