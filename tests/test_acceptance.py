"""Acceptance gate: every quantitative claim the workbench certifies, at its
stated tolerance, at desk scale (1-D, N=512, eps in {2^-3..2^-7}, T=0.25).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The epsilon-ladder fixtures are shared across criteria; the whole
module targets a few minutes of wall time.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from scnls import Grid
from scnls.diagnostics import diagnostics_record, q_g_fields, residual_transport
from scnls.limit import (blowup_monitor, characteristic_gradient_scale,
                         euler_invariants, evolve_limit, focusing_demo,
                         power_consistency)
from scnls.nls import NLSConfig, build_initial_data, evolve_nls, nls_invariants
from scnls.presets import InitialData, compact_bump, gaussian, snap_wavevector
from scnls.sigma_algebra import b_sigma, c_sigma_bound, g_sigma, q_sigma
from scnls.sweep import SweepPlan, run_sweep

from conftest import subprocess_env

LADDER = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def acceptance_data():
    g = Grid(512, 16.0)
    a0 = gaussian(g, 1.0, 1.0) * (1 + 0.2j * gaussian(g, 1.0))
    a1 = (0.5 * gaussian(g, 1.2)).astype(complex)
    return InitialData(grid=g, a0=a0, a1=a1,
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0,), label="gaussian-complex")


@pytest.fixture(scope="module")
def sigma2_sweep(acceptance_data):
    plan = SweepPlan(initial=acceptance_data, sigma=2, epsilon_list=LADDER,
                     final_time=0.25, n_obs=20)
    return run_sweep(plan)


@pytest.fixture(scope="module")
def sigma3_sweep(acceptance_data):
    plan = SweepPlan(initial=acceptance_data, sigma=3, epsilon_list=LADDER,
                     final_time=0.25, n_obs=20)
    return run_sweep(plan)


def test_01_algebra_suite():
    rng = np.random.default_rng(2024)
    n = 10_000
    r1 = 10.0 * rng.random(n)
    r2 = 10.0 * rng.random(n)
    # reference sides in extended precision: at scale 10^(sigma+1) plain
    # float64 evaluation of the power differences would contribute its own
    # cancellation roundoff comparable to the tolerance
    r1l = r1.astype(np.longdouble)
    r2l = r2.astype(np.longdouble)
    t0 = time.perf_counter()
    worst = 0.0
    for sigma in (1, 2, 3, 4):
        q = q_sigma(r1, r2, sigma)
        b = b_sigma(r1, r2, sigma)
        g = g_sigma(r1, r2, sigma)
        power_gap = np.asarray(r1l**sigma - r2l**sigma, dtype=np.longdouble)
        worst = max(worst, float(np.max(np.abs(g * b - power_gap))))
        rhs = (2.0 / (sigma + 1)) * (r1l ** (sigma + 1) - r2l ** (sigma + 1)) \
            - 2.0 * r2l**sigma * (r1l - r2l)
        worst = max(worst, float(np.max(np.abs(b**2 - rhs))))
        worst = max(worst, float(np.max(np.abs(
            q_sigma(r1, r1, sigma) - sigma * r1 ** (sigma - 1)))))
        c = c_sigma_bound(sigma)
        floor = c * (r1 ** (sigma - 1) + r2 ** (sigma - 1))
        worst = max(worst, float(np.max(floor - q)))
    c2_gap = abs(c_sigma_bound(2) - 2.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and c2_gap < 1e-10 and elapsed < 1.0
    report(1, "algebra suite", ok,
           f"worst defect {worst:.2e}, |C2-2/3| {c2_gap:.1e}, {elapsed:.2f}s")


def test_02_nls_solver(acceptance_data):
    # plane-wave exactness
    g = Grid(256, 2 * np.pi)
    eps, sigma, amp, t_end = 0.125, 2, 0.8, 0.1
    ksnap, _ = snap_wavevector([0.5], g, eps)
    pw = InitialData(grid=g, a0=np.full(g.shape, amp, dtype=complex),
                     a1=np.zeros(g.shape, dtype=complex),
                     phi0_periodic=np.zeros(g.shape), phi0_wavevector=ksnap)
    u0 = build_initial_data(pw, eps)
    cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=t_end,
                    dt_override=1e-5)
    traj = evolve_nls(u0, cfg)
    omega = ksnap[0] ** 2 / 2 + amp ** (2 * sigma)
    exact = amp * np.exp(1j * (ksnap[0] * g.axes[0] - omega * t_end) / eps)
    pw_err = float(np.max(np.abs(traj.states[-1] - exact)))

    # mass drift over exactly 1000 steps
    gw = acceptance_data.grid
    u0g = build_initial_data(acceptance_data, 0.125)
    cfg_m = NLSConfig(grid=gw, epsilon=0.125, sigma=2, final_time=0.1,
                      dt_override=1e-4)
    mh = evolve_nls(u0g, cfg_m).mass_history
    mass_drift = abs(mh[-1] - mh[0]) / mh[0]

    # energy Richardson ratio
    u0e = build_initial_data(acceptance_data, 0.5)

    def drift(dt):
        c = NLSConfig(grid=gw, epsilon=0.5, sigma=2, final_time=0.2,
                      dt_override=dt)
        tr = evolve_nls(u0e, c)
        e0 = nls_invariants(tr.states[0], 0.0, gw, 0.5, 2).energy
        e1 = nls_invariants(tr.states[-1], 0.2, gw, 0.5, 2).energy
        return abs(e1 - e0)

    ratio = drift(2e-3) / drift(1e-3)
    ok = pw_err < 1e-8 and mass_drift < 1e-12 and 3.5 <= ratio <= 4.5
    report(2, "NLS solver", ok,
           f"plane-wave err {pw_err:.2e}, mass drift {mass_drift:.2e}, "
           f"energy ratio {ratio:.2f}")


def test_03_limit_solver(acceptance_data):
    g = acceptance_data.grid
    sigma = 2

    def final(dt):
        return evolve_limit(acceptance_data, sigma, 0.1, dt=dt).a[-1]

    a1, a2, a4 = final(2e-3), final(1e-3), final(5e-4)
    ratio = g.l2_norm(a1 - a2) / g.l2_norm(a2 - a4)

    traj = evolve_limit(acceptance_data, sigma, 0.25, n_obs=20)
    power_gap = power_consistency(traj, banded=True)
    inv0 = euler_invariants(traj.state(0))
    drift = 0.0
    for i in range(0, 20, 3):
        inv = euler_invariants(traj.state(i))
        drift = max(drift,
                    abs(inv.mass - inv0.mass) / inv0.mass,
                    abs(inv.energy - inv0.energy) / abs(inv0.energy),
                    abs(inv.momentum[0] - inv0.momentum[0]) / inv0.mass)
    phi = traj.phi_periodic
    phase_err = max(
        g.l2_norm(g.gradient(phi[i])[0].real - traj.v[i][0])
        for i in range(0, traj.times.size, 8))
    ok = (14.0 <= ratio <= 18.0 and power_gap < 1e-8
          and drift < 1e-8 and phase_err < 1e-6)
    report(3, "limit solver", ok,
           f"RK4 ratio {ratio:.2f}, power gap {power_gap:.2e}, "
           f"drift {drift:.2e}, |grad phi - v| {phase_err:.2e}")


def test_04_wkb_convergence(sigma2_sweep):
    fit = sigma2_sweep.fits["two_term_l2"]
    ok = 0.8 <= fit.slope <= 1.2 and fit.r2 >= 0.98
    # the uncorrected amplitude misses the order-one phase: flat error curve
    one = sigma2_sweep.fits["one_term_l2"]
    ok = ok and one.slope < fit.slope
    # the emitted table carries one row per ladder member plus the fits
    csv_rows = [ln for ln in sigma2_sweep.to_csv().splitlines()
                if ln and not ln.startswith("#")]
    ok = ok and len(csv_rows) == 1 + len(LADDER)
    report(4, "WKB convergence", ok,
           f"two-term slope {fit.slope:.3f} (r2 {fit.r2:.4f}), "
           f"one-term slope {one.slope:.3f}, {len(csv_rows) - 1} rows")


def test_05_uniform_bounds(sigma2_sweep, sigma3_sweep):
    details = []
    ok = True
    for name, res in (("sigma=2", sigma2_sweep), ("sigma=3", sigma3_sweep)):
        a_vals = [r["a_eps_hk_max"] for r in res.rows]
        q_vals = [r["q_eps_hkm1_max"] for r in res.rows]
        ra = max(a_vals) / min(a_vals)
        rq = max(q_vals) / min(q_vals)
        ok = ok and ra < 2.0 and rq < 2.0
        details.append(f"{name} k={res.k_order}: a {ra:.2f}, q {rq:.2f}")
    report(5, "uniform bounds", ok, "; ".join(details))


def test_06_density_convergence(sigma2_sweep):
    pos = sigma2_sweep.fits["pos_gap_pow"]
    cur = sigma2_sweep.fits["cur_l1"]
    ok = pos.slope >= 1.8 and 0.8 <= cur.slope <= 1.2
    report(6, "density convergence", ok,
           f"position-power slope {pos.slope:.2f}, current L1 slope {cur.slope:.2f}")


def test_07_transport_identity(acceptance_data):
    g = acceptance_data.grid
    t_end = 0.1
    n_obs = 41
    obs = np.linspace(0.0, t_end, n_obs)
    h = float(obs[1] - obs[0])
    mid = 20
    orders = {}
    sigma1_match = None
    for sigma in (1, 2):
        ltraj = evolve_limit(acceptance_data, sigma, t_end, n_obs=n_obs)
        ltraj.phi_periodic
        eps = 2.0**-4
        u0 = build_initial_data(acceptance_data, eps)
        cfg = NLSConfig(grid=g, epsilon=eps, sigma=sigma, final_time=t_end)
        traj = evolve_nls(u0, cfg, n_obs)
        recs = [diagnostics_record(u, ltraj.state(i), eps)
                for i, u in enumerate(traj.states)]
        st = ltraj.state(mid)
        r_2h = residual_transport(recs[mid - 2], recs[mid], recs[mid + 2], st)
        r_h = residual_transport(recs[mid - 1], recs[mid], recs[mid + 1], st)
        orders[sigma] = float(np.log2(r_2h / r_h))
        if sigma == 1:
            def gap(i):
                rho = np.abs(ltraj.state(i).a) ** 2
                return np.abs(recs[i].a_eps) ** 2 - rho

            ddt = (gap(mid + 1) - gap(mid - 1)) / (2 * h)
            j_mid = np.stack([eps * np.imag(
                np.conj(recs[mid].a_eps) * recs[mid].psi_eps[0])])
            direct = g.l2_norm(
                ddt + g.divergence(j_mid + gap(mid) * st.v).real)
            sigma1_match = abs(r_h - direct) / direct
    ok = all(1.5 <= o <= 2.5 for o in orders.values()) and sigma1_match < 1e-10
    report(7, "transport identity", ok,
           f"orders sigma1 {orders[1]:.2f}, sigma2 {orders[2]:.2f}, "
           f"sigma1 reduction match {sigma1_match:.1e}")


def test_08_modulated_energy(sigma2_sweep):
    rows = sigma2_sweep.rows
    env_ok = all(r["envelope_ok"] for r in rows)
    me0 = [r["mod_energy_0"] for r in rows]
    ratio = max(me0) / min(me0)
    ok = env_ok and ratio < 2.0
    report(8, "modulated energy", ok,
           f"envelope holds for all rows (C={sigma2_sweep.gronwall_c:.2f}), "
           f"initial-energy ratio {ratio:.2f}")


def test_09_initial_gap_bound(acceptance_data):
    g = acceptance_data.grid
    sigma = 3
    vals = []
    for eps in LADDER:
        a0e = acceptance_data.a0 + eps * acceptance_data.a1
        q0, _ = q_g_fields(a0e, acceptance_data.a0, eps, sigma)
        vals.append(g.sobolev_norm(np.real(q0), float(sigma - 1)))
    ratio = max(vals) / min(vals)
    report(9, "initial gap bound", ratio < 2.0,
           f"||q(0)||_H2 max/min {ratio:.3f} over the ladder")


def test_10_breakdown_demo():
    g = Grid(512, 20.0)
    details = []
    ok = True
    for sigma in (1, 2):
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
            ok = ok and rep.breakdown_flag and rep.t_estimate < 20.0
            t_flagged.append(rep.t_estimate)
        ok = ok and t_flagged[1] < t_flagged[0]
        details.append(f"sigma={sigma}: t {t_flagged[0]:.2f} -> {t_flagged[1]:.2f}")
    report(10, "breakdown demo", ok, "; ".join(details))


def test_11_focusing_demo():
    g = Grid(256, 2 * np.pi)
    data = InitialData(grid=g, a0=np.ones(g.shape, dtype=complex),
                       a1=np.zeros(g.shape, dtype=complex),
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0,))
    modes = [4, 8, 16, 32]
    unstable = focusing_demo(data, modes, 1, pressure_sign=-1)
    control = focusing_demo(data, modes, 1, pressure_sign=1)
    rates = [r.rate for r in unstable]
    increasing = all(rates[i] < rates[i + 1] for i in range(len(rates) - 1))
    bounded = all(0.8 <= c.max_growth <= 1.2 for c in control)
    ok = increasing and bounded
    report(11, "focusing demo", ok,
           f"rates {['%.1f' % r for r in rates]} increasing={increasing}, "
           f"control bounded={bounded}")


def test_12_determinism(tmp_path):
    doc = {
        "grid": {"N": 256, "L": 16.0},
        "physics": {"sigma": 2, "epsilon_list": [0.125, 0.0625, 0.03125]},
        "time": {"T": 0.1, "dt0": 0.01, "observation_count": 8},
        "initial": {"a0_preset": "gaussian",
                    "a0_params": {"width": 1.0, "amplitude_re": 1.0,
                                  "amplitude_im": 0.2},
                    "a1_preset": "gaussian", "a1_params": {"width": 1.2}},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "scnls", "sweep", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "sweep.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(12, "determinism", ok,
           f"repeated sweep CSVs identical ({len(blobs[0])} bytes)")
