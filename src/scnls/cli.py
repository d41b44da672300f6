"""Command-line surface.

    scnls simulate       config.json   # one wavefunction run + invariants
    scnls limit          config.json   # limit-flow run + conservation/phase checks
    scnls corrector      config.json   # corrector pair on top of the limit flow
    scnls sweep          config.json   # epsilon ladder, error curves, rate fits
    scnls conserve       config.json   # drift table for both systems
    scnls blowup         config.json   # breakdown hunt on compactly supported data
    scnls focusing-demo  config.json   # frequency growth, ill-posed vs control sign
    scnls report         <report.json | run-dir>

Exit codes: 0 success, 2 config error, 3 numerical-guard failure, 4 internal
error.  On failure a machine-readable JSON error record goes to stderr.
Artifacts land in output.directory (override with --out) and embed the
effective config plus a content hash.  --seed is echoed into artifacts only;
the pipeline is deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .artifacts import hashed_csv, hashed_json
from .config import RunConfig, demo_options, parse_config
from .corrector import evolve_corrector, tilde_amplitude
from .errors import ConfigError, NumericalGuardError, rekeyed
from .grid import Grid
from .limit import (blowup_monitor, breakdown_threshold, euler_invariants,
                    evolve_limit, focusing_demo, power_consistency)
from .nls import (SCHEME, SELF_CHECK_FACTOR, NLSConfig, build_initial_data,
                  evolve_nls, nls_invariants)
from .presets import InitialData, compact_bump, constant
from .snapshots import write_snapshots
from .sweep import SweepPlan, run_sweep

EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_INTERNAL = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# artifact helpers


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["config"] = cfg.effective()
    payload["config_hash"] = cfg.content_hash()
    path.write_text(hashed_json(payload) + "\n")


def _write_csv(path: Path, rows: list[dict], cfg: RunConfig) -> None:
    """rows as a CSV table whose columns are the keys of rows[0], in order."""
    columns = tuple(rows[0])
    path.write_text(hashed_csv([
        "# columns: " + ",".join(columns),
        "# config_hash: " + cfg.content_hash(),
    ], columns, rows))


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.json").write_text(cfg.serialize() + "\n")
    return out


# ---------------------------------------------------------------------------
# runs shared by the commands


def _nls_run(cfg: RunConfig, data: InitialData) -> tuple:
    """The commands' wavefunction run over the observation times, and the
    invariants of each of its snapshots.  A run that fails its step-doubling
    check raises NumericalGuardError (exit 3) before any artifact."""
    ncfg = NLSConfig(grid=data.grid, epsilon=cfg.epsilon, sigma=cfg.sigma,
                     final_time=cfg.final_time, dt0=cfg.dt0, scheme=SCHEME)
    traj = evolve_nls(build_initial_data(data, cfg.epsilon), ncfg, cfg.observation_count)
    if not traj.self_check_ok:
        raise NumericalGuardError(
            "step-doubling self-check failed: |u_dt - u_2dt| = "
            f"{traj.self_check_error:.3e} > {SELF_CHECK_FACTOR}*eps*||u0||; "
            f"reduce dt0 (eps={cfg.epsilon}, dt={traj.dt:.3e})")
    return traj, [nls_invariants(u, float(t), data.grid, cfg.epsilon, cfg.sigma)
                  for t, u in zip(traj.times, traj.states)]


def _at_rest(grid: Grid, a0, label: str) -> InitialData:
    """Amplitude a0 with zero phase and no first-order amplitude."""
    return InitialData(grid=grid, a0=np.asarray(a0, dtype=complex),
                       a1=np.zeros(grid.shape, dtype=complex),
                       phi0_periodic=np.zeros(grid.shape),
                       phi0_wavevector=(0.0,) * grid.dim, label=label)


def _drift(x, x0, floor: float = 1e-300) -> float:
    """max |x - x0| relative to max |x0|, the latter at least floor."""
    return float(np.max(np.abs(x - x0))) / max(float(np.max(np.abs(x0))), floor)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, out: Path) -> None:
    traj, invs = _nls_run(cfg, cfg.make_initial_data())
    if "csv" in cfg.formats:
        _write_csv(out / "invariants.csv", [vars(inv) for inv in invs], cfg)
    if "snapshots" in cfg.formats:
        write_snapshots(out / "wavefunction.snap",
                        [("u", float(t), u, traj.grid)
                         for t, u in zip(traj.times, traj.states)],
                        extra={"config_hash": cfg.content_hash()})
    summary = {
        "command": "simulate",
        "epsilon": cfg.epsilon, "sigma": cfg.sigma, "dt": traj.dt,
        "scheme": SCHEME,
        "mass_drift_rel": _drift(invs[-1].mass, invs[0].mass),
        "energy_drift_rel": _drift(invs[-1].energy, invs[0].energy),
        "self_check_error": traj.self_check_error,
        "self_check_dt": traj.self_check_dt,
        "self_check_ok": traj.self_check_ok,
    }
    _write_json(out / "summary.json", summary, cfg)


def cmd_limit(cfg: RunConfig, out: Path) -> None:
    grid = cfg.make_grid()
    traj = evolve_limit(cfg.make_initial_data(grid), cfg.sigma, cfg.final_time,
                        n_obs=cfg.observation_count)
    rows, recs = [], []
    grad_phi_err = 0.0
    for st in map(traj.state, range(cfg.observation_count)):
        rows.append(vars(euler_invariants(st, cfg.sigma)))
        k = np.reshape(st.phi_wavevector, (-1,) + (1,) * grid.dim)
        dphi = grid.gradient(st.phi_periodic).real + k
        grad_phi_err = max(grad_phi_err, float(np.max(grid.l2_norm(dphi - st.v))))
        recs.append(("a", st.time, st.a, grid))
        recs += [(f"v{j}", st.time, vj, grid) for j, vj in enumerate(st.v)]
    if "csv" in cfg.formats:
        _write_csv(out / "euler_invariants.csv", rows, cfg)
    if "snapshots" in cfg.formats:
        write_snapshots(out / "limit.snap", recs,
                        extra={"config_hash": cfg.content_hash()})
    summary = {
        "command": "limit", "sigma": cfg.sigma, "dt": traj.dt,
        "steps": len(traj.step_times) - 1,
        "cfl_max": float(np.max(traj.cfl_numbers)),
        "status": traj.status,
        "grad_phi_minus_v_l2_max": grad_phi_err,
        "power_consistency_banded_max": power_consistency(traj, banded=True),
        "power_consistency_raw_max": power_consistency(traj, banded=False),
        "mass_drift_rel": _drift(rows[-1]["mass"], rows[0]["mass"]),
    }
    _write_json(out / "summary.json", summary, cfg)


def cmd_corrector(cfg: RunConfig, out: Path) -> None:
    data = cfg.make_initial_data()
    grid = data.grid
    traj = evolve_corrector(evolve_limit(
        data, cfg.sigma, cfg.final_time, n_obs=cfg.observation_count,
        a1=data.a1))
    nodes = traj.state(slice(None))
    a_tilde = tilde_amplitude(nodes)
    phi1_max = float(np.max(np.abs(nodes.phi1)))
    modulus_gap = float(np.max(np.abs(np.abs(a_tilde) - np.abs(nodes.a))))
    recs = [(name, t, f[i], grid) for i, t in enumerate(traj.times.tolist())
            for name, f in (("phi1", nodes.phi1), ("w", nodes.w), ("a_tilde", a_tilde))]
    if "snapshots" in cfg.formats:
        write_snapshots(out / "corrector.snap", recs,
                        extra={"config_hash": cfg.content_hash()})
    a0, a1 = data.a0, data.a1
    real_data_case = bool(
        np.max(np.abs(a0.imag)) < 1e-14 and np.max(np.abs(a1.real)) < 1e-14)
    summary = {
        "command": "corrector", "sigma": cfg.sigma, "dt": traj.dt,
        "steps": len(traj.step_times) - 1,
        "phi1_linf_max": phi1_max,
        "corrected_modulus_gap_max": modulus_gap,
        "real_data_case": real_data_case,
        "phi1_vanishes": phi1_max < 1e-9,
    }
    _write_json(out / "summary.json", summary, cfg)


def cmd_sweep(cfg: RunConfig, out: Path) -> None:
    data = cfg.make_initial_data()
    plan = SweepPlan(initial=data, sigma=cfg.sigma,
                     epsilon_list=cfg.epsilon_list, final_time=cfg.final_time,
                     n_obs=cfg.observation_count, dt0=cfg.dt0,
                     config_echo=cfg.effective())
    result = run_sweep(plan)
    if "csv" in cfg.formats:
        (out / "sweep.csv").write_text(result.to_csv())
    if "json" in cfg.formats:
        (out / "report.json").write_text(result.to_json() + "\n")


def cmd_conserve(cfg: RunConfig, out: Path) -> None:
    data = cfg.make_initial_data()
    traj, invs = _nls_run(cfg, data)
    ltraj = evolve_limit(data, cfg.sigma, cfg.final_time,
                         n_obs=cfg.observation_count)
    erows = [vars(euler_invariants(ltraj.state(i), cfg.sigma))
             for i in range(cfg.observation_count)]
    n0, e0 = invs[0], erows[0]
    rows = [{
        "time": inv.time,
        "nls_mass_drift": _drift(inv.mass, n0.mass),
        "nls_energy_drift": _drift(inv.energy, n0.energy),
        "nls_momentum_drift": _drift(inv.momentum, n0.momentum, 1.0),
        "nls_pseudo_conformal": inv.pseudo_conformal,
        "euler_mass_drift": _drift(e["mass"], e0["mass"]),
        "euler_energy_drift": _drift(e["energy"], e0["energy"]),
        "euler_momentum_drift": _drift(e["momentum"], e0["momentum"], 1.0),
        "euler_pseudo_conformal": e["pseudo_conformal"],
        "total_pressure": e["total_pressure"],
    } for inv, e in zip(invs, erows)]
    if "csv" in cfg.formats:
        _write_csv(out / "conservation.csv", rows, cfg)
    summary = {"command": "conserve", "dt": traj.dt, "scheme": SCHEME}
    for name in ("nls_mass", "nls_energy", "nls_momentum", "euler_mass",
                 "euler_energy", "euler_momentum"):
        summary[f"max_{name}_drift"] = max(r[f"{name}_drift"] for r in rows)
    _write_json(out / "summary.json", summary, cfg)


def cmd_blowup(cfg: RunConfig, out: Path) -> None:
    opts = demo_options(cfg.blowup, "blowup")
    grid = cfg.make_grid()
    rows = []
    for amp in opts["amplitudes"]:
        a0 = compact_bump(grid, radius=opts["radius"], amplitude=amp)
        data = _at_rest(grid, a0, f"compact_bump(amp={amp})")
        # the run stops where the monitor declares breakdown
        threshold = breakdown_threshold(
            grid, np.zeros((grid.dim, *grid.shape)), data.a0 ** cfg.sigma,
            cfg.sigma)
        with rekeyed("time.T", "blowup.max_time"):
            traj = evolve_limit(data, cfg.sigma, opts["max_time"],
                                adaptive=True, grad_stop=threshold)
        rows.append({"amplitude": amp, **vars(blowup_monitor(traj))})

    t = [math.inf if r["t_estimate"] is None else r["t_estimate"] for r in rows]
    monotone = all(t[i + 1] < t[i] for i in range(len(rows) - 1)
                   if rows[i]["amplitude"] < rows[i + 1]["amplitude"])
    if "csv" in cfg.formats:
        _write_csv(out / "blowup.csv", rows, cfg)
    _write_json(out / "blowup.json", {
        "command": "blowup", "sigma": cfg.sigma, "rows": rows,
        "monotone_in_amplitude": monotone,
        "breakdown_flag": all(r["breakdown_flag"] for r in rows),
        "t_estimate": rows[0]["t_estimate"] if rows else None,
    }, cfg)


def cmd_focusing_demo(cfg: RunConfig, out: Path) -> None:
    opts = demo_options(cfg.focusing, "focusing")
    grid = Grid(cfg.n, (2.0 * math.pi,) * cfg.dim, dim=cfg.dim)
    data = _at_rest(grid, constant(grid, math.sqrt(opts["rho0"])),
                    "constant-background")
    unstable, control = (
        focusing_demo(data, opts["wavenumbers"], cfg.sigma, pressure_sign=sign,
                      delta=opts["delta"], window=opts["window"])
        for sign in (-1, 1))
    rows = [{
        "mode": u.mode, "xi": u.xi,
        "rate_focusing": u.rate, "max_growth_focusing": u.max_growth,
        "rate_defocusing": c.rate, "max_growth_defocusing": c.max_growth,
    } for u, c in zip(unstable, control)]
    if "csv" in cfg.formats:
        _write_csv(out / "focusing.csv", rows, cfg)
    increasing = all(rows[i + 1]["rate_focusing"] > rows[i]["rate_focusing"]
                     for i in range(len(rows) - 1))
    _write_json(out / "focusing.json", {
        "command": "focusing-demo", "sigma": cfg.sigma, "rows": rows,
        "rates_increase_with_wavenumber": increasing,
    }, cfg)


_REPORT_COLUMNS = ("epsilon", "err_two_term_l2", "err_one_term_l2",
                   "a_eps_hk_max", "q_eps_hkm1_max", "cur_l1_max",
                   "envelope_ok", "self_check_ok")


def _load_report(path_arg: str) -> dict:
    """The sweep report at path_arg (report.json or its directory), checked
    for everything cmd_report prints; ConfigError names the key <report>."""
    p = Path(path_arg)
    if p.is_dir():
        p = p / "report.json"
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError("<report>", f"cannot read {p}: {exc}") from exc

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ConfigError("<report>", f"{p}: {what}")

    need(isinstance(doc, dict), "not a JSON object")
    need(isinstance(doc.get("plan", {}), dict), "plan is not an object")
    rows = doc.get("rows", [])
    need(isinstance(rows, list) and all(isinstance(r, dict) for r in rows),
         "rows is not a list of objects")
    for i, row in enumerate(rows):
        missing = [c for c in _REPORT_COLUMNS if c not in row]
        need(not missing, f"row {i} lacks {missing}")
    fits = doc.get("fits", {})
    need(isinstance(fits, dict), "fits is not an object")
    for name, fit in fits.items():
        need(isinstance(fit, dict) and all(
            isinstance(fit.get(k), (int, float)) for k in ("slope", "r2")),
            f"fit {name} lacks a numeric slope and r2")
    return doc


def cmd_report(path_arg: str) -> None:
    doc = _load_report(path_arg)
    plan = doc.get("plan", {})
    print(f"sweep report: sigma={plan.get('sigma')} "
          f"grid={plan.get('grid')} T={plan.get('final_time')}")
    print(f"k_order={doc.get('k_order')} sup_p={doc.get('sup_p')} "
          f"gronwall_constant={doc.get('gronwall_constant')}")
    rows = doc.get("rows", [])
    if rows:
        print("  ".join(f"{c:>18}" for c in _REPORT_COLUMNS))
        for r in rows:
            print("  ".join(
                f"{r[c]:>18.6g}" if isinstance(r[c], float) else f"{r[c]!s:>18}"
                for c in _REPORT_COLUMNS))
    for name, fit in sorted(doc.get("fits", {}).items()):
        tag = " (noisy)" if fit.get("noisy") else ""
        print(f"fit {name}: slope={fit['slope']:.4f} r2={fit['r2']:.5f}{tag}")


# ---------------------------------------------------------------------------
# dispatch


_COMMANDS = {
    "simulate": cmd_simulate,
    "limit": cmd_limit,
    "corrector": cmd_corrector,
    "sweep": cmd_sweep,
    "conserve": cmd_conserve,
    "blowup": cmd_blowup,
    "focusing-demo": cmd_focusing_demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scnls",
        description="semiclassical NLS / hydrodynamic-limit workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a JSON config document")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None,
                        help="echoed into artifacts (pipeline is deterministic)")
    rp = sub.add_parser("report")
    rp.add_argument("path", help="report.json or a sweep output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.path)
            return EXIT_OK
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError("<document>", f"config file not found: {cfg_path}")
        cfg = parse_config(cfg_path.read_text())
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = _outdir(cfg, args.out)
        _COMMANDS[args.command](cfg, out)
        return EXIT_OK
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except NumericalGuardError as exc:
        _emit_error("numerical_guard", exc)
        return EXIT_GUARD
    except Exception as exc:  # noqa: BLE001 - surfaced as a machine record
        _emit_error("internal", exc)
        return EXIT_INTERNAL


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": {"kind": kind, "type": type(exc).__name__,
                        "message": str(exc)}}
    if isinstance(exc, ConfigError):
        record["error"]["key"] = exc.key
    print(json.dumps(record, sort_keys=True), file=sys.stderr)

