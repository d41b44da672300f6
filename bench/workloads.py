"""Workload inputs, execution and output checks.

Three workloads, each a fixed amount of work whose inputs the seed only
jitters (centre, widths and imaginary amplitude of the initial data, within
small ranges).  Grid, epsilon ladder, T, dt0 and observation count never
depend on the seed, so step counts stay fixed.

* ``sweep-1d``    -- the default epsilon sweep through the CLI ``sweep``
  command: N=512, L=16, sigma=2, ladder 2^-3..2^-7, T=0.25, 20 observations,
  the README config's gaussian a0/a1, dt-halving self-check on.
* ``limit-suite`` -- the CLI ``limit``, ``corrector``, ``blowup`` and
  ``focusing-demo`` commands at their defaults with N=512; no NLS at all.
* ``sweep-2d``    -- a 2-D sweep through the library API (``run_sweep`` plus
  the CSV/JSON writers): 128x128, L=12, the complex gaussian data of the
  repo's small 2-D sweep test, ladder (1/4, 1/8, 1/16), T=0.05, 11
  observations, self-check on.

An operation is one sweep row or one CLI command.  It fails if it raises,
exits non-zero, or breaks the repo's own acceptance bounds (see the check_*
functions).  The ``tiny`` size shrinks every workload for the harness
self-test; its numbers are not benchmark results.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep-1d", "limit-suite", "sweep-2d")
LIMIT_COMMANDS = ("limit", "corrector", "blowup", "focusing-demo")

SIZES = {
    "full": {
        "n1": 512, "l1": 16.0, "ladder1": tuple(2.0**-k for k in range(3, 8)),
        "t1": 0.25, "obs1": 20,
        "n2": 128, "l2": 12.0, "ladder2": (0.25, 0.125, 0.0625),
        "t2": 0.05, "obs2": 11,
        "blowup": {}, "focusing": {},
    },
    "tiny": {
        "n1": 128, "l1": 16.0, "ladder1": (0.25, 0.125, 0.0625),
        "t1": 0.05, "obs1": 5,
        "n2": 32, "l2": 12.0, "ladder2": (0.25, 0.125, 0.0625),
        "t2": 0.02, "obs2": 3,
        "blowup": {"max_time": 12.0, "amplitudes": [0.6, 1.2]},
        "focusing": {"wavenumbers": [2, 4, 8], "window": 0.2},
    },
}

# acceptance bounds, as the repo's tests and README state them
SLOPE_BAND = (0.8, 1.2)          # two-term L2 rate: first-order WKB error
R2_MIN = 0.98                    # FitResult.noisy threshold
PHASE_ERR_MAX = 1e-6             # ||grad phi - v|| phase-consistency contract
MODULUS_GAP_MAX = 1e-13          # |a_tilde| = |a| pointwise
CONTROL_GROWTH_BAND = (0.8, 1.2)  # defocusing control stays bounded


# ---------------------------------------------------------------------------
# inputs


def make_plan(workload: str, seed: int, size: str = "full") -> dict:
    """JSON-ready description of one workload's inputs; pure in (workload,
    seed, size)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sz = SIZES[size]
    rng = random.Random(seed)
    center = rng.uniform(-0.1, 0.1)
    width = rng.uniform(0.95, 1.05)
    amp_im = rng.uniform(0.15, 0.25)
    width1 = rng.uniform(0.9, 1.1)
    if workload == "sweep-2d":
        return {
            "workload": workload, "seed": seed, "size": size,
            "ops": [f"row{i}" for i in range(len(sz["ladder2"]))],
            "n": sz["n2"], "L": sz["l2"], "sigma": 2,
            "epsilon_list": list(sz["ladder2"]), "T": sz["t2"],
            "observation_count": sz["obs2"],
            "center": [center, rng.uniform(-0.1, 0.1)],
            "width": width, "amplitude_im": amp_im, "a1_width2": 1.4 * width1,
        }
    config = {
        "grid": {"dim": 1, "N": sz["n1"], "L": sz["l1"]},
        "physics": {"sigma": 2, "epsilon_list": list(sz["ladder1"])},
        "time": {"T": sz["t1"], "dt0": 0.01, "observation_count": sz["obs1"]},
        "initial": {
            "a0_preset": "gaussian",
            "a0_params": {"width": width, "amplitude_re": 1.0,
                          "amplitude_im": amp_im, "center": center},
            "a1_preset": "gaussian",
            "a1_params": {"width": 1.2 * width1, "center": center},
        },
        "output": {"formats": ["csv", "json"]},
    }
    if workload == "sweep-1d":
        ops = [f"row{i}" for i in range(len(sz["ladder1"]))]
    else:
        ops = list(LIMIT_COMMANDS)
        if sz["blowup"]:
            config["blowup"] = dict(sz["blowup"])
        if sz["focusing"]:
            config["focusing"] = dict(sz["focusing"])
    return {"workload": workload, "seed": seed, "size": size, "ops": ops,
            "config": config}


def setup(plan: dict, out: Path) -> dict:
    """Import the package and make the inputs ready (config written and
    parsed, grid and initial data built).  Everything here is set-up time."""
    import numpy as np
    import scnls
    import scnls.cli  # noqa: F401 - imported as users' commands import it
    from scnls import Grid, InitialData, SweepPlan, parse_config

    out.mkdir(parents=True, exist_ok=True)
    if plan["workload"] == "sweep-2d":
        n, length = plan["n"], plan["L"]
        g = Grid((n, n), (length, length))
        x, y = g.coords
        cx, cy = plan["center"]
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        bump = np.exp(-r2 / plan["width"] ** 2)
        a0 = bump * (1 + 1j * plan["amplitude_im"] * bump)
        a1 = (0.4 * np.exp(-r2 / plan["a1_width2"])).astype(complex)
        data = InitialData(grid=g, a0=a0, a1=a1,
                           phi0_periodic=np.zeros(g.shape),
                           phi0_wavevector=(0.0, 0.0), label="gaussian-complex-2d")
        sweep_plan = SweepPlan(initial=data, sigma=plan["sigma"],
                               epsilon_list=tuple(plan["epsilon_list"]),
                               final_time=plan["T"],
                               n_obs=plan["observation_count"])
        return {"scnls": scnls, "sweep_plan": sweep_plan, "out": out}
    path = out / f"{plan['workload']}.json"
    path.write_text(json.dumps(plan["config"], sort_keys=True, indent=1))
    cfg = parse_config(path.read_text())
    grid = cfg.make_grid()
    cfg.make_initial_data(grid)
    return {"scnls": scnls, "config_path": path, "out": out}


def execute(plan: dict, inputs: dict, span=None) -> dict:
    """Run the workload's operations: the timed part of a pass.  Returns
    {command: exit code or exception name}.  span(name) opens a trace span
    around each command when the pass is traced."""
    import contextlib

    span = span or (lambda name: contextlib.nullcontext())
    scnls, out = inputs["scnls"], inputs["out"]
    results: dict = {}
    if plan["workload"] == "sweep-2d":
        try:
            with span("bench.sweep2d"):
                result = scnls.sweep.run_sweep(inputs["sweep_plan"])
                (out / "sweep").mkdir(exist_ok=True)
                (out / "sweep" / "sweep.csv").write_text(result.to_csv())
                (out / "sweep" / "report.json").write_text(result.to_json() + "\n")
            results["sweep"] = 0
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            results["sweep"] = type(exc).__name__
        return results
    commands = ["sweep"] if plan["workload"] == "sweep-1d" else list(LIMIT_COMMANDS)
    for cmd in commands:
        argv = [cmd, str(inputs["config_path"]), "--out", str(out / cmd)]
        try:
            with span(f"cli.{cmd}"):
                results[cmd] = scnls.cli.main(argv)
        except Exception as exc:  # noqa: BLE001
            results[cmd] = type(exc).__name__
    return results


# ---------------------------------------------------------------------------
# checks


def check_sweep_report(report: dict | None, n_rows: int) -> list[tuple[bool, str]]:
    """Per-row verdicts: self_check_ok and envelope_ok, and the two-term L2
    rate fit in its band (a failed fit fails every row)."""
    if report is None:
        return [(False, "no report.json")] * n_rows
    rows = report.get("rows", [])
    fit = report.get("fits", {}).get("two_term_l2")
    fit_why = ""
    if fit is None:
        fit_why = "no two_term_l2 fit"
    elif not SLOPE_BAND[0] <= fit["slope"] <= SLOPE_BAND[1]:
        fit_why = f"two_term_l2 slope {fit['slope']:.4f} outside {SLOPE_BAND}"
    elif not fit["r2"] >= R2_MIN:
        fit_why = f"two_term_l2 r2 {fit['r2']:.5f} < {R2_MIN}"
    verdicts = []
    for i in range(n_rows):
        if i >= len(rows):
            verdicts.append((False, "row missing"))
            continue
        row = rows[i]
        why = [w for w, bad in ((f"self_check_ok false (err {row.get('self_check_error')})",
                                 row.get("self_check_ok") is not True),
                                ("envelope_ok false", row.get("envelope_ok") is not True),
                                (fit_why, bool(fit_why))) if bad]
        verdicts.append((not why, "; ".join(why)))
    return verdicts


def check_limit(summary: dict) -> tuple[bool, str]:
    if summary.get("status") != "completed":
        return False, f"status {summary.get('status')!r}"
    err = summary.get("grad_phi_minus_v_l2_max", math.inf)
    if not err < PHASE_ERR_MAX:
        return False, f"grad_phi_minus_v_l2_max {err:.3e} >= {PHASE_ERR_MAX}"
    return True, ""


def check_corrector(summary: dict) -> tuple[bool, str]:
    gap = summary.get("corrected_modulus_gap_max", math.inf)
    if not gap < MODULUS_GAP_MAX:
        return False, f"corrected_modulus_gap_max {gap:.3e} >= {MODULUS_GAP_MAX}"
    return True, ""


def check_blowup(doc: dict) -> tuple[bool, str]:
    why = [w for w, bad in (("not monotone in amplitude",
                             doc.get("monotone_in_amplitude") is not True),
                            ("breakdown not flagged",
                             doc.get("breakdown_flag") is not True)) if bad]
    return not why, "; ".join(why)


def check_focusing(doc: dict) -> tuple[bool, str]:
    if not doc.get("rows"):
        return False, "no rows"
    if doc.get("rates_increase_with_wavenumber") is not True:
        return False, "rates do not increase with wavenumber"
    lo, hi = CONTROL_GROWTH_BAND
    for row in doc["rows"]:
        g = row.get("max_growth_defocusing", math.inf)
        if not lo <= g <= hi:
            return False, f"control max_growth {g} outside {CONTROL_GROWTH_BAND}"
    return True, ""


def fail_op(op: dict, why: str) -> None:
    op["ok"] = False
    op["why"] = "; ".join(filter(None, [op["why"], why]))


# command -> (artifact checked, checker, artifacts that must carry a content
# hash)
_COMMAND_CHECKS = {
    "limit": ("summary.json", check_limit, ("euler_invariants.csv", "summary.json")),
    "corrector": ("summary.json", check_corrector, ("summary.json",)),
    "blowup": ("blowup.json", check_blowup, ("blowup.csv", "blowup.json")),
    "focusing-demo": ("focusing.json", check_focusing,
                      ("focusing.csv", "focusing.json")),
}
_SWEEP_ARTIFACTS = ("sweep.csv", "report.json")


def content_hash(path: Path) -> str | None:
    """The content hash an artifact embeds: the JSON "content_hash" key or a
    CSV "# content_hash:" comment line."""
    if not path.is_file():
        return None
    text = path.read_text()
    if path.suffix == ".json":
        try:
            return json.loads(text).get("content_hash")
        except (json.JSONDecodeError, AttributeError):
            return None
    for line in text.splitlines():
        if line.startswith("# content_hash:"):
            return line.split(":", 1)[1].strip()
    return None


def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check(plan: dict, out: Path, results: dict) -> tuple[list[dict], dict]:
    """Verdict per operation, and the content hashes per command."""
    ops: list[dict] = []
    hashes: dict = {}
    for cmd, code in results.items():
        d = out / cmd
        names = _SWEEP_ARTIFACTS if cmd == "sweep" else _COMMAND_CHECKS[cmd][2]
        hashes[cmd] = {n: content_hash(d / n) for n in names}
        missing = [n for n, h in hashes[cmd].items() if h is None]
        failed_run = code != 0
        if cmd == "sweep":
            if failed_run:
                verdicts = [(False, f"exit {code}")] * len(plan["ops"])
            else:
                verdicts = check_sweep_report(_load_json(d / "report.json"),
                                              len(plan["ops"]))
            if missing:
                verdicts = [(False, f"no content hash in {missing}")] * len(verdicts)
            ops += [{"name": name, "cmd": cmd, "ok": ok, "why": why}
                    for name, (ok, why) in zip(plan["ops"], verdicts)]
            continue
        doc = _load_json(d / _COMMAND_CHECKS[cmd][0])
        if failed_run:
            ok, why = False, f"exit {code}"
        elif doc is None:
            ok, why = False, f"no {_COMMAND_CHECKS[cmd][0]}"
        elif missing:
            ok, why = False, f"no content hash in {missing}"
        else:
            ok, why = _COMMAND_CHECKS[cmd][1](doc)
        ops.append({"name": cmd, "cmd": cmd, "ok": ok, "why": why})
    return ops, hashes
