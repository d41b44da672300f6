"""Epsilon-ladder sweeps: WKB error curves, uniformity tables, rate fits.

One sweep runs one joint limit + corrector integration (evolve_limit with a1,
stored at the observation times only) and, for each epsilon in a strictly
decreasing ladder, a wavefunction integration with modulation diagnostics
at every snapshot, then reduces everything into a per-epsilon row table.
Both solvers take the count n_obs of observation times, so limit node i and
wavefunction snapshot i are observation i, paired by index.  The
wavefunction runs and their step-doubling checks go through
evolve_nls_batch, a group of whole rungs of one composition per call
(rung_groups, split where nls.pick_scheme changes: the whole default 1-D
ladder in one call, one rung per call on 128x128).  A rung's
diagnostics take stacks of its observation times, in chunks whose
gradients hold at most CHUNK_POINTS points.  Each chunk's a_tilde is formed
before the wavefunction runs; from then on the sweep keeps a_tilde, not the
corrector pair, nor the joint limit trajectory.  The row table holds:

* one-term / two-term WKB errors  ||u - a e^{i phi/eps}||,
  ||u - a_tilde e^{i phi/eps}|| in sup-over-snapshots L2 and L^inf
  (L^6 instead of L^inf when sigma = 2 in dimension >= 2), taken as
  ||a_eps - a|| and ||a_eps - a_tilde|| of the filtered amplitude;
* uniformity norms max_t ||a_eps||_{H^k}, max_t ||q_eps||_{H^(k-1)} with
  k = 2 (sigma = 1 in any dimension, sigma = 2 in 1-D), k = 1 (sigma = 2,
  higher dim), k = sigma (sigma >= 3);
* density-gap metrics and the modulated-energy envelope check;
* the run's composition (nls.pick_scheme) and step, its step-doubling
  check's step and the check's outcome.

Log-log least squares (fit_rate) turns error columns into convergence rates,
over the rows that pass their step-doubling check (at least 3 of them).  The
JSON report names the epsilons of each fit's rows, and each fit it leaves
out with the reason.
The pipeline is deterministic: identical plans give byte-identical CSV/JSON.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import field, replace

import numpy as np

from . import __version__
from .artifacts import hashed_csv, hashed_json
from .corrector import evolve_corrector, tilde_amplitude
from .diagnostics import (density_metrics, diagnostics_record,
                          gronwall_constant, sobolev_index)
from .errors import ConfigError
from .grid import (CHUNK_POINTS, MAX_STORED_BYTES, SNAPSHOT_BYTES_PER_POINT,
                   per_value)
from .limit import LimitState, evolve_limit
# evolve_nls stays bound here, unused, because bench/layers.py traces it
from .nls import (NLSConfig, NLSTrajectory, build_initial_data,  # noqa: F401
                  evolve_nls, evolve_nls_batch, pick_scheme)
from .presets import InitialData, snap_wavevector
from .records import Record, frozen_record


def sup_exponent(sigma: int, dim: int) -> float:
    """Second error norm: L^inf, except L^6 for sigma=2 in dim>=2 where only
    L2 cap L^p control (H^1 embedding) is available."""
    return 6.0 if (sigma == 2 and dim >= 2) else math.inf


@frozen_record
class FitResult(Record):
    """A least-squares rate fit of log(err) against log(eps) (fit_rate)."""

    slope: float
    intercept: float
    r2: float
    n: int

    @property
    def noisy(self) -> bool:
        return self.r2 < 0.98


def fit_rate(points) -> FitResult:
    """Least-squares fit of log(err) against log(eps).

    points: iterable of (eps, err); needs >= 3 points, all err > 0.
    """
    pts = [(float(e), float(r)) for e, r in points]
    if len(pts) < 3:
        raise ValueError(f"insufficient points for a rate fit: {len(pts)} < 3")
    if any(r <= 0 for _, r in pts):
        raise ValueError("rate fit requires strictly positive error values")
    x = np.log([e for e, _ in pts])
    y = np.log([r for _, r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r2=r2, n=len(pts))


@frozen_record
class SweepPlan(Record):
    """An epsilon-ladder sweep's initial data, ladder, horizon and step settings."""

    initial: InitialData
    sigma: int
    epsilon_list: tuple[float, ...]
    final_time: float
    n_obs: int = 20
    dt0: float = 0.01
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = self.epsilon_list
        if not eps:
            raise ConfigError("physics.epsilon_list", "must be a non-empty list")
        if any(not 0 < e <= 1 for e in eps):
            raise ConfigError("physics.epsilon_list", "values must lie in (0, 1]")
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ConfigError("physics.epsilon_list", "must be strictly decreasing")
        if self.n_obs < 3:
            raise ConfigError("time.observation_count", "needs at least 3 snapshots")


# the rate fits of a sweep: fit name -> the row column it fits
FIT_COLUMNS = {"two_term_l2": "err_two_term_l2",
               "two_term_sup": "err_two_term_sup",
               "one_term_l2": "err_one_term_l2",
               "pos_gap_pow": "pos_gap_pow_max",
               "cur_l1": "cur_l1_max"}


def _fit_points(rows: list[dict], column: str) -> tuple[list, str]:
    """The (epsilon, value) points a rate fit of column takes, the rows that
    pass their step-doubling check, and why the fit is left out ('' when it
    is not): fewer than 3 such rows, or a value that is not positive."""
    points = [(r["epsilon"], r[column]) for r in rows if r["self_check_ok"]]
    if len(points) < 3:
        return points, (f"{len(points)} of {len(rows)} rows pass their "
                        "checks; a fit needs 3")
    bad = sum(v <= 0 for _, v in points)
    if bad:
        return points, f"{bad} of {len(points)} passing rows are not positive"
    return points, ""


# the per-snapshot lists a row carries into the JSON report
SERIES_KEYS = ("time", "err_two_term_l2", "err_one_term_l2", "a_eps_hk",
               "q_eps_hkm1", "pos_gap_lsp1", "cur_l1", "mod_energy")


@frozen_record
class SweepResult(Record):
    """A sweep's rows, rate fits and Gronwall constant; to_json is its report."""

    plan_echo: dict
    rows: list[dict]
    fits: dict[str, FitResult]
    gronwall_c: float
    sup_p: float
    k_order: int

    def to_json(self) -> str:
        """The report: each fit with the epsilons of the rows it took, and
        each fit left out under fits_left_out with its reason."""
        fits, left_out = {}, {}
        for name, column in FIT_COLUMNS.items():
            points, why = _fit_points(self.rows, column)
            if name in self.fits:
                f = self.fits[name]
                fits[name] = vars(f) | {"noisy": f.noisy,
                                        "epsilon_list": [e for e, _ in points]}
            else:
                left_out[name] = why
        payload = {
            "plan": self.plan_echo,
            "k_order": self.k_order,
            "sup_p": "inf" if self.sup_p == math.inf else self.sup_p,
            "gronwall_constant": self.gronwall_c,
            "rows": self.rows,
            "fits": fits,
            "fits_left_out": left_out,
            "environment": {"package": "scnls", "version": __version__,
                            "numpy": np.__version__},
        }
        return hashed_json(payload)

    def to_csv(self) -> str:
        """The rows as a CSV table whose columns are the keys of rows[0], in
        order, without the JSON-only series."""
        columns = [key for key in self.rows[0] if key != "series"]
        return hashed_csv([
            "# epsilon-sweep result; columns: " + ",".join(columns),
            "# config: " + json.dumps(self.plan_echo, sort_keys=True,
                                      separators=(",", ":")),
        ], columns, self.rows)


def rung_groups(n_rungs: int, points: int, n_obs: int) -> list[range]:
    """Consecutive ladder rungs integrated in one wavefunction batch (which
    run_sweep splits further where the rungs' composition changes).

    A rung is its run plus its step-doubling check, two members.  A
    group holds at most CHUNK_POINTS grid points, for peak memory: the Grid
    transforms go in chunks of that size anyway, but a group's arrays grow
    with it (one group for a three-rung 128x128 ladder with 11 observations
    peaked at 79 MB RSS, one rung per group at 66 MB).  Nor does a group
    hold more rungs than the snapshot budget that config.parse_config grants
    one run, n_obs * points * SNAPSHOT_BYTES_PER_POINT <= MAX_STORED_BYTES,
    allows.
    """
    per = max(1, min(CHUNK_POINTS // (2 * points),
                     MAX_STORED_BYTES // (n_obs * points * SNAPSHOT_BYTES_PER_POINT)))
    return [range(i, min(i + per, n_rungs)) for i in range(0, n_rungs, per)]


def _envelope(me0: float, c_hat: float, t: float) -> float:
    """The modulated-energy bound me0 * e^(c_hat t) with a 1e-9 margin;
    infinite where the exponential overflows a float, save for me0 = 0,
    whose bound stays 0."""
    try:
        return me0 * math.exp(c_hat * t) * (1.0 + 1e-9)
    except OverflowError:
        return math.inf if me0 > 0 else me0


def _sweep_row(traj: NLSTrajectory, scheme: str,
               limit_chunks: list[tuple[slice, LimitState, np.ndarray]],
               c_hat: float, sup_p: float) -> dict:
    """One ladder rung from its wavefunction run, integrated with scheme;
    limit_chunks holds (nodes, their stacked limit state, a_tilde) per
    chunk, shared by every rung."""
    grid = traj.grid
    eps, sigma = traj.epsilon, traj.sigma
    chunks = []
    for nodes, ls, a_tilde in limit_chunks:
        rec = diagnostics_record(traj.states[nodes], ls, eps)
        # |e^{i phi/eps}| = 1, so ||u - b e^{i phi/eps}|| = ||a_eps - b||
        diff2 = rec.a_eps - a_tilde
        diff1 = rec.a_eps - ls.a
        dm = density_metrics(rec, ls)
        chunks.append({
            "time": traj.times[nodes],
            "err_two_term_l2": grid.l2_norm(diff2),
            "err_two_term_sup": grid.lebesgue_norm(diff2, sup_p),
            "err_one_term_l2": grid.l2_norm(diff1),
            "err_one_term_sup": grid.lebesgue_norm(diff1, sup_p),
            "a_eps_hk": rec.a_eps_hk,
            "q_eps_hkm1": rec.q_eps_hkm1,
            "pos_gap_lsp1": dm.pos_err_lsp1,
            "pos_gap_pow": per_value(lambda x: x ** (sigma + 1), dm.pos_err_lsp1),
            "cur_transport_lsp1": dm.cur_err_transport,
            "cur_l1": dm.cur_err_l1,
            "mod_energy": rec.modulated_energy,
        })
    # one list per quantity over the observation times; a row column is the
    # max of its list
    table = {key: np.concatenate([c[key] for c in chunks]).tolist() for key in chunks[0]}
    me0 = table["mod_energy"][0]
    envelope_ok = all(me <= _envelope(me0, c_hat, t)
                      for t, me in zip(table["time"], table["mod_energy"]))
    # the error columns keep their names, the other maxima gain "_max"; the
    # dict's order is the CSV's
    row = {key if key.startswith("err_") else key + "_max": max(vals)
           for key, vals in table.items() if key not in ("time", "mod_energy")}
    return {
        "epsilon": eps, **row,
        "mod_energy_0": me0, "mod_energy_max": max(table["mod_energy"]),
        "envelope_ok": envelope_ok,
        # the composition and the steps of the run and of its check: the
        # law step is not one formula in eps
        "scheme": scheme,
        "nls_dt": float(traj.dt),
        "self_check_dt": float(traj.self_check_dt),
        "self_check_error": float(traj.self_check_error),
        "self_check_ok": bool(traj.self_check_ok),
        "series": {key: table[key] for key in SERIES_KEYS},  # JSON only
    }


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Execute the sweep: one shared joint limit + corrector run, one
    wavefunction run per epsilon (batched by rung_groups), diagnostics, and
    rate fits."""
    grid = plan.initial.grid
    sigma = plan.sigma
    eps_ref = max(plan.epsilon_list)

    initial = plan.initial
    if any(kj != 0.0 for kj in initial.phi0_wavevector):
        snapped, _ = snap_wavevector(initial.phi0_wavevector, grid, eps_ref)
        initial = replace(initial, phi0_wavevector=snapped)

    limit_traj = evolve_corrector(evolve_limit(
        initial, sigma, plan.final_time, n_obs=plan.n_obs, a1=initial.a1))
    # the nodes in chunks whose gradients hold at most CHUNK_POINTS points: a
    # whole 1-D headline rung, one node at 128x128 (where 2 nodes took 4.4 MB
    # more memory, and 11 nodes 1.5x the time of one at a time)
    per = max(1, CHUNK_POINTS // (grid.dim * grid.size))
    limit_chunks = []
    for nodes in (slice(i, i + per) for i in range(0, plan.n_obs, per)):
        ls = limit_traj.state(nodes)
        # the rows read a_tilde, never the pair (phi1, w): the state drops it
        limit_chunks.append((nodes, replace(ls, phi1=None, w=None), tilde_amplitude(ls)))
    c_hat = gronwall_constant(limit_traj)
    del limit_traj, ls  # the pair's node blocks go before the first batch
    sup_p = sup_exponent(sigma, grid.dim)

    # each rung's composition; the rungs of a group that share one
    # integrate as one batch (a batch steps one weight tuple), and a failed
    # step-doubling check flags its row and the sweep goes on
    schemes = [pick_scheme(plan.dt0, eps, min(grid.dx), plan.final_time,
                           plan.n_obs) for eps in plan.epsilon_list]
    rows = []
    for group in rung_groups(len(plan.epsilon_list), grid.size, plan.n_obs):
        for scheme, rungs in itertools.groupby(group, key=lambda i: schemes[i]):
            ladder = [plan.epsilon_list[i] for i in rungs]
            u0s = [build_initial_data(initial, eps, epsilon_ref=eps_ref)
                   for eps in ladder]
            cfgs = [NLSConfig(grid=grid, epsilon=eps, sigma=sigma,
                              final_time=plan.final_time, dt0=plan.dt0,
                              scheme=scheme)
                    for eps in ladder]
            rows += [_sweep_row(traj, scheme, limit_chunks, c_hat, sup_p)
                     for traj in evolve_nls_batch(u0s, cfgs, plan.n_obs)]

    fits = {}
    for name, column in FIT_COLUMNS.items():
        points, why = _fit_points(rows, column)
        if not why:
            fits[name] = fit_rate(points)

    plan_echo = {
        "grid": grid.descriptor(),
        "sigma": sigma,
        "epsilon_list": list(plan.epsilon_list),
        "final_time": plan.final_time,
        "n_obs": plan.n_obs,
        "dt0": plan.dt0,
        "initial_label": initial.label,
        "config": plan.config_echo,
    }
    return SweepResult(plan_echo=plan_echo, rows=rows, fits=fits,
                       gronwall_c=c_hat, sup_p=sup_p,
                       k_order=sobolev_index(sigma, grid.dim))
