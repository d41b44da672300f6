"""Per-layer metrics of a traced pass.

``install`` wraps the package's public functions as the calling modules bind
them (``scnls.sweep.evolve_nls``, ``scnls.cli.evolve_limit``,
``scnls.limit.reconstruct_phase``, ...), counts the RK4 right-hand sides and
``numpy.fft.fftn``/``ifftn``, and ``reduce`` turns the spans and counters into
the metrics listed in PER_LAYER.  A binding that a later version of the
package no longer has makes ``install`` raise (see spans.py): the wiring
here must then follow the package, so that no metric changes its meaning
under the same name.

NLS steps are counted where they run: every call of ``scnls.nls._evolve_raw``
(the Strang loop, called once for the coarse run and once per dt-halving
guard run) adds the steps it took, ``(t_end - t_0) / dt`` from the ``dt`` it
returns, also when the enclosing ``evolve_nls`` then raises.  Guard steps are
those of the calls made with ``dt_override`` set.

Traffic figures (``*_bytes_computed``) are computed, not measured: transforms
per unit of work (counted) times one complex128 read and write of the field
per transform, plus one read of the state and one write of its update.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("grid.fft_calls", "count", "lower"),
    ("grid.fft_s", "s", "lower"),
    ("grid.fft_pair_us.n512", "us", "lower"),
    ("grid.fft_pair_us.n128x128", "us", "lower"),
    ("nls.evolve_s", "s", "lower"),
    ("nls.calls", "count", "lower"),
    ("nls.steps", "count", "lower"),
    ("nls.step_us", "us", "lower"),
    ("nls.step_per_fft", "ratio", "lower"),
    ("nls.ffts_per_step", "count", "lower"),
    ("nls.step_bytes_computed", "B", "lower"),
    ("nls.guard_frac", "ratio", "lower"),
    ("nls.self_check_err_rel", "ratio", "lower"),
    ("limit.evolve_s", "s", "lower"),
    ("limit.calls", "count", "lower"),
    ("limit.steps", "count", "lower"),
    ("limit.rhs_evals", "count", "lower"),
    ("limit.rhs_us", "us", "lower"),
    ("limit.ffts_per_rhs", "count", "lower"),
    ("limit.rhs_bytes_computed", "B", "lower"),
    ("limit.cfl_util", "ratio", "higher"),
    ("limit.phase_s", "s", "lower"),
    ("limit.phase_err", "l2", "lower"),
    ("limit.focusing_runs", "count", "lower"),
    ("limit.blowup_steps", "count", "lower"),
    ("limit.stored_mb", "MB", "lower"),
    ("corrector.evolve_s", "s", "lower"),
    ("corrector.steps", "count", "lower"),
    ("corrector.rhs_us", "us", "lower"),
    ("diagnostics.record_s", "s", "lower"),
    ("diagnostics.records", "count", "lower"),
    ("diagnostics.record_us", "us", "lower"),
    ("diagnostics.gronwall_s", "s", "lower"),
    ("diagnostics.density_s", "s", "lower"),
    ("sweep.run_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.rows", "count", "higher"),
    ("sweep.guard_reruns", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts that must repeat exactly across the traced passes of one seed
EXACT_COUNTS = ("grid.fft_calls", "nls.calls", "nls.steps", "limit.calls",
                "limit.steps", "limit.rhs_evals", "limit.focusing_runs",
                "limit.blowup_steps", "corrector.steps", "diagnostics.records",
                "sweep.rows", "sweep.guard_reruns")

SELF_CHECK_FACTOR = 0.05   # the dt-halving guard tolerance, in eps*||u0||
PROBE_SHAPES = {"grid.fft_pair_us.n512": (512,),
                "grid.fft_pair_us.n128x128": (128, 128)}


# ---------------------------------------------------------------------------
# wiring


def install(tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import numpy.fft

    import scnls.cli
    import scnls.corrector
    import scnls.limit
    import scnls.nls
    import scnls.sweep

    def on_nls(span, args, kwargs, traj):
        u0 = np.asarray(args[0] if args else kwargs["u0"])
        norm = math.sqrt(float(np.sum(np.abs(u0) ** 2)) * traj.grid.cell_volume)
        err = traj.self_check_error
        span.attrs.update(points=int(u0.size), shape=list(u0.shape),
                          err_rel=None if err is None
                          else float(err) / (traj.epsilon * max(norm, 1e-300)))

    def on_raw(span, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        obs = np.asarray(args[2] if len(args) > 2 else kwargs["obs_times"])
        _, dt = result
        span.attrs.update(steps=int(round(float(obs[-1] - obs[0]) / dt)),
                          guard=cfg.dt_override is not None)

    def on_limit(span, args, kwargs, traj):
        points = traj.grid.size
        span.attrs.update(
            points=points, dim=traj.grid.dim, steps=len(traj.step_times) - 1,
            cfl_sum=float(np.sum(traj.cfl_numbers)),
            cfl_n=int(np.size(traj.cfl_numbers)),
            stored_bytes=int(traj.v.nbytes + traj.S.nbytes + traj.a.nbytes
                             + traj.times.size * points * 8))

    def on_corrector(span, args, kwargs, traj):
        span.attrs["steps"] = len(traj.times) - 1

    def on_sweep(span, args, kwargs, result):
        span.attrs["rows"] = len(result.rows)

    def on_phase(span, args, kwargs, phi):
        # phase consistency ||grad phi - v|| on every stored node, checked
        # in a span of its own so that it leaves the callers' self time
        traj = args[0] if args else kwargs["traj"]
        with tracer.span("bench.check"):
            span.attrs["phase_err"] = _phase_error(traj, np.asarray(phi))

    for mod in (scnls.cli, scnls.sweep):
        tracer.wrap(mod, "evolve_nls", "nls.evolve", on_nls)
        tracer.wrap(mod, "evolve_limit", "limit.evolve", on_limit)
        tracer.wrap(mod, "evolve_corrector", "corrector.evolve", on_corrector)
    tracer.wrap(scnls.nls, "_evolve_raw", "nls.raw", on_raw)
    tracer.wrap(scnls.limit, "evolve_limit", "limit.evolve", on_limit)
    tracer.wrap(scnls.cli, "focusing_demo", "limit.focusing_demo")
    tracer.wrap(scnls.cli, "run_sweep", "sweep.run", on_sweep)
    tracer.wrap(scnls.sweep, "run_sweep", "sweep.run", on_sweep)
    tracer.wrap(scnls.cli, "parse_config", "config.parse")
    tracer.wrap(scnls, "parse_config", "config.parse")   # the set-up's binding
    tracer.wrap(scnls.sweep, "diagnostics_record", "diagnostics.record")
    tracer.wrap(scnls.sweep, "density_metrics", "diagnostics.density")
    tracer.wrap(scnls.sweep, "gronwall_constant", "diagnostics.gronwall")
    tracer.wrap(scnls.limit, "reconstruct_phase", "limit.phase", on_phase)
    tracer.count(scnls.limit, "_rhs", "limit.rhs")
    tracer.count(scnls.corrector, "_rhs", "corrector.rhs")
    tracer.count_fft(numpy.fft, "fftn")
    tracer.count_fft(numpy.fft, "ifftn")


def _phase_error(traj, phi: np.ndarray) -> float:
    """max over nodes of ||d_j phi + k_j - v_j||_L2 with spectral d_j (1-D
    transforms along one axis, which the FFT counter does not see)."""
    grid = traj.grid
    worst = 0.0
    for j in range(grid.dim):
        n = grid.shape[j]
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx[j])
        xi[n // 2] = 0.0
        shape = [1] * (grid.dim + 1)
        shape[j + 1] = n
        dphi = np.fft.ifft(1j * xi.reshape(shape) * np.fft.fft(phi, axis=j + 1),
                           axis=j + 1).real + traj.phi0_wavevector[j]
        diff = dphi - np.asarray(traj.v)[: phi.shape[0], j]
        axes = tuple(range(1, grid.dim + 1))
        norms = np.sqrt(np.sum(diff**2, axis=axes) * grid.cell_volume)
        worst = max(worst, float(np.max(norms)))
    return worst


# ---------------------------------------------------------------------------
# probes


@functools.lru_cache(maxsize=None)
def fft_pair_us(shape: tuple, seconds: float = 0.15,
                batches: int = 7) -> float:
    """Median time of one fftn+ifftn pair on a complex128 field (the floor
    every spectral step pays), in microseconds."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for _ in range(3):
        np.fft.ifftn(np.fft.fftn(x))
    t0 = time.perf_counter()
    np.fft.ifftn(np.fft.fftn(x))
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(seconds / batches / once))
    per_pair = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.fft.ifftn(np.fft.fftn(x))
        per_pair.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_pair) * 1e6


# ---------------------------------------------------------------------------
# reduction


def reduce(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* are filled by the run,
    which sees both traced and untraced passes)."""
    import scnls.limit

    spans = tracer.spans
    selfs = tracer.self_times()

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(prefix):
        return sum(st for s, st in zip(spans, selfs) if s.name.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["grid.fft_calls"] = tracer.calls["fft"]
    m["grid.fft_s"] = tracer.seconds["fft"]
    for name, shape in PROBE_SHAPES.items():
        m[name] = fft_pair_us(shape)

    nls = [s for s in named("nls.evolve") if s.error is None]
    raw = [s for s in named("nls.raw") if s.error is None]
    steps = sum(s.attrs["steps"] for s in raw)
    guard = sum(s.attrs["steps"] for s in raw if s.attrs["guard"])
    m["nls.evolve_s"] = total("nls.evolve")
    m["nls.calls"] = len(named("nls.evolve"))
    m["nls.steps"] = steps
    m["nls.step_us"] = ratio(m["nls.evolve_s"], steps) * 1e6
    # the floor is the pair probe at the NLS grid's shape (one of the named
    # probes at full size; probed here too, and cached, at other sizes)
    floor = fft_pair_us(tuple(nls[0].attrs["shape"])) if nls else 0.0
    m["nls.step_per_fft"] = ratio(m["nls.step_us"], floor)
    m["nls.ffts_per_step"] = ratio(tracer.fft_by_layer["nls.raw"], steps)
    points = nls[0].attrs["points"] if nls else 0
    m["nls.step_bytes_computed"] = (2 * m["nls.ffts_per_step"] + 2) * 16 * points \
        if steps else 0.0
    m["nls.guard_frac"] = ratio(guard, steps)
    m["nls.self_check_err_rel"] = max(
        [s.attrs["err_rel"] for s in nls if s.attrs["err_rel"] is not None],
        default=0.0)

    lim = [s for s in named("limit.evolve") if s.error is None]
    lsteps = sum(s.attrs["steps"] for s in lim)
    rhs_evals = tracer.calls["limit.rhs"]
    m["limit.evolve_s"] = total("limit.evolve")
    m["limit.calls"] = len(named("limit.evolve"))
    m["limit.steps"] = lsteps
    m["limit.rhs_evals"] = rhs_evals
    m["limit.rhs_us"] = ratio(tracer.seconds["limit.rhs"], rhs_evals) * 1e6
    m["limit.ffts_per_rhs"] = ratio(tracer.fft_by_layer["limit.rhs"], rhs_evals)
    if lim:
        p, dim = lim[0].attrs["points"], lim[0].attrs["dim"]
        # state (v: dim real fields; S, a complex) read, derivative written
        state = (8 * dim + 32) * p
        m["limit.rhs_bytes_computed"] = m["limit.ffts_per_rhs"] * 32 * p + 2 * state
    else:
        m["limit.rhs_bytes_computed"] = 0.0
    m["limit.cfl_util"] = ratio(sum(s.attrs["cfl_sum"] for s in lim),
                                sum(s.attrs["cfl_n"] for s in lim)
                                ) / scnls.limit.CFL_NUMBER
    m["limit.phase_s"] = total("limit.phase")
    m["limit.phase_err"] = max((s.attrs.get("phase_err", 0.0)
                                for s in named("limit.phase")), default=0.0)
    m["limit.focusing_runs"] = sum(
        1 for s in named("limit.evolve") if tracer.under(s, "limit.focusing_demo"))
    m["limit.blowup_steps"] = sum(
        s.attrs["steps"] for s in lim if tracer.under(s, "cli.blowup"))
    m["limit.stored_mb"] = max((s.attrs["stored_bytes"] for s in lim),
                               default=0) / 1e6

    corr = [s for s in named("corrector.evolve") if s.error is None]
    csteps = sum(s.attrs["steps"] for s in corr)
    m["corrector.evolve_s"] = total("corrector.evolve")
    m["corrector.steps"] = csteps
    m["corrector.rhs_us"] = ratio(tracer.seconds["corrector.rhs"],
                                  tracer.calls["corrector.rhs"]) * 1e6

    m["diagnostics.record_s"] = total("diagnostics.record")
    m["diagnostics.records"] = len(named("diagnostics.record"))
    m["diagnostics.record_us"] = ratio(m["diagnostics.record_s"],
                                       m["diagnostics.records"]) * 1e6
    m["diagnostics.gronwall_s"] = total("diagnostics.gronwall")
    m["diagnostics.density_s"] = total("diagnostics.density")

    m["sweep.run_s"] = total("sweep.run")
    m["sweep.self_s"] = self_total("sweep.run")
    m["sweep.rows"] = sum(s.attrs.get("rows", 0) for s in named("sweep.run"))
    m["sweep.guard_reruns"] = sum(
        1 for s in named("nls.evolve")
        if s.error == "NumericalGuardError" and tracer.under(s, "sweep.run"))
    m["cli.self_s"] = self_total("cli.")
    m["config.parse_s"] = total("config.parse")
    return m


def trace_check(m: dict[str, float]) -> str:
    """Bounds the traced figures must keep: the guard's relative error and
    the limit solver's phase consistency.  Returns why they fail, or ''."""
    from workloads import PHASE_ERR_MAX

    why = []
    if m["nls.self_check_err_rel"] > SELF_CHECK_FACTOR:
        why.append(f"nls.self_check_err_rel {m['nls.self_check_err_rel']:.3e} "
                   f"> {SELF_CHECK_FACTOR}")
    if not m["limit.phase_err"] < PHASE_ERR_MAX:
        why.append(f"limit.phase_err {m['limit.phase_err']:.3e} >= {PHASE_ERR_MAX}")
    return "; ".join(why)
