"""Hydrodynamic limit system solved through vacuum-safe unknowns.

The eikonal/transport pair for (phi, a),

    d_t phi + |grad phi|^2/2 + s*|a|^(2*sigma) = 0,
    d_t a   + grad phi . grad a + (1/2) a Lap phi = 0,

is integrated as a first-order system in the unknowns v = grad phi and
S = a^sigma, together with the linear transport of a itself and the phase:

    d_t v + (v.grad) v + s * grad(|S|^2) = 0,
    d_t S + v.grad S + (sigma/2) S div v  = 0,
    d_t a + v.grad a + (1/2)  a  div v    = 0,
    d_t phi + |v|^2/2 + s*|S|^2           = 0.

The (v, S) form stays hyperbolic with a constant symmetrizer through vacuum
(zeros of a), which is what makes sigma >= 2 tractable; S and a^sigma obey
the same linear equation so S = a^sigma propagates.  s = +1 is the defocusing
(well-posed) sign; s = -1 gives the ill-posed elliptic analogue used by the
frequency-growth demo.

The phase is integrated with the flow, not reconstructed afterwards.  For
curl-free v, (v.grad) v = grad(|v|^2/2), and the 2/3 projection P commutes
with grad, so every RK4 stage has d_t v = grad(d_t phi) to roundoff; RK4 is
linear in its stages, so grad phi - v keeps its initial value whatever the
step.  Given the corrector's initial amplitude a1, the run carries the
first-order corrector pair (phi1, w) of scnls.corrector as two more RK4
components, whose right-hand side reuses the div v and grad a of the same
stage.  Spatial derivatives are spectral; quadratic and cubic products are
2/3-dealiased; time stepping is classical RK4 at the CFL step, with an
optional per-step CFL-adapted step for breakdown hunting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import corrector
from .errors import ConfigError, NumericalGuardError
from .grid import Grid, node_index
from .presets import InitialData

CFL_NUMBER = 0.5
# memory budget for the stored nodes of one trajectory, checked before the run
MAX_STORED_BYTES = 2**31
# adaptive runs stop once the step falls below DT_FLOOR_FACTOR * dt
DT_FLOOR_FACTOR = 1e-6


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True)
class LimitState:
    """One snapshot of the limit flow."""

    grid: Grid
    time: float
    v: np.ndarray           # (dim, *shape), real
    S: np.ndarray           # a^sigma, complex
    a: np.ndarray           # complex
    phi_periodic: np.ndarray
    phi_wavevector: tuple[float, ...]
    phi1: np.ndarray | None = None  # corrector pair, if the run carried it
    w: np.ndarray | None = None

    @property
    def rho(self) -> np.ndarray:
        return np.abs(self.a) ** 2

    def phi_total(self) -> np.ndarray:
        """Phase samples including the linear (non-periodic) part."""
        k = np.reshape(self.phi_wavevector, (-1,) + (1,) * self.grid.dim)
        return self.phi_periodic + np.sum(k * self.grid.coords, axis=0)


@dataclass
class LimitTrajectory:
    grid: Grid
    sigma: int
    pressure_sign: int
    times: np.ndarray                 # times of stored field snapshots
    v: np.ndarray                     # (nt, dim, *shape); shape = (*batch, *grid.shape)
    S: np.ndarray                     # (nt, *shape)
    a: np.ndarray                     # (nt, *shape)
    phi: np.ndarray                   # (nt, *shape), periodic phase part
    phi0_wavevector: tuple[float, ...]
    dt: float | None                  # uniform step, None if adapted
    status: str                       # completed|cfl|nonfinite|dt_floor|grad_stop|max_steps
    step_times: np.ndarray            # every accepted step
    grad_v_max: np.ndarray            # max |d_i v_j| per step
    div_v_max: np.ndarray             # max |div v| per step
    grad_div_v_max: np.ndarray        # max |d_i div v| per step
    total_pressure: np.ndarray        # int rho^(sigma+1) per step, max over a batch
    cfl_numbers: np.ndarray
    phi1: np.ndarray | None           # (nt, *shape) corrector phase, if carried
    w: np.ndarray | None              # (nt, *shape) corrector amplitude

    @property
    def phi_periodic(self) -> np.ndarray:
        return reconstruct_phase(self)

    def index_at(self, t: float) -> int:
        return node_index(self.times, t)

    def state(self, i: int) -> LimitState:
        return LimitState(
            grid=self.grid, time=float(self.times[i]), v=self.v[i],
            S=self.S[i], a=self.a[i],
            phi_periodic=self.phi_periodic[i],
            phi_wavevector=self.phi0_wavevector,
            phi1=None if self.phi1 is None else self.phi1[i],
            w=None if self.w is None else self.w[i],
        )

    def state_at(self, t: float) -> LimitState:
        return self.state(self.index_at(t))


# ---------------------------------------------------------------------------
# right-hand side


def _rhs(v, S, a, phi, grid: Grid, sigma: int, psign: int, mask: np.ndarray):
    grad_v = grid.gradient(v).real  # grad_v[j, i] = d_j v_i
    div_v = np.trace(grad_v)
    grad_S = grid.gradient(S)
    grad_a = grid.gradient(a)
    p = np.abs(S) ** 2
    grad_p = grid.gradient(p).real

    adv_v = np.sum(v[:, None] * grad_v, axis=0)
    dv = grid.dealias(-(adv_v + psign * grad_p), mask).real
    adv_S = np.sum(v * grad_S, axis=0)
    dS = grid.dealias(-(adv_S + 0.5 * sigma * S * div_v), mask)
    adv_a = np.sum(v * grad_a, axis=0)
    da = grid.dealias(-(adv_a + 0.5 * a * div_v), mask)
    dphi = grid.dealias(-(0.5 * np.sum(v**2, axis=0) + psign * p), mask).real
    return (dv, dS, da, dphi), div_v, grad_a


def rk4_step(rhs, y: tuple, dt: float) -> tuple:
    """One classical RK4 step for a tuple of fields.  ``rhs(y, c)`` returns
    the tuple of time derivatives at stage time t + c*dt, c in {0, 1/2, 1}."""
    h = 0.5 * dt
    k1 = rhs(y, 0.0)
    k2 = rhs(tuple(yi + h * ki for yi, ki in zip(y, k1)), 0.5)
    k3 = rhs(tuple(yi + h * ki for yi, ki in zip(y, k2)), 0.5)
    k4 = rhs(tuple(yi + dt * ki for yi, ki in zip(y, k3)), 1.0)
    w = dt / 6.0
    return tuple(yi + w * (a + 2 * b + 2 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def _wave_speed(v, S, sigma: int) -> float:
    # pressure scale p(rho) = rho^(sigma+1): dP/drho = (sigma+1) rho^sigma
    return float(np.max(np.abs(v))) + math.sqrt(
        (sigma + 1) * float(np.max(np.abs(S) ** 2))
    )


def _v_scalars(v, grid: Grid) -> tuple[float, float, float]:
    """(max |d_j v_i|, max |div v|, max |d_j div v|) via spectral
    derivatives."""
    grad_v = grid.gradient(v).real
    div_v = np.trace(grad_v)
    return (float(np.max(np.abs(grad_v))), float(np.max(np.abs(div_v))),
            float(np.max(np.abs(grid.gradient(div_v).real))))


def characteristic_gradient_scale(grid: Grid, v: np.ndarray, S: np.ndarray,
                                  sigma: int) -> float:
    """max |grad v| + sqrt(sigma+1)*max |grad |S||: the slope scale of the
    characteristic speeds v +- sqrt((sigma+1) rho^sigma) of the data.  Used
    as the breakdown-detector baseline; data at rest (v = 0) still carries a
    meaningful scale through the sound-speed gradient."""
    gv = float(np.max(np.abs(grid.gradient(v).real)))
    gc = float(np.max(np.abs(grid.gradient(np.abs(S)).real)))
    return gv + math.sqrt(sigma + 1) * gc


# ---------------------------------------------------------------------------
# integrator


def evolve_limit(
    init: InitialData,
    sigma: int,
    final_time: float,
    dt: float | None = None,
    n_obs: int | None = None,
    pressure_sign: int = 1,
    adaptive: bool = False,
    strict: bool = True,
    store_every: int = 1,
    spectral_cutoff: int | None = None,
    grad_stop: float | None = None,
    max_steps: int = 2_000_000,
    a1: np.ndarray | None = None,
) -> LimitTrajectory:
    """Integrate the limit system up to final_time (or until breakdown).

    With dt=None the step is the initial CFL step
    dt <= CFL*dx/(max|v| + sqrt((sigma+1)*max rho^sigma)); the phase is
    integrated with the flow, so the step needs no further margin.  When
    n_obs is given (fixed-step runs) the step is cut to a whole number of
    steps per each of the n_obs-1 uniform observation intervals, and only
    the n_obs observation times are stored (store_every is then that
    number); without it every store_every-th step is.  The per-step scalars
    (grad_v_max, ...) cover every step either way.  Given a1, the run also
    carries the corrector pair (phi1, w) from (0, a1): the trajectory
    stores it as its phi1 and w, and its states carry it (None without a1).
    Fields of init and a1 of shape (*batch, *grid.shape) are independent
    runs integrated as one, stored with their batch axes.  The members share
    the step, the status and the per-step scalars (each a max over the
    members): one member breaking the CFL bound or going non-finite stops
    them all.
    adaptive=True re-derives dt from the pure CFL rule every step and is
    meant for breakdown hunting; the trajectory then truncates instead of
    raising when dt collapses or fields stop being finite (strict=False).
    A fixed-step run takes a step count set before it starts
    (ceil(final_time/dt), or the steps per observation interval times
    n_obs-1); step n ends at n*dt and the last one at final_time exactly.
    An adaptive run stops when its summed steps reach final_time.  A run
    that reaches max_steps first ends with status "max_steps", which raises
    like every other early stop when strict.
    Initial data without a finite wave speed, and a run whose stored nodes
    (of every batch member) would exceed MAX_STORED_BYTES, raise ConfigError
    before the run starts.
    """
    if sigma < 1:
        raise ConfigError("physics.sigma", f"sigma must be >= 1, got {sigma}")
    grid = init.grid
    mask = grid.dealias_mask
    if spectral_cutoff is not None:
        mask = mask & grid.mode_mask(spectral_cutoff)
    a0, phi0 = np.broadcast_arrays(np.asarray(init.a0, dtype=complex),
                                   np.asarray(init.phi0_periodic, dtype=float))
    if a1 is not None:
        a1 = np.asarray(a1, dtype=complex)
        if a1.shape != a0.shape:
            raise ConfigError("initial.a1", "a1 shape does not match a0")

    wavevector = np.reshape(init.phi0_wavevector, (grid.dim,) + (1,) * a0.ndim)
    v0 = grid.gradient(phi0).real + wavevector
    v = grid.dealias(v0, mask).real
    S = grid.dealias(a0**sigma, mask)
    a = grid.dealias(a0, mask)

    dx_min = min(grid.dx)
    speed0 = _wave_speed(v, S, sigma)
    dt_cfl0 = CFL_NUMBER * dx_min / max(speed0, 1e-12)
    if not (math.isfinite(speed0) and dt_cfl0 > 0):
        raise ConfigError("initial.a0", f"the initial wave speed {speed0:g} "
                          "gives no positive CFL step")
    if n_obs is not None and n_obs >= 2:
        delta = final_time / (n_obs - 1)
        store_every = max(1, math.ceil(delta / (dt or dt_cfl0) - 1e-9))
        dt = delta / store_every
        n_steps = store_every * (n_obs - 1)
    elif dt is None:
        n_steps = max(1, math.ceil(final_time / dt_cfl0))
        dt = final_time / n_steps
    else:
        n_steps = max(1, math.ceil(final_time / dt - 1e-9))
    dt = float(dt)
    dt_floor = dt * DT_FLOOR_FACTOR
    # v, S, a, phi (and phi1, w) per node; an adaptive step only shrinks, so
    # this is a lower bound there, capped by max_steps
    nodes = 1 + math.ceil(min(n_steps, max_steps) / store_every)
    per_point = 8 * grid.dim + 40 + (24 if a1 is not None else 0)
    stored = nodes * a.size * per_point
    if stored > MAX_STORED_BYTES:
        raise ConfigError("grid.N", f"{nodes} stored nodes need {stored} "
                          f"bytes, over the budget of {MAX_STORED_BYTES}")

    y = (v, S, a, phi0)
    if a1 is not None:
        y += (np.zeros(a.shape), a1)
    # the stored nodes, one block per field written in place (no copy of
    # every node at the end): the node count is exact for fixed steps, and
    # the blocks double when an adaptive run outgrows it
    fields = [np.empty((nodes, *yi.shape), yi.dtype) for yi in y]
    times = []

    def store(t_now, y_now):
        nonlocal fields
        if len(times) == len(fields[0]):
            fields = [np.concatenate([f, f]) for f in fields]
        for f, yi in zip(fields, y_now):
            f[len(times)] = yi
        times.append(t_now)

    store(0.0, y)
    step_times = [0.0]
    grad_hist, div_hist, grad_div_hist = [], [], []
    press_hist, cfl_hist = [], []

    def record_scalars(v_now, a_now, step_dt, speed):
        gmax, dmax, gdmax = _v_scalars(v_now, grid)
        grad_hist.append(gmax)
        div_hist.append(dmax)
        grad_div_hist.append(gdmax)
        rho = np.abs(a_now) ** 2
        press_hist.append(float(np.max(grid.integral(rho ** (sigma + 1)).real)))
        cfl_hist.append(step_dt * speed / dx_min)

    record_scalars(v, a, dt, speed0)

    def rhs(y, c):
        # both right-hand sides are looked up as module attributes at every
        # stage, so a wrapper installed on either one sees every call
        dy, div_v, grad_a = _rhs(*y[:4], grid, sigma, pressure_sign, mask)
        if len(y) == 4:
            return dy
        return dy + corrector._rhs(*y[4:], y[0], y[2], div_v, grad_a,
                                   grid, sigma)

    def unfinished() -> bool:
        return t < final_time - 1e-12 if adaptive else n < n_steps

    status = "completed"
    t = 0.0
    n = 0
    while n < max_steps and unfinished():
        speed = _wave_speed(y[0], y[1], sigma)
        if adaptive:
            step_dt = min(CFL_NUMBER * dx_min / max(speed, 1e-12), dt,
                          final_time - t)
            if step_dt < dt_floor:
                status = "dt_floor"
                break
        else:
            step_dt = min(dt, final_time - t)
            if step_dt * speed / dx_min > 2.0 * CFL_NUMBER:
                status = "cfl"
                break

        y = rk4_step(rhs, y, step_dt)
        n += 1
        # a fixed step ends at n*dt, the last one at final_time exactly
        t = t + step_dt if adaptive else (n * dt if n < n_steps else final_time)

        if not all(np.all(np.isfinite(yi)) for yi in y):
            status = "nonfinite"
            break

        step_times.append(t)
        record_scalars(y[0], y[2], step_dt, speed)
        if n % store_every == 0 or not unfinished():
            store(t, y)
        if grad_stop is not None and grad_hist[-1] > grad_stop:
            status = "grad_stop"
            break
    if status == "completed" and unfinished():
        status = "max_steps"

    if status != "completed" and strict:
        raise NumericalGuardError(
            f"limit solver stopped at t={t:.6g} with status {status!r}"
        )

    def pack(seq) -> np.ndarray:
        out = np.asarray(seq)
        out.setflags(write=False)  # trajectories are shared read-only
        return out

    v, S, a, phi, *corr = (pack(f[:len(times)]) for f in fields)
    phi1, w = corr if corr else (None, None)
    return LimitTrajectory(
        grid=grid, sigma=sigma, pressure_sign=pressure_sign,
        times=pack(times), v=v, S=S, a=a, phi=phi,
        phi0_wavevector=tuple(init.phi0_wavevector),
        dt=None if adaptive else dt, status=status,
        step_times=pack(step_times),
        grad_v_max=pack(grad_hist),
        div_v_max=pack(div_hist),
        grad_div_v_max=pack(grad_div_hist),
        total_pressure=pack(press_hist),
        cfl_numbers=pack(cfl_hist),
        phi1=phi1, w=w,
    )


def power_consistency(traj: LimitTrajectory, banded: bool = True) -> float:
    """max over stored nodes of ||S - a^sigma||_inf.

    With banded=True the pointwise power a^sigma is projected onto the 2/3
    band first: the evolved S lives there by construction, while a^sigma
    grows out-of-band tails as the solution steepens, so the raw comparison
    measures spectral truncation rather than transport consistency.
    """
    power = traj.a ** traj.sigma
    if banded:
        power = traj.grid.dealias(power)  # the nodes are a batch
    return float(np.max(np.abs(traj.S - power)))


def reconstruct_phase(traj: LimitTrajectory) -> np.ndarray:
    """Periodic phase parts on the stored nodes, integrated with the flow;
    the linear part of phi0 is carried separately and is constant in time.
    Consistency check: grad phi(t) = v(t)."""
    return traj.phi


# ---------------------------------------------------------------------------
# conserved functionals


@dataclass(frozen=True)
class EulerInvariants:
    time: float
    mass: float
    energy: float
    momentum: np.ndarray
    pseudo_conformal: float
    center_of_mass: np.ndarray
    total_pressure: float
    boundary_tail: float
    support_ok: bool = field(default=True)


def euler_invariants(state: LimitState, sigma: int,
                     tail_threshold: float = 1e-10) -> EulerInvariants:
    """Mass, energy, momentum, pseudo-conformal quantity, mass center,
    total pressure of a limit snapshot (defocusing sign conventions)."""
    grid = state.grid
    rho = state.rho
    t = state.time
    v = state.v
    v2 = np.sum(v**2, axis=0)
    p_int = float(grid.integral(rho ** (sigma + 1)).real)
    mass = float(grid.integral(rho).real)
    energy = float(grid.integral(0.5 * rho * v2).real) + p_int / (sigma + 1)
    momentum = grid.integral(rho * v).real
    shifted = grid.coords - t * v
    pc = (0.5 * float(grid.integral(np.sum(shifted**2, axis=0) * rho).real)
          + t**2 / (sigma + 1) * p_int)
    center = grid.integral(shifted * rho).real
    tail = grid.boundary_tail_fraction(state.a)
    return EulerInvariants(
        time=t, mass=mass, energy=energy, momentum=momentum,
        pseudo_conformal=pc, center_of_mass=center, total_pressure=p_int,
        boundary_tail=tail, support_ok=tail < tail_threshold,
    )


# ---------------------------------------------------------------------------
# breakdown monitor


@dataclass(frozen=True)
class BlowupReport:
    breakdown_flag: bool
    t_estimate: float | None
    t_uncertainty: float
    threshold: float
    baseline: float
    status: str
    times: np.ndarray
    max_grad_v_history: np.ndarray
    pressure_history: np.ndarray
    pressure_envelope: np.ndarray
    envelope_ok: bool


def blowup_monitor(traj: LimitTrajectory, factor: float = 10.0,
                   baseline_floor: float = 1e-8) -> BlowupReport:
    """Flag gradient blow-up along a trajectory.

    Breakdown is declared when max|grad v| exceeds ``factor`` times a
    baseline built from the data's own characteristic-speed gradient scale
    (so data starting at rest is judged against its sound-speed slope, and a
    constant state never fires), or when the run itself stopped on
    non-finite values / a collapsed adaptive step.  The threshold is a
    heuristic; reported times carry a +-2*spacing uncertainty band.  The
    total-pressure history is compared (in log space, while resolved) with
    its transport envelope P(0)*exp(sigma*int max|div v|).
    """
    g = traj.grad_v_max
    ts = traj.step_times
    scale0 = characteristic_gradient_scale(
        traj.grid, traj.v[0], traj.S[0], traj.sigma)
    baseline = max(float(g[0]), scale0, baseline_floor)
    threshold = factor * baseline

    t_est = None
    crossing = np.nonzero(g > threshold)[0]
    if crossing.size:
        i = int(crossing[0])
        t_est = float(ts[i])
    elif traj.status in ("nonfinite", "dt_floor", "cfl", "grad_stop",
                         "max_steps"):
        t_est = float(ts[-1])

    spacing = float(np.max(np.diff(ts))) if ts.size > 1 else 0.0

    # transport envelope for the total pressure, valid while resolved
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (traj.div_v_max[1:] + traj.div_v_max[:-1]) * np.diff(ts))])
    log_env = math.log(max(traj.total_pressure[0], 1e-300)) + traj.sigma * cum
    envelope = np.exp(np.minimum(log_env, 700.0))
    resolved = ts <= (t_est if t_est is not None else ts[-1])
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(traj.total_pressure, 1e-300))
    envelope_ok = bool(np.all(log_p[resolved] <= log_env[resolved] + 1e-9))

    return BlowupReport(
        breakdown_flag=t_est is not None,
        t_estimate=t_est,
        t_uncertainty=2.0 * spacing,
        threshold=threshold,
        baseline=baseline,
        status=traj.status,
        times=ts,
        max_grad_v_history=g,
        pressure_history=traj.total_pressure,
        pressure_envelope=envelope,
        envelope_ok=envelope_ok,
    )


# ---------------------------------------------------------------------------
# frequency-growth demo (ill-posed sign)


@dataclass(frozen=True)
class GrowthRow:
    mode: int
    xi: float
    rate: float
    max_growth: float
    w0: float


def focusing_demo(
    init: InitialData,
    perturbation_wavenumbers: list[int],
    sigma: int,
    pressure_sign: int = -1,
    delta: float = 1e-7,
    window: float = 0.35,
    dt: float = 2e-3,
    spectral_cutoff: int | None = None,
) -> list[GrowthRow]:
    """Short-time growth rates of sinusoidal perturbations per wavenumber.

    The background from ``init`` must be a constant amplitude with zero
    phase (else ConfigError with key initial.a0).  Such a state at rest is
    a fixed point of the flow for either pressure sign, so it is not
    integrated: rho_bg = |a0|^2 and v_bg = 0.  For each integer mode k a run
    with a0 + delta*cos(2*pi*k*x/L) is compared against it.  The
    perturbation size is the symmetrized wave energy

        W^2 = int ( sigma*rho0^(sigma-1) * drho^2 + rho0 * |dv|^2 ) dx,

    conserved by the linearized defocusing flow, exponentially growing in the
    ill-posed sign.  The run stores W's inputs at about 36 nodes over the
    window (every round(window/dt/35)-th step), and the rate is the
    log-linear slope of W over the second half of them.  A spectral cutoff
    (default 1.5x the largest mode) suppresses roundoff-seeded growth above
    the probed band.  The runs are one batched evolve_limit call, so they
    share the fixed step dt and the cutoff, and a member that breaks the CFL
    bound or stops being finite truncates every run at the same time.
    """
    grid = init.grid
    a0 = np.asarray(init.a0)
    if (np.any(a0 != a0.flat[0]) or np.any(init.phi0_periodic != 0)
            or any(init.phi0_wavevector)):
        raise ConfigError("initial.a0", "the focusing-demo background must "
                          "be a constant amplitude with zero phase")
    ks = [int(k) for k in perturbation_wavenumbers]
    if not ks:
        return []
    if spectral_cutoff is None:
        spectral_cutoff = max(int(1.5 * max(ks)) + 2, max(ks) + 8)
    store = max(1, int(round((window / dt) / 35)))
    rho_bg = np.abs(a0) ** 2
    rho0 = float(np.mean(rho_bg))

    xi = 2.0 * np.pi * np.array(ks) / grid.lengths[0]
    pert = delta * np.cos(xi.reshape((-1,) + (1,) * grid.dim) * grid.coords[0])
    traj = evolve_limit(
        replace(init, a0=a0 + pert), sigma, window, dt=dt,
        pressure_sign=pressure_sign, strict=False, store_every=store,
        spectral_cutoff=spectral_cutoff,
    )
    # W per (node, member), one node at a time; v_bg = 0
    w = np.array([np.sqrt(np.maximum(
        sigma * rho0 ** (sigma - 1) * grid.integral((np.abs(a) ** 2 - rho_bg) ** 2).real
        + rho0 * grid.integral(np.sum(v**2, axis=0)).real, 0.0))
        for a, v in zip(traj.a, traj.v)])
    half = traj.times.size // 2
    rows = []
    for k, xi_k, w_k in zip(ks, xi, w.T):
        w0 = w_k[0]
        if w0 == 0.0 or np.all(w_k <= 0):
            rows.append(GrowthRow(mode=k, xi=float(xi_k), rate=0.0,
                                  max_growth=0.0, w0=0.0))
            continue
        tt = traj.times[half:]
        ww = np.log(np.maximum(w_k[half:], 1e-300))
        slope = float(np.polyfit(tt, ww, 1)[0]) if tt.size >= 2 else 0.0
        rows.append(GrowthRow(
            mode=k, xi=float(xi_k), rate=slope,
            max_growth=float(np.max(w_k) / w0), w0=float(w0),
        ))
    return rows
