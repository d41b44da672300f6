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
components.

The RK4 state is two stacked spectral arrays: R, the rfftn half spectra of
the real v_1..v_dim, phi (and phi1), and C, the full spectra of the complex
S, a (and w); v, S and a start inside the band (the 2/3 rule, narrowed by
spectral_cutoff where one is given), phi0 and a1 as given, and every
derivative is projected.  A stage makes every field and derivative it needs
on the grid with one batched inverse transform per kind (real or complex),
forms the products there (scnls.corrector._rhs those of the pair), and takes
them back with one batched forward transform per kind; derivatives, grad p,
the corrector's (i/2) Lap a source and the band projections are multipliers
on the spectra.  Each step ends with one grid pass of its state, whose two
inverse transforms also make grad div v, phi (and phi1): the CFL speed,
scalars, finiteness check and stored node read it, and the next step's
stage 1 forms its products from it and drops it before its forward
transforms.  Node 0 holds phi0 (and phi1 = 0, w = a1) as given.  Time
stepping is classical RK4 at the CFL step, with an optional per-step
CFL-adapted step at ADAPTIVE_CFL for the instability demos; the
observation times do not set the step.  A node inside a step is the
step's dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6), the
cubic Hermite interpolant of its end states and their derivatives (stage
1 of this step and the next): linear in stage derivatives, so grad phi = v
holds on it to roundoff, and O(dt^4) accurate, RK4's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import corrector
from .errors import ConfigError, NumericalGuardError, rekeyed
from .grid import (SUPPORT_TAIL_THRESHOLD, Grid, check_stored_bytes,
                   observation_steps)
from .presets import InitialData

CFL_NUMBER = 0.5
# the adaptive runs' CFL number (cfl_step): their step is set for accuracy,
# not for CFL_NUMBER's margin, and stays inside RK4's stability limit
ADAPTIVE_CFL = 1.0
# adaptive runs stop (dt_floor) once their CFL step is below this x the first
DT_FLOOR_FACTOR = 0.1
# breakdown once max|grad v| > BREAKDOWN_FACTOR * the data's gradient scale
BREAKDOWN_FACTOR = 10.0
BASELINE_FLOOR = 1e-8  # the least gradient scale


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True)
class LimitState:
    """One snapshot of the limit flow, or a stack of them on leading axes."""

    grid: Grid
    time: float | np.ndarray
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
    times: np.ndarray                 # times of stored field snapshots
    v: np.ndarray                     # (nt, dim, *shape); shape = (*batch, *grid.shape)
    S: np.ndarray                     # (nt, *shape)
    a: np.ndarray                     # (nt, *shape)
    phi: np.ndarray                   # (nt, *shape), periodic phase part
    phi0_wavevector: tuple[float, ...]
    dt: float | None                  # uniform step, None if adapted
    status: str                       # completed, or an adaptive stop: nonfinite|dt_floor|grad_stop
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

    def state(self, i: int | slice) -> LimitState:
        """Node i, or a slice's nodes stacked, v as (dim, nodes, *shape)."""
        stack = isinstance(i, slice)
        return LimitState(
            grid=self.grid, time=self.times[i] if stack else float(self.times[i]),
            v=np.moveaxis(self.v[i], 0, 1) if stack else self.v[i],
            S=self.S[i], a=self.a[i],
            phi_periodic=self.phi_periodic[i],
            phi_wavevector=self.phi0_wavevector,
            phi1=None if self.phi1 is None else self.phi1[i],
            w=None if self.w is None else self.w[i],
        )


# ---------------------------------------------------------------------------
# right-hand side


def _rhs(y, grid: Grid, sigma: int, psign: int, mask: np.ndarray,
         grid_pass: list | None = None) -> tuple:
    """Time derivatives (dR, dC) of the spectral state y = (R, C) at one RK4
    stage; the step's grid pass of y spares stage 1 its inverse transforms."""
    d = grid.dim
    # the stage's fields on the grid die with _products, so the forward
    # transforms run without them (the peak memory of a 2-D stage)
    real, cplx, source_h = _products(y, grid, sigma, psign, grid_pass)
    # one forward transform per kind; grad p, the projections and the signs
    # are multipliers
    real_h = grid.rfft(real)
    cplx_h = grid.fft(cplx)
    real_h[:d] += grid.spectral_gradient(real_h[-1])
    dR, dC = grid.project(real_h[:-1], mask), grid.project(cplx_h, mask)
    # the limit rows are -P f, negated after P (signed zeros included)
    np.negative(dR[:d + 1], out=dR[:d + 1])
    np.negative(dC[:2], out=dC[:2])
    if source_h is not None:  # the corrector pair's rows, on the 2/3 band
        band = grid.dealias_mask
        dR[-1] = grid.project(real_h[-2], band)
        dC[2] = grid.project(cplx_h[2] + source_h, band)
    return dR, dC


def _products(y, grid: Grid, sigma: int, psign: int, grid_pass: list | None):
    """The products of a stage's right-hand sides on its fields (the step's
    grid pass, emptied so that they die here, or else _grid_fields of y),
    stacked per kind: the real (v.grad) v, |v|^2/2 + s*p (and the phi1
    part), s*p and the complex S and a parts (and the w part); with the
    corrector's spectral source, or None without the pair."""
    d = grid.dim
    real, cplx = grid_pass or _grid_fields(y, grid)
    if grid_pass:
        grid_pass.clear()
    v, grad_v = real[:d], real[d:d + d * d].reshape(d, d, *real.shape[1:])
    Sa, grad_Sa = cplx[0, :2], cplx[1:, :2]

    div_v = grad_v.trace()  # grad_v[j, i] = d_j v_i
    sp = psign * np.abs(Sa[0]) ** 2
    real_terms = [(v[:, None] * grad_v).sum(0),   # (v.grad) v
                  (0.5 * (v**2).sum(0) + sp)[None]]
    # v.grad S + (sigma/2) S div v and v.grad a + (1/2) a div v
    rates = np.array([0.5 * sigma, 0.5]).reshape((2,) + (1,) * (Sa.ndim - 1))
    cplx_terms = (v[:, None] * grad_Sa).sum(0) + div_v * (rates * Sa)
    source_h = None
    if len(cplx[0]) > 2:  # the corrector pair rides along
        n = d + d * d  # its rows grad phi1, Lap phi1
        dphi1, dw, source_h = corrector._rhs(
            real[n:n + d], real[n + d], cplx[0, 2], cplx[1:, 2],
            v, Sa[1], div_v, grad_Sa[:, 1], y[1][1], grid, sigma)
        real_terms.append(dphi1[None])
        cplx_terms = np.concatenate([cplx_terms, dw[None]])
    return np.concatenate([*real_terms, sp[None]]), cplx_terms, source_h


def _grid_fields(y, grid: Grid, step: bool = False) -> list:
    """[real, cplx], the fields of the state y = (R, C) that a stage needs,
    one inverse transform per kind: S, a (and w) with their gradients, and
    the rows v, grad v (row d_j v_i at dim*j + i) (and grad phi1, Lap phi1),
    then, in the step's grid pass (step=True), grad div v, phi (and phi1)."""
    R, C = y
    d = grid.dim
    # complex first, and no spectral input outlives its call (2-D peak memory)
    cplx = grid.ifft(grid.spectral_jet(C))
    jet = grid.spectral_jet(R[:d])  # [v, d_1 v, ..., d_dim v]
    rows = [jet.reshape(-1, *R.shape[1:])]
    if len(R) > d + 1:
        rows += [grid.spectral_gradient(R[-1]), grid.spectral_laplacian(R[-1:])]
    if step:
        rows += [grid.spectral_gradient(np.trace(jet[1:])), R[d:]]
    real = np.concatenate(rows)
    del rows, jet
    return [grid.irfft(real), cplx]


def rk4_step(rhs, y: tuple, dt: float, k1: tuple | None = None) -> tuple:
    """One classical RK4 step for a tuple of fields.  ``rhs(y, c)`` returns
    the tuple of time derivatives at stage time t + c*dt, c in {0, 1/2, 1};
    k1, if given, is the caller's rhs(y, 0.0)."""
    h = 0.5 * dt
    k1 = rhs(y, 0.0) if k1 is None else k1
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


def cfl_step(grid: Grid, speed: float, adaptive: bool = False) -> float:
    """The CFL step at the wave speed max|v| + c_s: CFL_NUMBER*min(dx)/speed,
    or ADAPTIVE_CFL/dim*min(dx)/speed for an adaptive run.  On the 2/3 band
    |k_i| <= (2*pi/3)/dx_i, so the symbol |v.k| + c_s|k| is at most
    dim*speed*(2*pi/3)/min(dx), and the adaptive step times it at most
    ADAPTIVE_CFL*2*pi/3 = 2.09 in any dimension: inside RK4's imaginary-axis
    limit 2*sqrt(2), which a 1-D CFL number of 3*sqrt(2)/pi = 1.35 reaches."""
    cfl = ADAPTIVE_CFL / grid.dim if adaptive else CFL_NUMBER
    return cfl * min(grid.dx) / max(speed, 1e-12)


def characteristic_gradient_scale(grid: Grid, v: np.ndarray, S: np.ndarray,
                                  sigma: int) -> float:
    """max |grad v| + sqrt(sigma+1)*max |grad |S||: the slope scale of the
    characteristic speeds v +- sqrt((sigma+1) rho^sigma) of the data.  Used
    as the breakdown-detector baseline; data at rest (v = 0) still carries a
    meaningful scale through the sound-speed gradient."""
    gv = float(np.max(np.abs(grid.gradient(v).real)))
    gc = float(np.max(np.abs(grid.gradient(np.abs(S)).real)))
    return gv + math.sqrt(sigma + 1) * gc


def breakdown_threshold(grid: Grid, v: np.ndarray, S: np.ndarray,
                        sigma: int) -> float:
    """The max |grad v| above which blowup_monitor declares breakdown: the
    data's gradient scale (at least BASELINE_FLOOR) x BREAKDOWN_FACTOR."""
    return BREAKDOWN_FACTOR * max(
        characteristic_gradient_scale(grid, v, S, sigma), BASELINE_FLOOR)


# ---------------------------------------------------------------------------
# integrator


def evolve_limit(
    init: InitialData,
    sigma: int,
    final_time: float,
    dt: float | None = None,
    n_obs: int = 2,
    pressure_sign: int = 1,
    adaptive: bool = False,
    spectral_cutoff: int | None = None,
    grad_stop: float | None = None,
    a1: np.ndarray | None = None,
) -> LimitTrajectory:
    """Integrate the limit system up to final_time (or until breakdown).

    One step rule (grid.observation_steps with n_obs = 2): ceil(final_time/dt)
    equal steps over the whole horizon, dt the given step or else the
    initial cfl_step: CFL_NUMBER*min(dx)/speed, speed = max|v| +
    sqrt((sigma+1)*max rho^sigma) (the phase is integrated with the flow,
    so the step needs no further margin), or ADAPTIVE_CFL/dim*min(dx)/speed
    with adaptive=True.  A dt that is not positive and finite, or more than
    grid.MAX_STEPS of these steps, raises ConfigError (time.T) before the
    first step, in fixed and adaptive runs alike.  A fixed-step run takes
    these steps, the last ending on final_time exactly; adaptive=True, for
    the instability demos, re-derives its cfl_step every step, capped at
    the first one and at the time left: set for accuracy, it stays inside
    RK4's stability limit in any dimension (cfl_step).  Neither depends on
    n_obs.  One node rule: node i is the state at np.linspace(0,
    final_time, n_obs)[i], the time of snapshot i of evolve_nls: on a
    step's end that step's state, inside a step the cubic Hermite
    interpolant of the spectral states and derivatives at its ends (the
    end derivative is the next step's first RK4 stage, or one more
    right-hand side after the last step).  A completed run stores exactly
    n_obs nodes (default 2: the start and the end), a stopped one those up
    to its last step.  The per-step scalars (grad_v_max, ...) cover every
    step; they, the finiteness check and the nodes on step ends come from
    one grid pass of the step's state, which then feeds the next step's
    first RK4 stage.  Given a1, the run also carries the corrector pair
    (phi1, w) from (0, a1): the trajectory stores it as its phi1 and w, and
    its states carry it (None without a1).  Fields of init and a1 of shape
    (*batch, *grid.shape) are independent runs integrated as one, stored
    with their batch axes.  The members share the step, the
    status and the per-step scalars (each a max over the members): one
    member breaking the CFL bound or going non-finite stops them all.  A
    fixed-step run is expected to complete, so its stop raises
    NumericalGuardError: status "cfl" once its CFL number passes
    2*CFL_NUMBER, "nonfinite" or "grad_stop" (max|grad v| over grad_stop).
    An adaptive run returns its trajectory up to the stop, with one of
    those or "dt_floor" once its CFL step falls below DT_FLOOR_FACTOR times
    the first.  n_obs < 2,
    initial data without a finite wave speed, and nodes (of every batch
    member) over grid.MAX_STORED_BYTES raise ConfigError before the run
    starts.
    """
    if sigma < 1:
        raise ConfigError("physics.sigma", f"sigma must be >= 1, got {sigma}")
    if n_obs < 2:
        raise ConfigError("time.observation_count", f"n_obs must be >= 2, got {n_obs}")
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
    # v, S, a, phi (and phi1, w) per node
    per_point = 8 * grid.dim + 40 + (24 if a1 is not None else 0)
    check_stored_bytes(n_obs, a0.size, per_point)

    # the spectral RK4 state: v = grad phi0 + k (the linear part of phi0 is
    # the constant velocity k, size*k in the zero mode) and S, a projected
    # onto the band; phi0 and a1 as given
    phi_h = grid.rfft(phi0)
    v_h = grid.spectral_gradient(phi_h)
    v_h[(..., *(0,) * grid.dim)] += grid.size * np.reshape(
        init.phi0_wavevector, (grid.dim,) + (1,) * (a0.ndim - grid.dim))
    y = (np.array([*grid.project(v_h, mask), phi_h]),
         grid.project(grid.fft(np.array([a0**sigma, a0])), mask))
    if a1 is not None:
        y = (np.concatenate([y[0], np.zeros((1, *phi_h.shape), complex)]),
             np.concatenate([y[1], grid.fft(a1[None])]))

    d = grid.dim
    real, cplx = grid_pass = _grid_fields(y, grid, step=True)
    n_stage = len(real) - len(y[0])  # then grad div v, phi (and phi1)
    dx_min = min(grid.dx)
    speed = _wave_speed(real[:d], cplx[0, 0], sigma)
    dt_cfl0 = cfl_step(grid, speed, adaptive)
    if not (math.isfinite(speed) and dt_cfl0 > 0):
        raise ConfigError("initial.a0", f"the initial wave speed {speed:g} "
                          "gives no positive CFL step")
    # one step rule for every run: m equal steps over the whole horizon
    m, dt = observation_steps(final_time, 2, dt_cfl0 if dt is None else dt,
                              "time.T")
    dt_floor = DT_FLOOR_FACTOR * min(dt, dt_cfl0)
    obs = np.linspace(0.0, final_time, n_obs)  # node i's time

    nodes0 = (real[:d], *cplx[0, :2], phi0)
    if a1 is not None:
        nodes0 += (np.zeros(a0.shape), a1)
    # the stored nodes, one block per field written in place (no copy of
    # every node at the end)
    fields = [np.empty((n_obs, *f.shape), f.dtype) for f in nodes0]

    def store(i, node):
        for f, x in zip(fields, node):
            f[i] = x

    def store_inside(y0, f0, t0, h, nodes, y1, f1):
        # the cubic Hermite interpolant of the step from (y0, f0) at t0 to
        # (y1, f1) at t0 + h, on the spectral state, as y0 plus increments
        # (a state at rest stays put to the bit); one inverse transform per
        # kind of it makes a node's v, phi (and phi1) and S, a (and w)
        for i in nodes:
            s = (obs[i] - t0) / h
            c = (s * s * (3 - 2 * s), s * (1 - s) ** 2 * h, s * s * (s - 1) * h)
            R, C = (a + c[0] * (p - a) + c[1] * b + c[2] * q
                    for a, b, p, q in zip(y0, f0, y1, f1))
            real, cplx = grid.irfft(R), grid.ifft(C)
            store(i, (real[:d], *cplx[:2], *real[d:], *cplx[2:]))

    store(0, nodes0)
    step_times = [0.0]
    grad_hist, div_hist, grad_div_hist = [], [], []
    press_hist, cfl_hist = [], []

    def record_scalars(real, cplx, step_dt, speed):
        grad_v = real[d:d + d * d].reshape(d, d, *real.shape[1:])
        grad_hist.append(float(np.max(np.abs(grad_v))))
        div_hist.append(float(np.max(np.abs(np.trace(grad_v)))))
        grad_div_hist.append(float(np.max(np.abs(real[n_stage:n_stage + d]))))
        rho = np.abs(cplx[0, 1]) ** 2
        press_hist.append(float(np.max(grid.integral(rho ** (sigma + 1)).real)))
        cfl_hist.append(step_dt * speed / dx_min)

    record_scalars(real, cplx, dt, speed)
    del real, cplx, nodes0  # the pass lives on in grid_pass only

    def rhs(y, c, grid_pass=None):
        # looked up as a module attribute at every stage (and corrector._rhs
        # inside it), so a wrapper installed on either one sees every call
        return _rhs(y, grid, sigma, pressure_sign, mask, grid_pass)

    status = "completed"
    t = 0.0
    n = 0
    reached = 1  # nodes 0..reached-1 lie at or before t
    inside = None  # the last step's nodes strictly inside it, and the step
    while t < final_time:
        if adaptive:
            dt_cfl = cfl_step(grid, speed, adaptive)
            if dt_cfl < dt_floor:
                status = "dt_floor"
                break
            step_dt = min(dt_cfl, dt, final_time - t)
        else:
            step_dt = dt
            if step_dt * speed / dx_min > 2.0 * CFL_NUMBER:
                status = "cfl"
                break

        # stage 1 forms its products from the step's grid pass and drops
        # it; it is also the end derivative of the last step's interpolant
        y0, f0, t0 = y, rhs(y, 0.0, grid_pass), t
        if inside:
            store_inside(*inside, y0, f0)
            inside = None
        y = rk4_step(rhs, y0, step_dt, k1=f0)
        n += 1
        # a fixed run takes m steps of dt and ends on final_time exactly;
        # so does the adaptive step that reaches it within roundoff
        t = t + step_dt if adaptive else (n * dt if n < m else final_time)
        if t >= final_time - 1e-9 * dt:
            t = final_time

        real, cplx = grid_pass = _grid_fields(y, grid, step=True)
        if not (np.all(np.isfinite(real)) and np.all(np.isfinite(cplx))):
            status = "nonfinite"
            break

        step_times.append(t)
        record_scalars(real, cplx, step_dt, speed)
        speed = _wave_speed(real[:d], cplx[0, 0], sigma)
        # the nodes inside the step wait for the next stage 1; a node on
        # its end is its grid pass: v, S, a, phi (and phi1, w)
        first = reached
        while reached < n_obs and obs[reached] < t:
            reached += 1
        if reached > first:
            inside = (y0, f0, t0, step_dt, range(first, reached))
        if reached < n_obs and obs[reached] == t:
            store(reached, (real[:d], *cplx[0, :2], *real[n_stage + d:],
                            *cplx[0, 2:]))
            reached += 1
        del real, cplx, y0, f0
        if grad_stop is not None and grad_hist[-1] > grad_stop:
            status = "grad_stop"
            break
    if status != "completed" and not adaptive:
        raise NumericalGuardError(
            f"limit solver stopped at t={t:.6g} with status {status!r}")
    if inside:  # the last step's inner nodes take one more stage 1
        store_inside(*inside, y, rhs(y, 0.0, grid_pass))

    def pack(seq) -> np.ndarray:
        out = np.asarray(seq)
        out.setflags(write=False)  # trajectories are shared read-only
        return out

    v, S, a, phi, *corr = (pack(f[:reached]) for f in fields)
    phi1, w = corr if corr else (None, None)
    return LimitTrajectory(
        grid=grid, sigma=sigma, times=pack(obs[:reached]), v=v, S=S, a=a, phi=phi,
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


def euler_invariants(state: LimitState, sigma: int) -> EulerInvariants:
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
        boundary_tail=tail, support_ok=tail < SUPPORT_TAIL_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# breakdown monitor


@dataclass(frozen=True)
class BlowupReport:
    breakdown_flag: bool
    t_estimate: float | None
    t_uncertainty: float
    status: str
    envelope_ok: bool


def blowup_monitor(traj: LimitTrajectory) -> BlowupReport:
    """Flag gradient blow-up along a trajectory.

    Breakdown is declared when max|grad v| exceeds the breakdown_threshold
    of node 0, built from the data's own characteristic-speed gradient scale
    (so data starting at rest is judged against its sound-speed slope, and a
    constant state never fires), or when the run itself stopped early (any
    status but "completed").  The threshold is a heuristic; reported times
    carry a +-2*spacing uncertainty band.  The total-pressure history is compared (in log space, while resolved) with
    its transport envelope P(0)*exp(sigma*int max|div v|).
    """
    ts = traj.step_times
    threshold = breakdown_threshold(traj.grid, traj.v[0], traj.S[0], traj.sigma)

    t_est = None
    crossing = np.nonzero(traj.grad_v_max > threshold)[0]
    if crossing.size:
        t_est = float(ts[crossing[0]])
    elif traj.status != "completed":
        t_est = float(ts[-1])

    spacing = float(np.max(np.diff(ts))) if ts.size > 1 else 0.0

    # transport envelope for the total pressure, valid while resolved
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (traj.div_v_max[1:] + traj.div_v_max[:-1]) * np.diff(ts))])
    log_env = math.log(max(traj.total_pressure[0], 1e-300)) + traj.sigma * cum
    resolved = ts <= (t_est if t_est is not None else ts[-1])
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(traj.total_pressure, 1e-300))
    envelope_ok = bool(np.all(log_p[resolved] <= log_env[resolved] + 1e-9))

    return BlowupReport(
        breakdown_flag=t_est is not None,
        t_estimate=t_est,
        t_uncertainty=2.0 * spacing,
        status=traj.status,
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
    ill-posed sign.  The runs are one batched adaptive evolve_limit call
    (sharing the adaptive CFL step and the cutoff) that stores W's inputs
    at 36 observation times over the window; the rate is the log-linear
    slope of W over the second half of them.  A spectral cutoff (default
    1.5x the largest mode) suppresses roundoff-seeded growth above the
    probed band.  Every mode must lie in the 2/3 band of axis 0,
    |k| <= N // 3 (else ConfigError with key focusing.wavenumbers).  The
    window must be at least the background's first adaptive CFL step, the
    one evolve_limit takes, ADAPTIVE_CFL/dim*min(dx)/sqrt((sigma+1)*rho0^sigma)
    (cfl_step), checked before any step, and the run must fit the step
    budget (evolve_limit's time.T refusal), cover the window and stay
    linear, else focusing.window: the adaptive run returns where ill-posed
    growth that raises the wave speed tenfold stops it with status dt_floor
    (the CLI defaults with window 1.0 at t = 0.392, N = 256 with sigma = 2
    and window 0.5 at t = 0.393), and a completed run is refused once
    max|a - a_bg| reaches |a_bg| on a stored node (sigma = 1 with window
    1.0), where the rates no longer measure the linear growth.
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
    band = grid.shape[0] // 3
    outside = [k for k in ks if abs(k) > band]
    if outside:
        raise ConfigError("focusing.wavenumbers", f"modes {outside} lie outside "
                          f"the 2/3 band |k| <= {band} of axis 0")
    if spectral_cutoff is None:
        spectral_cutoff = max(int(1.5 * max(ks)) + 2, max(ks) + 8)
    rho_bg = np.abs(a0) ** 2
    rho0 = float(np.mean(rho_bg))
    # a window inside the first CFL step puts every node inside one step,
    # where the log-linear fit of dense output measures no growth rate
    dt_cfl = cfl_step(grid, math.sqrt((sigma + 1) * rho0 ** sigma),
                      adaptive=True)
    if window < dt_cfl:
        raise ConfigError("focusing.window", f"the window {window:g} is "
                          f"shorter than the background's first CFL step "
                          f"{dt_cfl:.6g}, too short to fit a growth rate")

    xi = 2.0 * np.pi * np.array(ks) / grid.lengths[0]
    pert = delta * np.cos(xi.reshape((-1,) + (1,) * grid.dim) * grid.coords[0])
    with rekeyed("time.T", "focusing.window"):
        traj = evolve_limit(
            replace(init, a0=a0 + pert), sigma, window, n_obs=36,
            pressure_sign=pressure_sign, adaptive=True,
            spectral_cutoff=spectral_cutoff,
        )
    if traj.status != "completed":
        raise ConfigError("focusing.window", f"the run stopped at t={traj.step_times[-1]:.6g}"
                          f" of the window {window} with status {traj.status!r};"
                          " a shorter window completes it")
    # the rates are the linear ones only while the perturbation stays below
    # the background on every stored node
    gap = np.max(grid.lebesgue_norm(traj.a - a0, math.inf), axis=1)
    outside = np.nonzero(gap >= math.sqrt(rho0))[0]
    if outside.size:
        raise ConfigError("focusing.window", "the perturbation max|a - a_bg| "
                          f"reaches |a_bg| at t={traj.times[outside[0]]:.6g} of "
                          f"the window {window}, outside the linear regime; a "
                          "shorter window keeps it inside")
    # W per (node, member); v_bg = 0
    w = np.sqrt(np.maximum(
        sigma * rho0 ** (sigma - 1) * grid.integral((np.abs(traj.a) ** 2 - rho_bg) ** 2).real
        + rho0 * grid.integral(np.sum(traj.v**2, axis=1)).real, 0.0))
    half = traj.times.size // 2
    rows = []
    for k, xi_k, w_k in zip(ks, xi, w.T):
        w0 = w_k[0]
        if w0 == 0.0 or np.all(w_k <= 0):
            rows.append(GrowthRow(mode=k, xi=float(xi_k), rate=0.0,
                                  max_growth=0.0, w0=0.0))
            continue
        slope = np.polyfit(traj.times[half:],
                           np.log(np.maximum(w_k[half:], 1e-300)), 1)[0]
        rows.append(GrowthRow(
            mode=k, xi=float(xi_k), rate=float(slope),
            max_growth=float(np.max(w_k) / w0), w0=float(w0),
        ))
    return rows
