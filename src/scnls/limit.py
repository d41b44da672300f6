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
derivative is projected.  In the buffers of a run's workspace a stage forms
its jets, takes them to the grid with one batched inverse transform per kind
(real or complex), forms the products there (scnls.corrector._rhs those of
the pair) and takes them back with one batched forward transform per kind;
derivatives, grad p, the corrector's (i/2) Lap a source and -P, minus the
band projection (every derivative row is -P of its products), are
multipliers, and RK4 sums the fresh derivatives in place.
Each step ends with one grid pass of its state, whose two inverse transforms
also make grad div v: one pass of reductions gives its CFL speed, scalars
and finiteness check, and the next step's stage 1 forms its products from it
and drops it before its forward transforms.  A stored node is one inverse
transform per kind of a spectral state, the step's own on its end and the
interpolant inside it; node 0 holds phi0 (and phi1 = 0, w = a1) as given.
Time stepping is classical RK4 at the CFL step, with an optional per-step
CFL-adapted step at ADAPTIVE_CFL for the instability demos; the
observation times do not set the step.  A node inside a step is the
step's dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6), the
cubic Hermite interpolant of its end states and their derivatives (stage
1 of this step and the next): linear in stage derivatives, so grad phi = v
holds on it to roundoff, and O(dt^4) accurate, RK4's order.
"""

from __future__ import annotations

import math
from dataclasses import field, replace

import numpy as np

from . import corrector
from .errors import ConfigError, NumericalGuardError, rekeyed
from .grid import (SUPPORT_TAIL_THRESHOLD, Grid, check_stored_bytes,
                   observation_steps)
from .presets import InitialData
from .records import Record

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


class LimitState(Record):
    """One snapshot of the limit flow, or a stack of them on leading axes
    (S = a^sigma, which no reader of a state needs, stays on the trajectory)."""

    grid: Grid
    sigma: int
    time: float | np.ndarray
    v: np.ndarray           # (dim, *shape), real
    a: np.ndarray           # complex
    phi_periodic: np.ndarray
    phi_wavevector: tuple[float, ...]
    phi1: np.ndarray | None = None  # corrector pair, if the run carried it
    w: np.ndarray | None = None

    def phi_total(self) -> np.ndarray:
        """Phase samples including the linear (non-periodic) part."""
        k = np.reshape(self.phi_wavevector, (-1,) + (1,) * self.grid.dim)
        return self.phi_periodic + np.sum(k * self.grid.coords, axis=0)


class LimitTrajectory(Record):
    """One limit run (or a batch): its stored snapshots and per-step monitors."""

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
            grid=self.grid, sigma=self.sigma,
            time=self.times[i] if stack else float(self.times[i]),
            v=np.moveaxis(self.v[i], 0, 1) if stack else self.v[i],
            a=self.a[i],
            phi_periodic=self.phi_periodic[i],
            phi_wavevector=self.phi0_wavevector,
            phi1=None if self.phi1 is None else self.phi1[i],
            w=None if self.w is None else self.w[i],
        )


# ---------------------------------------------------------------------------
# right-hand side


class _Workspace:
    """A run's stage constants (grid, sigma, pressure sign psign) and buffers, made once from its
    state y = (R, C): one block holds in turn the complex jet, the real jet, the products and
    rated fields (2-D peak memory)."""

    def __init__(self, y, grid: Grid, sigma: int, psign: int, mask: np.ndarray):
        R, C = y
        self.grid, self.sigma, self.psign = grid, sigma, psign
        d, pair = grid.dim, len(R) - grid.dim - 1
        self.n = d + d * d + (d + 1) * pair  # a stage's real jet rows
        n_pr = (d + 2 + pair) * C[0].size // 2  # the real products, as complex
        block = np.empty(max((1 + d) * C.size, (self.n + d) * R[0].size,
                             2 * C.size + n_pr), complex)
        self.jc = block[:(1 + d) * C.size].reshape(1 + d, *C.shape)
        self.jr = block[:(self.n + d) * R[0].size].reshape(-1, *R.shape[1:])
        self.jv = self.jr[:d + d * d].reshape(1 + d, d, *R.shape[1:])  # [v, d_j v]
        self.pc, self.rated = (block[i:i + C.size].reshape(C.shape)
                               for i in (0, C.size + n_pr))
        self.pr = block[C.size:C.size + n_pr].view(float).reshape(-1, *C.shape[1:])
        m = grid.multiplier
        self.jet_c, self.jet_r, self.lap_c = m("jet", C), m("jet", R[:d]), m("laplacian", C[0])
        self.grad, self.lap = m("gradient", R[0]), m("laplacian", R[0])
        # the rates of S, a (and w) in d_t f + v.grad f + rate f div v
        self.rates = np.reshape([0.5 * sigma, 0.5, 0.5][:len(C)], (-1, *(1,) * (C.ndim - 1))) + 0j
        # one multiplier -P per kind, a row's derivative being -P of its products: P
        # onto mask for the limit rows (the last 2 of C), onto the 2/3 band for the pair's
        bands = [mask] * (d + 1) + [grid.dealias_mask] * pair
        self.signed = [np.reshape([grid.project(np.full(f.shape[-d:], -1, complex), keep)
                                   for keep in bands[len(bands) - len(f):]],
                                  (len(f), *(1,) * (f.ndim - 1 - d), *f.shape[-d:]))
                       for f in (R, C)]


def _rhs(y, ws: _Workspace, grid_pass: list | None = None) -> tuple:
    """Time derivatives (dR, dC) of the spectral state y = (R, C) at one RK4
    stage, fresh arrays, in the run's workspace ws; the step's grid pass of y
    spares stage 1 its inverse transforms."""
    grid = ws.grid
    # the fields die with _products: no forward transform runs next to them
    source_h = _products(y, ws, grid_pass)
    real_h, cplx_h = grid.rfft(ws.pr), grid.fft(ws.pc)
    # grad p, the pair's source and -P are multipliers
    v_h = real_h[:grid.dim]
    np.add(v_h, np.multiply(ws.grad, real_h[-1]), out=v_h)
    if source_h is not None:
        cplx_h[2] -= source_h
    return np.multiply(ws.signed[0], real_h[:-1]), np.multiply(ws.signed[1], cplx_h)


def _products(y, ws: _Workspace, grid_pass: list | None):
    """A stage's products on its fields (the step's grid pass, emptied so they
    die here, or _grid_fields of y), summed over j as sum(0) adds: into ws.pr
    the real (v.grad) v, |v|^2/2 + s*p (and the phi1 part), s*p, into ws.pc
    the complex S, a (and w) parts; returns the pair's source spectrum."""
    d = ws.grid.dim
    real, cplx = grid_pass or _grid_fields(y, ws)
    if grid_pass:
        grid_pass.clear()
    v, pr, pc = real[:d], ws.pr, ws.pc
    div_v = sum(real[2 * d + 1:d + d * d:d + 1], real[d])  # d_j v_i at d + d*j + i
    sp = np.square(np.abs(cplx[0, 0]), out=pr[-1])  # |S|^2, then s*|S|^2
    if ws.psign < 0:
        np.negative(sp, out=sp)
    v2 = np.square(v)
    np.add(np.multiply(0.5, sum(v2[1:], v2[0]), out=pr[d]), sp, out=pr[d])
    # (v.grad) v and v.grad f for f = S, a (and w), then + rate f div v
    np.multiply(v[0], real[d:d + d], out=pr[:d])
    np.multiply(v[0], cplx[1], out=pc)
    for j in range(1, d):
        pr[:d] += v[j] * real[d + d * j:d + d * j + d]
        pc += v[j] * cplx[1 + j]
    rated = np.multiply(ws.rates, cplx[0], out=ws.rated)
    np.add(pc[:2], np.multiply(div_v, rated[:2]), out=pc[:2])
    if len(pc) > 2:  # the corrector pair rides along: grad phi1, Lap phi1
        n = d + d * d
        return corrector._rhs(real[n:n + d], real[n + d], cplx, v, div_v,
                              rated, y[1][1], ws)
    return None


def _grid_fields(y, ws: _Workspace, step: bool = False) -> list:
    """[real, cplx], the fields of y = (R, C) a stage needs, one inverse transform
    per kind of jets in the workspace ws: S, a (and w) with their gradients, and
    the rows v, grad v (row d_j v_i at dim*j + i) (and grad phi1, Lap phi1), then,
    in the step's grid pass (step=True), grad div v."""
    R, C = y
    grid, d, n, jr = ws.grid, ws.grid.dim, ws.n, ws.jr
    # complex first: the real jet takes the complex jet's place
    cplx = grid.ifft(np.multiply(ws.jet_c, C, out=ws.jc))
    np.multiply(ws.jet_r, R[:d], out=ws.jv)
    if len(R) > d + 1:
        np.multiply(ws.grad, R[-1], out=jr[n - d - 1:n - 1])
        np.multiply(ws.lap, R[-1], out=jr[n - 1])
    if step:
        diag = [ws.jv[1 + j, j] for j in range(d)]  # d_j v_j
        np.multiply(ws.grad, sum(diag[1:], diag[0]), out=jr[n:])
    return [grid.irfft(jr if step else jr[:n]), cplx]


def rk4_step(rhs, y: tuple, dt: float, k1: tuple) -> tuple:
    """One classical RK4 step of the autonomous system y' = rhs(y) for a tuple of
    fields; k1 is the caller's rhs(y), the first stage (evolve_limit makes it from the
    step's grid pass); rhs returns fresh arrays.  y + dt/6*(k1 + 2 k2 + 2 k3 + k4) sums in
    that order in k2's arrays, then k4's input: a stage runs next to y, k1, the sum, its input."""
    def shifted(k, c):  # y + c*k, fresh
        return tuple(np.add(yi, t, out=t) for yi, t in zip(y, (c * ki for ki in k)))

    # 0-d arrays of the fields' type: the values of Python scalars, cheaper
    h, full, two, sixth = (np.array(c, np.result_type(*y)) for c in (0.5 * dt, dt, 2, dt / 6))
    total = rhs(shifted(k1, h))
    k3 = rhs(shifted(total, h))
    y4 = shifted(k3, full)
    for s, a, c in zip(total, k1, k3):
        np.add(np.multiply(two, s, out=s), a, out=s)
        s += np.multiply(two, c, out=c)
    del k3, c
    for s, d, yi, out in zip(total, rhs(y4), y, y4):  # y4 takes the new state
        s += d
        np.add(yi, np.multiply(sixth, s, out=s), out=out)
    return y4


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
    with adaptive=True.  A fixed-step run takes these steps, the last
    ending on final_time exactly; adaptive=True, for the instability demos,
    re-derives its cfl_step every step, capped at the first one and at the
    time left: set for accuracy, it stays inside RK4's stability limit in
    any dimension (cfl_step).  Neither depends on n_obs.  One node rule:
    node i is the state at np.linspace(0, final_time, n_obs)[i], the time
    of snapshot i of evolve_nls: on a step's end that step's state, inside
    a step the cubic Hermite interpolant of the spectral states and
    derivatives at its ends (the end derivative is the next step's first
    RK4 stage, or one more right-hand side after the last step).  A
    completed run stores exactly n_obs nodes (default 2: the start and the
    end), a stopped one those up to its last step.  The per-step scalars
    (grad_v_max, ...) cover every step; they and the finiteness check come
    from one grid pass of the step's state, which then feeds the next step's
    first RK4 stage.  Given a1, the run also carries the corrector pair
    (phi1, w) from (0, a1): the trajectory stores it as its phi1 and w, and
    its states carry it (None without a1).  Fields of init and a1 of shape
    (*batch, *grid.shape) are independent runs integrated as one, stored
    with their batch axes.  The members share the step, the status and the
    per-step scalars (each a max over the members): one member breaking the
    CFL bound or going non-finite stops them all.  A fixed-step run is
    expected to complete, so its stop raises NumericalGuardError: status
    "cfl" once its CFL number passes 2*CFL_NUMBER = 1.0 or, in 2-D, RK4's
    own limit 3*sqrt(2)/(pi*dim) = 0.675 (cfl_step), "nonfinite" or
    "grad_stop" (max|grad v| over grad_stop).  An adaptive run returns its
    trajectory up to the stop, with one of those or "dt_floor" once its CFL
    step falls below DT_FLOOR_FACTOR times the first.  Before the first
    step, fixed or adaptive, ConfigError refuses sigma < 1, n_obs < 2, nodes
    (of every batch member) over grid.MAX_STORED_BYTES, initial data without
    a finite wave speed, and (key time.T) a final_time that is not positive,
    a dt that is not positive and finite or more than grid.MAX_STEPS steps.
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
    del phi_h, v_h  # set-up temporaries, not kept through the run

    d = grid.dim
    ws = _Workspace(y, grid, sigma, pressure_sign, mask)
    real, cplx = grid_pass = _grid_fields(y, ws, step=True)
    n_stage, axes = ws.n, tuple(range(1, real.ndim))  # then grad div v
    dx_min = min(grid.dx)

    def scan(real, cplx, top=np.maximum.reduce, low=np.minimum.reduce):
        # one pass of reductions, no temporary of the grid pass's size: all
        # finite?, max|v| + sqrt((sigma+1)*max|S|^2) and the step's scalars
        rows = np.maximum(top(real, axis=axes), -low(real, axis=axes)).tolist()
        ends = [f(cplx.view(float), axis=None) for f in (top, low)]
        abs_Sa = np.abs(cplx[0, :2])
        s = float(top(abs_Sa[0], axis=None))
        div_v = sum(real[2 * d + 1:d + d * d:d + 1], real[d])
        return (all(map(math.isfinite, rows + ends)),
                max(rows[:d]) + math.sqrt((sigma + 1) * (s * s)),
                (max(rows[d:d + d * d]), float(top(np.abs(div_v), axis=None)),
                 max(rows[n_stage:n_stage + d]),
                 float(top(grid.integral((abs_Sa[1] ** 2) ** (sigma + 1)), axis=None))))

    _, speed, scalars = scan(real, cplx)
    dt_cfl0 = cfl_step(grid, speed, adaptive)
    if not (math.isfinite(speed) and dt_cfl0 > 0):
        raise ConfigError("initial.a0", f"the initial wave speed {speed:g} "
                          "gives no positive CFL step")
    # one step rule for every run: m equal steps over the whole horizon
    m, dt = observation_steps(final_time, 2, dt_cfl0 if dt is None else dt,
                              "time.T")
    dt_floor = DT_FLOOR_FACTOR * min(dt, dt_cfl0)
    # a fixed-step run's stop: 2*CFL_NUMBER, or RK4's own limit where lower
    cfl_stop = min(2.0 * CFL_NUMBER, 3.0 * math.sqrt(2.0) / (math.pi * d))
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

    def store_spectral(i, y):
        # one inverse transform per kind of the spectral state y makes
        # node i's v, phi (and phi1) and S, a (and w)
        real, cplx = grid.irfft(y[0]), grid.ifft(y[1])
        store(i, (real[:d], *cplx[:2], *real[d:], *cplx[2:]))

    def store_inside(y0, f0, t0, h, nodes, y1, f1):
        # the cubic Hermite interpolant of the step from (y0, f0) at t0 to
        # (y1, f1) at t0 + h, on the spectral state, as y0 plus increments
        # (a state at rest stays put to the bit)
        for i in nodes:
            s = (obs[i] - t0) / h
            c = (s * s * (3 - 2 * s), s * (1 - s) ** 2 * h, s * s * (s - 1) * h)
            store_spectral(i, [a + c[0] * (p - a) + c[1] * b + c[2] * q
                               for a, b, p, q in zip(y0, f0, y1, f1)])

    store(0, nodes0)
    # per step: time, max|grad v|, max|div v|, max|grad div v|, pressure, CFL
    history = [(0.0, *scalars, dt * speed / dx_min)]
    del real, cplx, nodes0  # the pass lives on in grid_pass only

    def rhs(y, grid_pass=None):
        # looked up as a module attribute at every stage (and corrector._rhs
        # inside it), so a wrapper installed on either one sees every call
        return _rhs(y, ws, grid_pass)

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
            if step_dt * speed / dx_min > cfl_stop:
                status = "cfl"
                break

        # stage 1 forms its products from the step's grid pass and drops
        # it; it is also the end derivative of the last step's interpolant
        y0, f0, t0 = y, rhs(y, grid_pass), t
        if inside:
            store_inside(*inside, y0, f0)
            inside = None
        y = rk4_step(rhs, y0, step_dt, f0)
        n += 1
        # a fixed run takes m steps of dt and ends on final_time exactly;
        # so does the adaptive step that reaches it within roundoff
        t = t + step_dt if adaptive else (n * dt if n < m else final_time)
        if t >= final_time - 1e-9 * dt:
            t = final_time

        real, cplx = grid_pass = _grid_fields(y, ws, step=True)
        finite, new_speed, step_scalars = scan(real, cplx)
        if not finite:
            status = "nonfinite"
            break

        history.append((t, *step_scalars, step_dt * speed / dx_min))
        speed = new_speed
        # the nodes inside the step wait for the next stage 1; a node on
        # its end is made from the step's state
        first = reached
        while reached < n_obs and obs[reached] < t:
            reached += 1
        if reached > first:
            inside = (y0, f0, t0, step_dt, range(first, reached))
        if reached < n_obs and obs[reached] == t:
            store_spectral(reached, y)
            reached += 1
        del real, cplx, y0, f0
        if grad_stop is not None and history[-1][1] > grad_stop:
            status = "grad_stop"
            break
    if status != "completed" and not adaptive:
        raise NumericalGuardError(
            f"limit solver stopped at t={t:.6g} with status {status!r}")
    if inside:  # one more stage 1; the workspace goes before the last nodes (peak memory)
        f1, ws = rhs(y, grid_pass), None
        store_inside(*inside, y, f1)

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
        **dict(zip(("step_times", "grad_v_max", "div_v_max", "grad_div_v_max",
                    "total_pressure", "cfl_numbers"), map(pack, zip(*history)))),
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


class EulerInvariants(Record):
    """Conserved functionals of one limit snapshot (euler_invariants)."""

    time: float
    mass: float
    energy: float
    momentum: np.ndarray
    pseudo_conformal: float
    center_of_mass: np.ndarray
    total_pressure: float
    boundary_tail: float
    support_ok: bool = field(default=True)


def euler_invariants(state: LimitState) -> EulerInvariants:
    """Mass, energy, momentum, pseudo-conformal quantity, mass center,
    total pressure of a limit snapshot (defocusing sign conventions)."""
    grid, sigma = state.grid, state.sigma
    rho = np.abs(state.a) ** 2
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


class BlowupReport(Record):
    """Whether and when a limit run's gradients break down (blowup_monitor)."""

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


class GrowthRow(Record):
    """The growth rate of one perturbation wavenumber (focusing_demo)."""

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
        if w0 == 0.0:
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
