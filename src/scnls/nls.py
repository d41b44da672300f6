"""Split-step spectral integrators for the semiclassical NLS

    i*eps*du/dt + (eps^2/2)*Lap(u) = |u|^(2*sigma) * u,
    u(0) = (a0 + eps*a1) * exp(i*phi0/eps),

on the periodic cell.  One Strang step of size h is

    kinetic half step   u_hat <- exp(-i*eps*|xi|^2*h/4) * u_hat
    nonlinear full step u     <- u * exp(-i*|u|^(2*sigma)*h/eps)
    kinetic half step

Both substeps preserve |u_hat| resp. |u| pointwise, so the L2 mass is
conserved to roundoff; the nonlinear step is exact because |u| is invariant
under it.  A scheme is a composition of Strang substeps with weights
summing to one (SCHEMES): ``strang`` is the single substep, ``yoshida4``
Yoshida's fourth-order triple jump h = (w1, 1 - 2*w1, w1)*dt with
w1 = 1/(2 - 2^(1/3)).  Kinetic half steps of neighbouring substeps merge,
also across steps and observation times (a snapshot is the step's own
spectrum times the last half step), so a yoshida4 step costs three
nonlinear substeps and three FFT pairs.

An order-p splitting error behaves like (dt/eps)^p * eps in the
semiclassical regime, so steps linear in eps hold it at a fixed fraction of
eps over an epsilon ladder (Bao, Jin & Markowich, J. Comput. Phys. 175,
2002).  The Strang step is dt_s = dt0 * eps, with error about dt0^2 * eps;
yoshida4 takes the step sqrt(dt_s * eps) = sqrt(dt0) * eps, for which
(dt/eps)^4 = (dt_s/eps)^2, so dt0 sets the same Strang-equivalent error for
both schemes.  Every run can verify itself by
step doubling: one more integration with the same scheme at about 2*dt over
the whole horizon, whose final state must agree with the run's (the
step-doubling guard; Hairer, Norsett & Wanner, Solving ODEs I, II.4).  For
an order-p scheme the pair's difference is about 2^p - 1 times the run's own
error, so a passed check bounds that error with margin.

A run observed n_obs times stores snapshot i at np.linspace(0, T, n_obs)[i],
the time of node i of evolve_limit, by taking a whole number of steps per
observation interval (grid.observation_steps); the limit steps over the
whole horizon instead and interpolates its nodes.
One loop integrates a batch of runs (evolve_nls_batch): the members share
the grid shape, sigma and scheme, and each keeps its own epsilon, step,
step count and observation count.  Every transform is a Grid transform of
the whole batch of running members, and the step-doubling checks ride in
the same batch, so an epsilon ladder pays the per-call overhead of a 1-D
transform once per substep instead of once per run.  Each member's
snapshots carry the bits of its lone run as long as the batch and the lone
run fall on the same side of numpy's 256 KiB temporary-elision size (see
_evolve_batch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalGuardError
from .grid import (SUPPORT_TAIL_THRESHOLD, Grid, check_stored_bytes,
                   observation_steps)
from .presets import InitialData, snap_wavevector

# substep weights of each composition of the Strang step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
SCHEMES = {"strang": (1.0,), "yoshida4": (_W1, 1.0 - 2.0 * _W1, _W1)}

# the step-doubling guard's tolerance, in eps*||u0||_L2
SELF_CHECK_FACTOR = 0.05
# the wavefunction integrator of the sweep rows and the CLI runs, and the
# exponent of their Strang step dt0*eps^DT_EXPONENT
SCHEME = "yoshida4"
DT_EXPONENT = 1.0


@dataclass(frozen=True)
class NLSConfig:
    grid: Grid
    epsilon: float
    sigma: int
    final_time: float
    dt0: float = 0.01
    dt_override: float | None = None
    self_check: bool = True
    scheme: str = "strang"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}; "
                                        f"choose from {sorted(SCHEMES)}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("physics.epsilon", f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.sigma < 1:
            raise ConfigError("physics.sigma", f"sigma must be >= 1, got {self.sigma}")
        if self.final_time <= 0:
            raise ConfigError("time.T", "final_time must be positive")
        # an explicit step, and the strang law step, must be shorter than
        # the horizon; the longer yoshida4 law step is cut to the
        # observation interval
        if ((self.dt_override is not None or self.scheme == "strang")
                and self.dt_raw >= self.final_time):
            raise ConfigError("time.dt0", "time step must be smaller than final_time")
        observation_steps(self.final_time, 2, self.dt_raw, "physics.epsilon")

    @property
    def dt_raw(self) -> float:
        """The step requested of the scheme: dt_override, or the step whose
        splitting error matches the Strang step's."""
        if self.dt_override is not None:
            return self.dt_override
        return scheme_step(self.scheme, self.dt0, self.epsilon)


def scheme_step(scheme: str, dt0: float, epsilon: float) -> float:
    """The step of ``scheme`` at epsilon: the Strang step
    dt_s = dt0*eps^DT_EXPONENT, and for yoshida4 the step with the same
    splitting error, sqrt(dt_s*eps): (dt/eps)^4 = (dt_s/eps)^2."""
    dt_strang = dt0 * epsilon**DT_EXPONENT
    return dt_strang if scheme == "strang" else math.sqrt(dt_strang * epsilon)


@dataclass
class NLSTrajectory:
    grid: Grid
    epsilon: float
    sigma: int
    times: np.ndarray
    states: list[np.ndarray]
    dt: float
    self_check_error: float | None = None
    self_check_ok: bool = True
    self_check_dt: float | None = None
    mass_history: np.ndarray | None = None


def build_initial_data(data: InitialData, epsilon: float,
                       epsilon_ref: float | None = None) -> np.ndarray:
    """Wavefunction (a0 + eps*a1) * exp(i*phi0/eps).

    The linear phase part k.x is snapped so that k/eps sits on the spectral
    lattice (plane-wave presets stay grid-periodic).  When the data is shared
    across an epsilon ladder, pass epsilon_ref = max of the ladder so one snap
    serves every member; eps_ref/eps must then be an integer ratio.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ConfigError("physics.epsilon", f"epsilon must be in (0, 1], got {epsilon}")
    grid = data.grid
    amp = data.a0 + epsilon * data.a1
    phase = data.phi0_periodic / epsilon
    if any(k != 0.0 for k in data.phi0_wavevector):
        eref = epsilon if epsilon_ref is None else epsilon_ref
        _, modes = snap_wavevector(data.phi0_wavevector, grid, eref)
        ratio = eref / epsilon
        int_ratio = round(ratio)
        if abs(ratio - int_ratio) > 1e-12:
            raise ConfigError(
                "physics.epsilon_list",
                "epsilon_ref/epsilon must be integer for shared plane-wave phases",
            )
        for j, m in enumerate(modes):
            phase = phase + (2.0 * np.pi * m * int_ratio / grid.lengths[j]) * grid.coords[j]
    return amp * np.exp(1j * phase)


def _freeze(arr: np.ndarray) -> np.ndarray:
    # snapshots are shared read-only
    arr.setflags(write=False)
    return arr


def _evolve_batch(u0s, cfgs, n_obs) -> list[tuple[list[np.ndarray], float]]:
    """Integrate a batch of runs in one split-step loop; (states, dt) each.

    The members share the grid shape, sigma and scheme; each has its own
    epsilon, step, step count and observation count n_obs[b], and so its
    own kick and phase multipliers.  Each member's step is its cfg.dt_raw
    rounded down to divide its observation interval (grid.observation_steps).
    Before any member steps, every member's step count must be at most
    grid.MAX_STEPS and its snapshots within grid.MAX_STORED_BYTES, or
    ConfigError is raised.  The batch transforms through the first member's
    Grid: a transform depends on the grid shape alone.  Sorted by substep
    count, the members still running are a prefix u[:k] of the batch.  At
    its own observation times a member checks and stores ifft(uh * last) of
    the substep's spectrum uh and goes on with the merged kick; it retires
    after its last one.
    """
    steps = [observation_steps(cfg.final_time, n, cfg.dt_raw,
                               "time.observation_count")
             for n, cfg in zip(n_obs, cfgs)]
    grid, sigma, scheme = cfgs[0].grid, cfgs[0].sigma, cfgs[0].scheme
    if any((c.grid.shape, c.sigma, c.scheme) != (grid.shape, sigma, scheme)
           for c in cfgs):
        raise ValueError("batch members must share grid shape, sigma and scheme")
    for n in n_obs:
        check_stored_bytes(n, grid.size, 16)  # complex snapshots
    weights = SCHEMES[scheme]
    n_w = len(weights)
    n_sub = [m * n_w for m, _ in steps]  # substeps per observation interval
    total = [n * (n_b - 1) for n, n_b in zip(n_sub, n_obs)]
    order = sorted(range(len(cfgs)), key=lambda b: -total[b])
    total = [total[b] for b in order]

    halves = [[np.exp(-1j * cfgs[b].epsilon * cfgs[b].grid.k_squared
                      * (w * steps[b][1]) / 4.0) for w in weights] for b in order]
    last = np.stack([h[-1] for h in halves])
    # kick before substep j: the half steps of substeps j-1 and j merged
    # (kicks[0] joins the last substep of one step to the next step)
    kicks = [np.stack([h[j - 1] * h[j] for h in halves]) for j in range(n_w)]
    phases = [np.array([-1j * (w * steps[b][1]) / cfgs[b].epsilon for b in order]
                       ).reshape((-1,) + (1,) * grid.dim) for w in weights]
    # substep index -> members (positions in the sorted batch) that reach an
    # observation time after it
    bounds: dict[int, list[int]] = {}
    for p, b in enumerate(order):
        for r in range(1, n_obs[b]):
            bounds.setdefault(r * n_sub[b] - 1, []).append(p)

    u = np.stack([np.asarray(u0s[b], dtype=complex) for b in order])
    states = [[_freeze(row.copy())] for row in u]
    u = grid.ifft(grid.fft(u) * np.stack([h[0] for h in halves]))
    k = len(order)
    for i in range(total[0]):
        # Keep this expression: numpy elides a temporary of 256 KiB or more
        # by multiplying exp*u in place of u*exp, and the complex multiply
        # (FMA) rounds the two orders differently.  A member's bits equal
        # those of its lone run only when the batch and the lone member fall
        # on the same side of that size.
        u = u * np.exp(phases[i % n_w][:k] * np.abs(u) ** (2 * sigma))
        uh = grid.fft(u)
        at = bounds.get(i)
        if at:
            # snapshots from the step's spectrum; the batch goes on below
            for p, snap in zip(at, grid.ifft(uh[at] * last[at])):
                if not np.all(np.isfinite(snap.view(float))):
                    m, dt = steps[order[p]]
                    t = len(states[p]) * m * dt
                    raise NumericalGuardError(
                        f"non-finite wavefunction at t={t:.6g}; reduce dt0")
                states[p].append(_freeze(snap))
            while k and total[k - 1] <= i + 1:
                k -= 1
        u = grid.ifft(uh[:k] * kicks[(i + 1) % n_w][:k])

    out: list = [None] * len(order)
    for p, b in enumerate(order):
        out[b] = (states[p], steps[b][1])
    return out


def _evolve_raw(u0: np.ndarray, cfg: NLSConfig,
                n_obs: int) -> tuple[list[np.ndarray], float]:
    """The one-member form of _evolve_batch (bench/layers.py traces it)."""
    return _evolve_batch([u0], [cfg], [n_obs])[0]


def _check_tolerance(cfg: NLSConfig, u0: np.ndarray) -> float:
    return SELF_CHECK_FACTOR * cfg.epsilon * max(cfg.grid.l2_norm(u0), 1e-300)


def evolve_nls_batch(u0s, cfgs, n_obs: int = 2) -> list[NLSTrajectory]:
    """Integrate several runs in one split-step loop, one trajectory each.

    Each run is observed at np.linspace(0, final_time, n_obs) of its own
    final_time (default: 0 and final_time), its trajectory's times; n_obs
    < 2 raises ConfigError before any run steps.  Each run's step divides the
    observation interval, rounded down from its cfg.dt_raw.  Each run with
    self_check enabled brings its step-doubling check into the same loop: if
    the run takes n steps, one more member with the same scheme covers
    [0, T] in n // 2 steps (2*n when n <= 3, where no coarser step is left)
    and stores only its end state.  If the final states differ by more than
    SELF_CHECK_FACTOR*eps*||u0|| in L2, the run's trajectory is flagged
    (self_check_ok False); nothing is raised for it.
    """
    runs, members = [], []
    for u0, cfg in zip(u0s, cfgs):
        u0 = np.asarray(u0)
        if u0.shape != cfg.grid.shape:
            raise GridMismatchError(f"u0 shape {u0.shape} != grid shape {cfg.grid.shape}")
        runs.append((u0, cfg))
        members.append((u0, cfg, n_obs))
        if cfg.self_check:
            m, _ = observation_steps(cfg.final_time, n_obs, cfg.dt_raw,
                                     "time.observation_count")
            n = m * (n_obs - 1)
            n_check = n // 2 if n >= 4 else 2 * n
            members.append((u0, replace(cfg, dt_override=cfg.final_time / n_check,
                                        self_check=False), 2))

    results = iter(_evolve_batch(*zip(*members)) if members else ())
    trajs = []
    for u0, cfg in runs:
        states, dt = next(results)
        grid = cfg.grid
        traj = NLSTrajectory(
            grid=grid, epsilon=cfg.epsilon, sigma=cfg.sigma,
            times=np.linspace(0.0, cfg.final_time, n_obs), states=states, dt=dt,
            mass_history=np.array([grid.l2_norm(s) for s in states]),
        )
        if cfg.self_check:
            check_states, traj.self_check_dt = next(results)
            traj.self_check_error = grid.l2_norm(states[-1] - check_states[-1])
            traj.self_check_ok = traj.self_check_error <= _check_tolerance(cfg, u0)
        trajs.append(traj)
    return trajs


def evolve_nls(u0: np.ndarray, cfg: NLSConfig, n_obs: int = 2) -> NLSTrajectory:
    """Integrate one run to final_time, returning snapshots at the n_obs
    observation times: the one-run case of evolve_nls_batch.  A failed
    step-doubling check raises NumericalGuardError carrying the flagged
    trajectory.
    """
    (traj,) = evolve_nls_batch([u0], [cfg], n_obs)
    if not traj.self_check_ok:
        err, tol = traj.self_check_error, _check_tolerance(cfg, np.asarray(u0))
        raise NumericalGuardError(
            f"step-doubling self-check failed: |u_dt - u_2dt| = {err:.3e} "
            f"> {tol:.3e}; reduce dt0 (eps={cfg.epsilon}, dt={traj.dt:.3e})",
            value=err, trajectory=traj,
        )
    return traj


@dataclass(frozen=True)
class NLSInvariants:
    """Conserved/evolving functionals of one snapshot; x-weighted entries are
    meaningful only when boundary_tail is small (support inside the cell)."""

    time: float
    mass: float
    energy: float
    momentum: np.ndarray
    pseudo_conformal: float
    weighted_mass_center: np.ndarray
    boundary_tail: float
    support_ok: bool = field(default=True)


def nls_invariants(u: np.ndarray, t: float, grid: Grid, epsilon: float,
                   sigma: int) -> NLSInvariants:
    """Mass, energy, momentum, pseudo-conformal quantity, weighted center.

    energy = (1/2)||eps*grad u||_L2^2 + ||u||_{L^{2s+2}}^{2s+2}/(s+1);
    momentum_j = Im int conj(u) * eps * d_j u;
    pseudo_conformal = (1/2)||(x + i*eps*t*grad)u||^2 + t^2/(s+1)*||u||^{2s+2};
    weighted_mass_center_j = int x_j*|u|^2 - t*momentum_j  (conserved).
    """
    gu = grid.gradient(u)
    rho = np.abs(u) ** 2
    mass = grid.l2_norm(u)
    p_pot = float(grid.integral(rho ** (sigma + 1)).real)
    energy = 0.5 * epsilon**2 * float(np.sum(grid.integral(np.abs(gu) ** 2).real)) \
        + p_pot / (sigma + 1)
    momentum = epsilon * grid.integral(np.imag(np.conj(u) * gu))
    x = grid.coords
    j_op = x * u + 1j * epsilon * t * gu
    pc = 0.5 * float(np.sum(grid.integral(np.abs(j_op) ** 2).real)) \
        + t**2 / (sigma + 1) * p_pot
    center = grid.integral(x * rho).real - t * momentum
    tail = grid.boundary_tail_fraction(u)
    return NLSInvariants(
        time=t, mass=mass, energy=energy, momentum=momentum,
        pseudo_conformal=pc, weighted_mass_center=center,
        boundary_tail=tail, support_ok=tail < SUPPORT_TAIL_THRESHOLD,
    )
