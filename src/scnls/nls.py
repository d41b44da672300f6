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
also across steps inside an observation interval, so a yoshida4 step costs
three nonlinear substeps and three FFT pairs.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalGuardError
from .grid import Grid, node_index
from .presets import InitialData, snap_wavevector

# substep weights of each composition of the Strang step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
SCHEMES = {"strang": (1.0,), "yoshida4": (_W1, 1.0 - 2.0 * _W1, _W1)}

# most steps one run may take: a larger count is a step too small to finish
MAX_NLS_STEPS = 10**7
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
    self_check_factor: float = 0.05
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
        check_step_count(self.final_time, self.dt_raw)

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


def check_step_count(final_time: float, dt: float,
                     key: str = "physics.epsilon") -> None:
    """Reject a step that underflowed to zero or needs more than
    MAX_NLS_STEPS steps to reach final_time."""
    if not (dt > 0.0 and final_time / dt <= MAX_NLS_STEPS):
        raise ConfigError(key, f"time step {dt:.3g} needs more than "
                               f"{MAX_NLS_STEPS} steps to reach T={final_time:g}")


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

    def state_at(self, t: float) -> np.ndarray:
        return self.states[node_index(self.times, t)]


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


def _split_obs_interval(delta: float, dt_raw: float) -> int:
    return max(1, int(np.ceil(delta / dt_raw - 1e-12)))


def _evolve_raw(u0: np.ndarray, cfg: NLSConfig,
                obs_times: np.ndarray) -> tuple[list[np.ndarray], float]:
    grid = cfg.grid
    eps, sigma = cfg.epsilon, cfg.sigma
    deltas = np.diff(obs_times)
    m = _split_obs_interval(float(deltas[0]), cfg.dt_raw)
    dt = float(deltas[0]) / m
    k2 = grid.k_squared
    weights = SCHEMES[cfg.scheme]
    n_w = len(weights)
    n_sub = m * n_w  # substeps per observation interval
    halves = [np.exp(-1j * eps * k2 * (w * dt) / 4.0) for w in weights]
    # kick before substep j: the half steps of substeps j-1 and j merged
    # (kicks[0] joins the last substep of one step to the next step)
    kicks = [halves[j - 1] * halves[j] for j in range(n_w)]
    phases = [(-1j * (w * dt) / eps) for w in weights]

    def freeze(arr: np.ndarray) -> np.ndarray:
        # snapshots are shared read-only
        arr.setflags(write=False)
        return arr

    u = np.array(u0, dtype=complex)
    states = [freeze(u.copy())]
    for delta in deltas:
        if abs(delta - deltas[0]) > 1e-12 * max(1.0, abs(delta)):
            raise ConfigError("time.observation_count", "observation times must be uniform")
        uh = np.fft.fftn(u) * halves[0]
        for i in range(n_sub):
            u = np.fft.ifftn(uh)
            u = u * np.exp(phases[i % n_w] * np.abs(u) ** (2 * sigma))
            uh = np.fft.fftn(u) * (kicks[(i + 1) % n_w] if i < n_sub - 1
                                   else halves[-1])
        u = np.fft.ifftn(uh)
        if not np.all(np.isfinite(u.view(float))):
            raise NumericalGuardError(
                f"non-finite wavefunction at t={obs_times[len(states)]:.6g}; reduce dt0"
            )
        states.append(freeze(u.copy()))
    return states, dt


def evolve_nls(u0: np.ndarray, cfg: NLSConfig, obs_times=None) -> NLSTrajectory:
    """Integrate to final_time, returning snapshots at the observation times.

    obs_times must be uniformly spaced, starting at 0 and ending at
    final_time (default: 0 and final_time only).  The actual step divides the
    observation interval, rounded down from cfg.dt_raw.  With self_check
    enabled a step-doubling check follows: if the run took n steps, one more
    run with the same scheme covers [0, T] in n // 2 steps (2*n when n <= 3,
    where no coarser step is left) and stores only its end state.  If the
    final states differ by more than self_check_factor*eps*||u0|| in L2, it
    raises NumericalGuardError carrying the flagged trajectory.
    """
    grid = cfg.grid
    u0 = np.asarray(u0)
    if u0.shape != grid.shape:
        raise GridMismatchError(f"u0 shape {u0.shape} != grid shape {grid.shape}")
    if obs_times is None:
        obs_times = np.array([0.0, cfg.final_time])
    obs_times = np.asarray(obs_times, dtype=float)
    if obs_times[0] != 0.0 or abs(obs_times[-1] - cfg.final_time) > 1e-12:
        raise ConfigError("time.T", "observation times must span [0, final_time]")

    states, dt = _evolve_raw(u0, cfg, obs_times)
    traj = NLSTrajectory(
        grid=grid, epsilon=cfg.epsilon, sigma=cfg.sigma,
        times=obs_times.copy(), states=states, dt=dt,
        mass_history=np.array([grid.l2_norm(s) for s in states]),
    )
    if cfg.self_check:
        t_end = float(obs_times[-1])
        n = round(t_end / dt)
        n_check = n // 2 if n >= 4 else 2 * n
        check_cfg = replace(cfg, dt_override=t_end / n_check, self_check=False)
        check_states, traj.self_check_dt = _evolve_raw(
            u0, check_cfg, np.array([0.0, t_end]))
        err = grid.l2_norm(states[-1] - check_states[-1])
        tol = cfg.self_check_factor * cfg.epsilon * max(grid.l2_norm(u0), 1e-300)
        traj.self_check_error = err
        traj.self_check_ok = err <= tol
        if not traj.self_check_ok:
            raise NumericalGuardError(
                f"step-doubling self-check failed: |u_dt - u_2dt| = {err:.3e} "
                f"> {tol:.3e}; reduce dt0 (eps={cfg.epsilon}, dt={dt:.3e})",
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
                   sigma: int, tail_threshold: float = 1e-10) -> NLSInvariants:
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
        boundary_tail=tail, support_ok=tail < tail_threshold,
    )
