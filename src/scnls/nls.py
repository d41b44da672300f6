"""Split-step spectral integrators for the semiclassical NLS

    i*eps*du/dt + (eps^2/2)*Lap(u) = |u|^(2*sigma) * u,
    u(0) = (a0 + eps*a1) * exp(i*phi0/eps),

on the periodic cell.  One Strang step of size h is

    kinetic half step   u_hat <- cis(-eps*|xi|^2*h/4) * u_hat
    nonlinear full step u     <- u * cis(-h*|u|^(2*sigma)/eps)
    kinetic half step

with cis(theta) = exp(i*theta) written as cos and sin (grid.cis).  The
nonlinear step is a pointwise rotation by a real angle, taken from
|u|^2 = re^2 + im^2 with no square root and no complex exp.  Both substeps
preserve |u_hat| resp. |u| pointwise, so the L2 mass is conserved to
roundoff; the nonlinear step is exact because |u| is invariant under it.
A scheme is a composition of Strang substeps with weights summing to one
(SCHEMES): ``strang`` is the single substep, ``yoshida4`` Yoshida's
fourth-order triple jump h = (w1, 1 - 2*w1, w1)*dt with
w1 = 1/(2 - 2^(1/3)), and ``suzuki4`` Suzuki's fourth-order fractal
composition h = (p, p, 1 - 4*p, p, p)*dt with p = 1/(4 - 4^(1/3))
(Phys. Lett. A 146, 1990).  Kinetic half steps of neighbouring substeps
merge, also across steps and observation times (a snapshot is the step's
own spectrum times the last half step), so a yoshida4 step costs three
nonlinear substeps and three FFT pairs, a suzuki4 step five.

Each run steps at its scheme's law step (scheme_step: the accuracy law,
its stability cap and its floor) and takes the fourth-order composition
that pick_scheme gives it.  McLachlan's optimized five-stage composition
(SIAM J. Sci. Comput. 16, 1995) has largest |weight| 0.81, over suzuki4's
0.658, so its cap is shorter, and it is not offered.  The steps and
errors these give on the headline ladders are in README.

Every run verifies itself by step doubling: one more integration with the
same scheme at about 2*dt over the whole horizon, whose final state must
agree with the run's (the step-doubling guard; Hairer, Norsett & Wanner,
Solving ODEs I, II.4).  For an order-p scheme the pair's difference is
about 2^p - 1 times the run's own error, so a passed check bounds that
error with margin.

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
snapshots carry the bits of its lone run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field, replace

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalGuardError
from .grid import (SUPPORT_TAIL_THRESHOLD, Grid, check_stored_bytes, cis,
                   observation_steps)
from .presets import InitialData, snap_wavevector
from .records import Record

# substep weights of each composition of the Strang step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SCHEMES = {"strang": (1.0,), "yoshida4": (_W1, 1.0 - 2.0 * _W1, _W1),
           "suzuki4": (_P, _P, 1.0 - 4.0 * _P, _P, _P)}
# the accuracy constant c of each fourth-order composition's law step
# (scheme_step), and so the compositions pick_scheme chooses from
LAW_CONSTANTS = {"yoshida4": 1.0, "suzuki4": 1.664}

# the step-doubling guard's tolerance, in eps*||u0||_L2
SELF_CHECK_FACTOR = 0.05


class NLSConfig(Record):
    """One wavefunction run's settings, checked when made: ConfigError for
    a dt0 or dt_override not positive and finite (time.dt0, before any
    step is derived from it) or a final_time not positive (time.T)."""

    grid: Grid
    epsilon: float
    sigma: int
    final_time: float
    dt0: float = 0.01
    dt_override: float | None = None
    scheme: str = "strang"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}; "
                                        f"choose from {sorted(SCHEMES)}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("physics.epsilon", f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.sigma < 1:
            raise ConfigError("physics.sigma", f"sigma must be >= 1, got {self.sigma}")
        for step in (self.dt0, self.dt_override):
            if step is not None and not 0.0 < step < math.inf:
                raise ConfigError("time.dt0", f"time step must be positive and finite, got {step}")
        observation_steps(self.final_time, 2, self.dt_raw, "physics.epsilon")
        # an explicit step, and the strang law step, must be shorter than
        # the horizon; the longer law step of a fourth-order composition is
        # cut to the observation interval
        if ((self.dt_override is not None or self.scheme == "strang")
                and self.dt_raw >= self.final_time):
            raise ConfigError("time.dt0", "time step must be smaller than final_time")

    @property
    def dt_raw(self) -> float:
        """The step requested of the scheme: dt_override, or its law step on
        this grid (scheme_step)."""
        if self.dt_override is not None:
            return self.dt_override
        return scheme_step(self.scheme, self.dt0, self.epsilon,
                           min(self.grid.dx))


def scheme_step(scheme: str, dt0: float, epsilon: float, dx: float) -> float:
    """The law step of ``scheme`` at epsilon on a grid of smallest spacing dx.

    Strang steps at dt_s = dt0*eps.  A fourth-order composition with
    accuracy constant c (LAW_CONSTANTS) and largest |substep weight| w
    steps at

        h = max(c*sqrt(dt_s*eps), min(c*sqrt(dt0*eps), B/(4*w))),
        B = 2*dx^2/(pi*eps).

    c*sqrt(dt0*eps) is the accuracy law: the error, which scales like
    h^4/eps, then stays proportional to eps, like the WKB error it must stay
    under (Bao, Jin & Markowich, J. Comput. Phys. 175, 2002, on meshing
    strategies); c is 1 for yoshida4 and 1.664 for suzuki4, whose measured
    error constant is smaller.  A substep above B is unstable (Weideman &
    Herbst, SIAM J. Numer. Anal. 23, 1986), and the step-doubling check
    steps at about 2*h, so the cap B/(4*w) keeps its substeps under B/2, a
    margin that the headline sweeps need (B/(2*w) flags a row).  The floor
    c*sqrt(dt_s*eps) = c*sqrt(dt0)*eps, the former law, whose fourth-order
    error matches the Strang step's ((h/eps)^4 = (dt_s/eps)^2), keeps every
    run at most as many steps as that law took.
    """
    dt_strang = dt0 * epsilon
    if scheme == "strang":
        return dt_strang
    c = LAW_CONSTANTS[scheme]
    w = max(abs(x) for x in SCHEMES[scheme])
    # dx * dx, not dx**2, which raises OverflowError on a cell of 1e156
    cap = 2.0 * (dx * dx) / (math.pi * epsilon) / (4.0 * w)
    return max(c * math.sqrt(dt_strang * epsilon),
               min(c * math.sqrt(dt0 * epsilon), cap))


def _check_steps(n: int) -> int:
    """The step count of the step-doubling check of a run of n steps: n // 2,
    or 2*n when n <= 3, where no coarser step is left."""
    return n // 2 if n >= 4 else 2 * n


def pick_scheme(dt0: float, epsilon: float, dx: float, final_time: float,
                n_obs: int) -> str:
    """The fourth-order composition of a wavefunction run at epsilon, observed
    n_obs times over [0, final_time] on a grid of smallest spacing dx.

    Each composition in LAW_CONSTANTS steps at its law step (scheme_step),
    rounded down to divide the observation interval.  Among those whose
    step-doubling check keeps its largest substep w*T/_check_steps(n) under
    the stability bound B = 2*dx^2/(pi*eps), the one with the fewest
    substeps per observation interval wins; if neither does, the one with
    the shorter largest substep w*h.  suzuki4's smaller largest weight lets
    it step longer under the cap; where every step is cut to one per
    observation interval anyway, yoshida4's three substeps beat suzuki4's
    five.  A dt0 that is not positive and finite raises ConfigError
    (time.dt0); a composition whose run would exceed grid.MAX_STEPS ranks
    last, and the run's own step count check refuses it.
    """
    if not 0.0 < dt0 < math.inf:
        raise ConfigError("time.dt0", f"time step must be positive and finite, got {dt0}")
    bound = 2.0 * (dx * dx) / (math.pi * epsilon)

    def rank(scheme):
        weights = SCHEMES[scheme]
        w = max(abs(x) for x in weights)
        try:
            m, dt = observation_steps(final_time, n_obs,
                                      scheme_step(scheme, dt0, epsilon, dx),
                                      "physics.epsilon")
        except ConfigError:
            return (2, 0.0)
        check_dt = final_time / _check_steps(m * (n_obs - 1))
        if w * check_dt < bound:
            return (0, m * len(weights))
        return (1, w * dt)
    return min(LAW_CONSTANTS, key=rank)


class NLSTrajectory(Record):
    """One wavefunction run: its stored snapshots, step and step-doubling check."""

    grid: Grid
    epsilon: float
    sigma: int
    times: np.ndarray
    states: np.ndarray  # (n_obs, *grid.shape), read-only
    dt: float
    self_check_error: float
    self_check_dt: float

    @property
    def self_check_ok(self) -> bool:
        """The check's error is at most SELF_CHECK_FACTOR*eps*||u0||_L2."""
        return self.self_check_error <= (SELF_CHECK_FACTOR * self.epsilon
                                         * max(self.grid.l2_norm(self.states[0]), 1e-300))

    @property
    def mass_history(self) -> np.ndarray:
        """||u||_L2 of each snapshot."""
        return self.grid.l2_norm(self.states)


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
    return amp * cis(phase)


def _evolve_batch(u0s, cfgs, n_obs) -> list[tuple[np.ndarray, float]]:
    """Integrate a batch of runs in one split-step loop; (states, dt) each,
    states one read-only (n_obs[b], *grid.shape) block of snapshots.

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

    @functools.cache  # once per weight: the compositions are symmetric
    def kinetic(w):  # exp(-i*eps*|xi|^2*w*dt/4) of every member
        return cis(np.stack([-cfgs[b].epsilon * cfgs[b].grid.k_squared
                             * (w * steps[b][1]) / 4.0 for b in order]))
    last = kinetic(weights[-1])
    # kick before substep j: the half steps of substeps j-1 and j merged
    # (kicks[0] joins the last substep of one step to the next step)
    kicks = [kinetic(weights[j - 1] + weights[j]) for j in range(n_w)]
    # the nonlinear rotation angle per |u|^(2*sigma) of each substep
    phases = [np.array([-(w * steps[b][1]) / cfgs[b].epsilon for b in order]
                       ).reshape((-1,) + (1,) * grid.dim) for w in weights]
    # substep index -> members (positions in the sorted batch) that reach an
    # observation time after it
    bounds: dict[int, list[int]] = {}
    for p, b in enumerate(order):
        for r in range(1, n_obs[b]):
            bounds.setdefault(r * n_sub[b] - 1, []).append(p)

    u = np.stack([np.asarray(u0s[b], dtype=complex) for b in order])
    states = [np.empty((n_obs[b], *grid.shape), complex) for b in order]
    for block, row in zip(states, u):
        block[0] = row
    u = grid.ifft(grid.fft(u) * kinetic(weights[0]))
    rot = np.empty_like(u)
    k = len(order)
    for i in range(total[0]):
        u *= cis(phases[i % n_w][:k] * (u.real**2 + u.imag**2) ** sigma, rot[:k])
        uh = grid.fft(u)
        at = bounds.get(i)
        if at:
            # snapshots from the step's spectrum; the batch goes on below
            for p, snap in zip(at, grid.ifft(uh[at] * last[at])):
                r = (i + 1) // n_sub[order[p]]  # the observation index
                if not np.all(np.isfinite(snap.view(float))):
                    m, dt = steps[order[p]]
                    raise NumericalGuardError(
                        f"non-finite wavefunction at t={r * m * dt:.6g}; reduce dt0")
                states[p][r] = snap
            del snap  # a row of the observation's ifft block, which it keeps
            while k and total[k - 1] <= i + 1:
                k -= 1
        uh = uh[:k]
        uh *= kicks[(i + 1) % n_w][:k]
        u = grid.ifft(uh)

    out: list = [None] * len(order)
    for p, b in enumerate(order):
        states[p].setflags(write=False)  # snapshots are shared read-only
        out[b] = (states[p], steps[b][1])
    return out


def _evolve_raw(u0: np.ndarray, cfg: NLSConfig,
                n_obs: int) -> tuple[np.ndarray, float]:
    """The one-member form of _evolve_batch (bench/layers.py traces it)."""
    return _evolve_batch([u0], [cfg], [n_obs])[0]


def evolve_nls_batch(u0s, cfgs, n_obs: int = 2) -> list[NLSTrajectory]:
    """Integrate several runs in one split-step loop, one trajectory each.

    Each run is observed at np.linspace(0, final_time, n_obs) of its own
    final_time (default: 0 and final_time), its trajectory's times; n_obs
    < 2 raises ConfigError before any run steps.  Each run's step divides the
    observation interval, rounded down from its cfg.dt_raw.  Each run brings
    its step-doubling check into the same loop: if the run takes n steps, one
    more member with the same scheme covers [0, T] in n // 2 steps (2*n when
    n <= 3, where no coarser step is left) and stores only its end state.
    If the final states differ by more than SELF_CHECK_FACTOR*eps*||u0|| in
    L2, the run's trajectory is flagged (self_check_ok False); nothing is
    raised for it.
    """
    members = []
    for u0, cfg in zip(u0s, cfgs):
        u0 = np.asarray(u0)
        if u0.shape != cfg.grid.shape:
            raise GridMismatchError(f"u0 shape {u0.shape} != grid shape {cfg.grid.shape}")
        m, _ = observation_steps(cfg.final_time, n_obs, cfg.dt_raw,
                                 "time.observation_count")
        n_check = _check_steps(m * (n_obs - 1))
        members += [(u0, cfg, n_obs),
                    (u0, replace(cfg, dt_override=cfg.final_time / n_check), 2)]

    results = _evolve_batch(*zip(*members)) if members else []
    return [NLSTrajectory(
        grid=cfg.grid, epsilon=cfg.epsilon, sigma=cfg.sigma,
        times=np.linspace(0.0, cfg.final_time, n_obs), states=states, dt=dt,
        self_check_error=cfg.grid.l2_norm(states[-1] - check[-1]), self_check_dt=check_dt,
    ) for (_, cfg, _), (states, dt), (check, check_dt) in zip(
        members[::2], results[::2], results[1::2])]


def evolve_nls(u0: np.ndarray, cfg: NLSConfig, n_obs: int = 2) -> NLSTrajectory:
    """Integrate one run to final_time, returning snapshots at the n_obs
    observation times: the one-run case of evolve_nls_batch, with its
    contract.  A failed step-doubling check flags the trajectory
    (self_check_ok False, self_check_error over the tolerance) and raises
    nothing; a non-finite snapshot raises NumericalGuardError.
    """
    return evolve_nls_batch([u0], [cfg], n_obs)[0]


class NLSInvariants(Record):
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
