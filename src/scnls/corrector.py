"""First-order corrector pair (phi1, w) riding on a limit trajectory.

The next-order phase phi1 and amplitude w solve the linear system

    d_t phi1 + v . grad phi1 + 2*sigma*Re(conj(a) w) |a|^(2*sigma-2) = 0,
    d_t w    + v . grad w + grad phi1 . grad a
             + (1/2) w div v + (1/2) a Lap phi1 = (i/2) Lap a,
    phi1(0) = 0,   w(0) = a1,

with coefficients (v, a) read off the limit flow.  The corrected amplitude is
a_tilde = a * exp(i*phi1); |a_tilde| = |a| pointwise, and phi1 stays
identically zero when a0 is real-valued and a1 purely imaginary (the system
is then homogeneous in (phi1, Re(conj(a) w))).

Integration is classical RK4 (the limit solver's rk4_step) with spectral
derivatives and 2/3 dealiasing, run directly on (phi1, w); the corrector step
is twice the limit step so that RK4 stage times land exactly on stored limit
nodes (this preserves fourth-order self-convergence).  Coefficient
derivatives (div v, grad a, Lap a) are cached per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalGuardError
from .grid import Grid, node_index
from .limit import LimitState, LimitTrajectory, rk4_step


@dataclass(frozen=True)
class CorrectorState:
    grid: Grid
    time: float
    phi1: np.ndarray      # real
    w: np.ndarray         # complex first-order amplitude


@dataclass
class CorrectorTrajectory:
    grid: Grid
    sigma: int
    times: np.ndarray
    phi1: np.ndarray      # (nt, *shape) real
    w: np.ndarray         # (nt, *shape) complex
    dt: float

    def index_at(self, t: float) -> int:
        return node_index(self.times, t)

    def state(self, i: int) -> CorrectorState:
        return CorrectorState(grid=self.grid, time=float(self.times[i]),
                              phi1=self.phi1[i], w=self.w[i])

    def state_at(self, t: float) -> CorrectorState:
        return self.state(self.index_at(t))


@dataclass(frozen=True)
class CorrectedAmplitude:
    grid: Grid
    time: float
    a_tilde: np.ndarray


class _CoefficientCache:
    """Spectral coefficient fields of the limit flow, computed once per node."""

    def __init__(self, traj: LimitTrajectory):
        self.traj = traj
        self.grid = traj.grid
        self._div_v: dict[int, np.ndarray] = {}
        self._grad_a: dict[int, np.ndarray] = {}
        self._lap_a: dict[int, np.ndarray] = {}

    def at(self, i: int):
        g = self.grid
        if i not in self._div_v:
            self._div_v[i] = g.divergence(self.traj.v[i]).real
            self._grad_a[i] = g.gradient(self.traj.a[i])
            self._lap_a[i] = g.laplacian(self.traj.a[i])
        return (self.traj.v[i], self._div_v[i], self.traj.a[i],
                self._grad_a[i], self._lap_a[i])


def _rhs(phi1, w, coeffs, grid: Grid, sigma: int):
    v, div_v, a, grad_a, lap_a = coeffs
    grad_phi1 = grid.gradient(phi1)
    lap_phi1 = grid.laplacian(phi1).real
    abs_pow = np.abs(a) ** (2 * sigma - 2)
    adv_phi1 = sum(v[j] * grad_phi1[j].real for j in range(grid.dim))
    dphi1 = -(adv_phi1 + 2.0 * sigma * np.real(np.conj(a) * w) * abs_pow)
    grad_w = grid.gradient(w)
    adv_w = sum(v[j] * grad_w[j] for j in range(grid.dim))
    cross = sum(grad_phi1[j].real * grad_a[j] for j in range(grid.dim))
    dw = -(adv_w + cross + 0.5 * w * div_v + 0.5 * a * lap_phi1) + 0.5j * lap_a
    return grid.dealias(dphi1).real, grid.dealias(dw)


def evolve_corrector(limit_traj: LimitTrajectory,
                     a1: np.ndarray) -> CorrectorTrajectory:
    """Integrate the corrector pair over the limit trajectory's window.

    The limit trajectory must be stored at a uniform step h; the corrector
    step is 2h, so that the RK4 stage times hit stored nodes.
    """
    grid = limit_traj.grid
    sigma = limit_traj.sigma
    a1 = np.asarray(a1, dtype=complex)
    if a1.shape != grid.shape:
        raise ConfigError("initial.a1", "a1 shape does not match grid")
    times = limit_traj.times
    if times.size < 3:
        raise ConfigError("time.T", "limit trajectory too short for the corrector")
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h, rtol=0, atol=1e-9 * max(h, 1.0)):
        raise ConfigError("time.T", "limit trajectory nodes must be uniform")

    n_steps = (times.size - 1) // 2
    dtc = 2.0 * h
    cache = _CoefficientCache(limit_traj)

    phi1 = np.zeros(grid.shape)
    w = a1.copy()
    out_t = [float(times[0])]
    out_phi1 = [phi1.copy()]
    out_w = [w.copy()]
    for n in range(n_steps):
        i0 = 2 * n

        def rhs(y, c):
            return _rhs(*y, cache.at(i0 + int(2 * c)), grid, sigma)

        phi1, w = rk4_step(rhs, (phi1, w), dtc)
        if not (np.all(np.isfinite(phi1)) and np.all(np.isfinite(w.view(float)))):
            raise NumericalGuardError(
                f"corrector became non-finite at t={times[i0 + 2]:.6g}")
        out_t.append(float(times[i0 + 2]))
        out_phi1.append(phi1.copy())
        out_w.append(w.copy())

    return CorrectorTrajectory(
        grid=grid, sigma=sigma, times=np.asarray(out_t),
        phi1=np.asarray(out_phi1), w=np.asarray(out_w), dt=dtc,
    )


def tilde_amplitude(limit_state: LimitState,
                    corrector_state: CorrectorState) -> CorrectedAmplitude:
    """Corrected amplitude a*exp(i*phi1); the factor is unimodular so
    |a_tilde| = |a| pointwise."""
    if abs(limit_state.time - corrector_state.time) > 1e-9 * max(1.0, abs(limit_state.time)):
        raise ValueError(
            f"time mismatch: limit at t={limit_state.time}, "
            f"corrector at t={corrector_state.time}")
    return CorrectedAmplitude(
        grid=limit_state.grid, time=limit_state.time,
        a_tilde=limit_state.a * np.exp(1j * corrector_state.phi1),
    )
