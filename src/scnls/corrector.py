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

The pair is integrated inside the limit run, as two more components of its
classical RK4 state (scnls.limit.evolve_limit with a1): every stage
evaluates this module's right-hand side on the limit stage's (v, a) and the
div v and grad a its right-hand side already computed, with spectral
derivatives and 2/3 dealiasing.  evolve_corrector reads the carried pair off
the limit trajectory, on its stored nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, node_index

if TYPE_CHECKING:  # scnls.limit imports this module for _rhs
    from .limit import LimitState, LimitTrajectory


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
    dt: float | None      # the limit run's step, None if adapted

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


def _rhs(phi1, w, v, a, div_v, grad_a, grid: Grid, sigma: int):
    grad_phi1 = grid.gradient(phi1).real
    lap_phi1 = grid.laplacian(phi1).real
    abs_pow = np.abs(a) ** (2 * sigma - 2)
    adv_phi1 = np.sum(v * grad_phi1, axis=0)
    dphi1 = -(adv_phi1 + 2.0 * sigma * np.real(np.conj(a) * w) * abs_pow)
    grad_w = grid.gradient(w)
    adv_w = np.sum(v * grad_w, axis=0)
    cross = np.sum(grad_phi1 * grad_a, axis=0)
    dw = (-(adv_w + cross + 0.5 * w * div_v + 0.5 * a * lap_phi1)
          + 0.5j * grid.laplacian(a))
    return grid.dealias(dphi1).real, grid.dealias(dw)


def evolve_corrector(limit_traj: LimitTrajectory) -> CorrectorTrajectory:
    """The corrector pair carried by a limit run started with
    evolve_limit(..., a1=a1), on the run's stored nodes."""
    if limit_traj.w is None:
        raise ValueError("the limit run carried no corrector: "
                         "pass a1 to evolve_limit")
    return CorrectorTrajectory(
        grid=limit_traj.grid, sigma=limit_traj.sigma, times=limit_traj.times,
        phi1=limit_traj.phi1, w=limit_traj.w, dt=limit_traj.dt,
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
