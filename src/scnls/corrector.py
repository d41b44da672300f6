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
derivatives and 2/3 dealiasing.  The limit trajectory stores the pair as
its phi1 and w on its nodes, and its states carry them; this module adds no
container of its own.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


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


def evolve_corrector(limit_traj):
    """The limit trajectory itself, once it is checked to carry the
    corrector pair: a run started with evolve_limit(..., a1=a1)."""
    if limit_traj.w is None:
        raise ValueError("the limit run carried no corrector: "
                         "pass a1 to evolve_limit")
    return limit_traj


def tilde_amplitude(limit_state) -> np.ndarray:
    """Corrected amplitude a*exp(i*phi1) of a limit state that carries the
    corrector pair; the factor is unimodular so |a_tilde| = |a| pointwise."""
    if limit_state.phi1 is None:
        raise ValueError("the limit state carries no corrector: "
                         "pass a1 to evolve_limit")
    return limit_state.a * np.exp(1j * limit_state.phi1)
