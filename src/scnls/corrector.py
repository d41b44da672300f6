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
spectral RK4 state (scnls.limit.evolve_limit with a1: phi1 as an rfftn half
spectrum, w as a full spectrum).  At every stage the limit right-hand side
transforms grad phi1 and Lap phi1 to the grid with its real fields, and w
and grad w with its complex ones; this module's right-hand side forms the
pair's products there, from those and the stage's v, a, div v and grad a,
and adds the linear source (i/2) Lap a as a multiplier on the spectrum of
a.  The limit stage takes the products back in its own forward transforms
and projects the pair's derivatives onto the 2/3 band.  The limit trajectory
stores the pair as its phi1 and w on its nodes, and its states carry them;
this module adds no container of its own.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, cis


def _rhs(grad_phi1, lap_phi1, w, grad_w, v, a, div_v, grad_a, a_h,
         grid: Grid, sigma: int):
    """The pair's time derivatives at one joint stage: d_t phi1 and the
    product part of d_t w on the grid, and the spectrum of the linear
    source (i/2) Lap a (a_h is the spectrum of a)."""
    abs_pow = np.abs(a) ** (2 * sigma - 2)
    dphi1 = -(np.sum(v * grad_phi1, axis=0)
              + 2.0 * sigma * np.real(np.conj(a) * w) * abs_pow)
    dw = -(np.sum(v * grad_w, axis=0) + np.sum(grad_phi1 * grad_a, axis=0)
           + 0.5 * w * div_v + 0.5 * a * lap_phi1)
    return dphi1, dw, 0.5j * grid.spectral_laplacian(a_h)


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
    # np.multiply, as diagnostics.modulate
    return np.multiply(limit_state.a, cis(limit_state.phi1))
