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
transforms grad phi1 and Lap phi1 to the grid with its real fields, and w and
grad w with its complex ones; this module's right-hand side forms the pair's
products there, in the limit stage's workspace, from those and the stage's
v, a, div v and grad a, and makes the linear source (i/2) Lap a a multiplier
on the spectrum of a.  The limit stage takes the products back in its own
forward transforms, subtracts the source and, as for its own rows, takes -P
of them, P the projection onto the 2/3 band.
The limit trajectory stores the pair as its phi1 and w on its nodes, and its
states carry them; this module adds no container of its own.
"""

from __future__ import annotations

import numpy as np

from .grid import cis


def _rhs(grad_phi1, lap_phi1, fields, v, div_v, rated, a_h, ws):
    """The pair's products in a joint stage, in the limit workspace ws, summed
    over j as sum(0) adds: those of d_t phi1 into ws.pr[-2], those of d_t w
    into ws.pc[2] (v.grad w on entry), from S, a, w with gradients (fields)
    and rated = (sigma/2 S, a/2, w/2); returns the spectrum of the source
    (i/2) Lap a, which the limit stage subtracts before its -P."""
    (a, w), grad_a, dphi1, dw = fields[0, 1:], fields[1:, 1], ws.pr[-2], ws.pc[2]
    np.multiply(v[0], grad_phi1[0], out=dphi1)
    term = grad_phi1[0] * grad_a[0]  # grad phi1 . grad a, then each term of dw
    for j in range(1, len(v)):
        dphi1 += v[j] * grad_phi1[j]
        term += grad_phi1[j] * grad_a[j]
    dw += term
    dphi1 += 2.0 * ws.sigma * (np.conj(a) * w).real * np.abs(a) ** (2 * ws.sigma - 2)
    dw += np.multiply(rated[2], div_v, out=term)
    dw += np.multiply(rated[1], lap_phi1, out=term)
    return 0.5j * (ws.lap_c * a_h)


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
