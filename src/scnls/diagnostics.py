"""Modulated-amplitude diagnostics comparing a wavefunction with the limit flow.

Given a wavefunction u at scale eps and the limit pair (a, phi), the filtered
amplitude is a_eps = u * exp(-i*phi/eps) (same modulus as u, oscillations
removed).  From it:

* q_eps = B(|a_eps|^2, |a|^2)/eps -- the rescaled symmetrized density
  gap; with g_eps = G(...), eps*q_eps*g_eps = |a_eps|^(2s) - |a|^(2s);
* the transport residual of beta_eps = eps*q_eps,
      d_t beta + eps*g*div Im(conj(a_eps) grad a_eps)
               + v.grad beta + (s+1)/2 * beta * div v,
  over three equally spaced records (central difference over their
  times; g_eps formed at the middle one);
* the local energy density e_eps = |a_eps|^2 + |grad a_eps|^2 + |q_eps|^2,
  whose integral obeys a Gronwall envelope with a constant measured from the
  limit solution;
* position/current density gaps with their expected small-eps rates.

Everything is read off a_eps (one forward transform per record), so no
record keeps u or its gradient: since |exp(i*phi/eps)| = 1, the WKB error
||u - b*exp(i*phi/eps)|| of an amplitude b equals ||a_eps - b||, and the
current Im(eps*conj(u) grad u) is |a_eps|^2 grad phi + Im(eps*conj(a_eps)
grad a_eps).  sigma, the grid and the Sobolev order k of the uniform bounds
(sobolev_index) come from the limit state; a record is complete when it is
built and carries its eps and sigma to the calls that read it.  A record
may take a stack of snapshots with the limit state stacked alike
(LimitTrajectory.state of a slice); its values are then per snapshot, each
the bits of that snapshot's own record.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatchError
from .grid import Grid, cis, per_value
from .limit import LimitState, LimitTrajectory
from .records import Record, frozen_record
from .sigma_algebra import b_sigma, g_sigma


def modulate(u: np.ndarray, phi_total: np.ndarray, epsilon: float,
             grid: Grid) -> np.ndarray:
    """Filtered amplitude u * exp(-i*phi/eps).

    phi_total must contain the full phase samples (periodic part plus any
    linear part built from a lattice-snapped wavevector, so that the factor
    is grid-periodic).  |result| = |u| pointwise.
    """
    u, phi_total = np.asarray(u), np.asarray(phi_total)
    if u.shape[-grid.dim:] != grid.shape or phi_total.shape != u.shape:
        raise GridMismatchError("wavefunction/phase shape does not match grid")
    # not u * cis(...): numpy elides a temporary of 256 KiB or more into
    # cis(...) * u, which rounds differently, so a stack would lose the bits
    return np.multiply(u, cis(-phi_total / epsilon))


def q_g_fields(a_eps: np.ndarray, a: np.ndarray, epsilon: float,
               sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """(q_eps, g_eps) with eps*q_eps*g_eps = |a_eps|^(2s) - |a|^(2s)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    r1 = np.abs(np.asarray(a_eps)) ** 2
    r2 = np.abs(np.asarray(a)) ** 2
    beta = b_sigma(r1, r2, sigma)
    g = g_sigma(r1, r2, sigma)
    return beta / epsilon, g


def sobolev_index(sigma: int, dim: int) -> int:
    """Order k of the uniform bound: 2 for sigma=1 in any dimension (a free
    choice) and for sigma=2 in 1-D (forced), 1 for sigma=2 in dim>=2, and
    sigma for sigma>=3."""
    if sigma >= 3:
        return sigma
    if sigma == 2 and dim >= 2:
        return 1
    return 2


@frozen_record
class DiagnosticsRecord(Record):
    """Per-snapshot modulation diagnostics, built from the filtered
    amplitude a_eps and the limit state alone.  The transport residual
    spans three records and is computed by residual_transport."""

    time: float | np.ndarray
    epsilon: float
    sigma: int
    a_eps: np.ndarray                    # filtered amplitude
    psi_eps: np.ndarray                  # grad a_eps, shape (dim, *shape)
    q_eps: np.ndarray
    a_eps_hk: float | np.ndarray         # ||a_eps||_{H^k}
    q_eps_hkm1: float | np.ndarray       # ||q_eps||_{H^(k-1)}
    modulated_energy: float | np.ndarray  # int |a_eps|^2 + |grad a_eps|^2 + |q_eps|^2


def diagnostics_record(u: np.ndarray, limit_state: LimitState,
                       epsilon: float) -> DiagnosticsRecord:
    """The record of the wavefunction u (or a stack of snapshots) against
    the limit state at its time, limit_state.time, with the uniform-bound
    norms ||a_eps||_{H^k} and ||q_eps||_{H^(k-1)} of the order
    k = sobolev_index(sigma, dim) of the limit run."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grid, sigma = limit_state.grid, limit_state.sigma
    k = sobolev_index(sigma, grid.dim)
    a_eps = modulate(u, limit_state.phi_total(), epsilon, grid)
    a_eps_h = grid.fft(a_eps)  # for grad a_eps and its H^k norm
    psi = grid.ifft(grid.spectral_gradient(a_eps_h))
    q = b_sigma(np.abs(a_eps) ** 2, np.abs(limit_state.a) ** 2, sigma) / epsilon
    return DiagnosticsRecord(
        time=limit_state.time, epsilon=epsilon, sigma=sigma, a_eps=a_eps,
        psi_eps=psi, q_eps=q,
        a_eps_hk=grid.sobolev_norm(a_eps_h, k, space="spectral"),
        q_eps_hkm1=grid.sobolev_norm(q, k - 1),
        modulated_energy=_modulated_energy(a_eps, psi, q, grid))


def _modulated_energy(a_eps: np.ndarray, psi: np.ndarray, q: np.ndarray,
                      grid: Grid) -> np.ndarray | float:
    """int (|a_eps|^2 + |grad a_eps|^2 + |q_eps|^2); nonnegative."""
    # one sum over grad a_eps's components and grid axes, as one field's norm
    psi2 = np.sum(np.abs(psi) ** 2, axis=(0, *range(-grid.dim, 0)))
    return per_value(lambda a, q, p2: a ** 2 + q ** 2 + math.sqrt(p2) ** 2,
                     grid.l2_norm(a_eps), grid.l2_norm(q), psi2 * grid.cell_volume)


def gronwall_constant(limit_traj: LimitTrajectory) -> float:
    """Envelope constant sigma*max|div v| + 2*max|grad v| + max|grad div v| + 1
    measured along the computed limit flow, over every step (the +1 absorbs
    lower-order terms)."""
    c = (limit_traj.sigma * limit_traj.div_v_max + 2.0 * limit_traj.grad_v_max
         + limit_traj.grad_div_v_max + 1.0)
    return float(np.max(c))


def residual_transport(rec_prev: DiagnosticsRecord, rec_mid: DiagnosticsRecord,
                       rec_next: DiagnosticsRecord, limit_state: LimitState) -> float:
    """L2 norm of the beta = eps*q_eps transport residual at rec_mid.

    Uses a central difference over the records' times t-h, t, t+h for
    d_t beta; they must be in time order, equally spaced and of one epsilon
    and sigma.  Converges at the combined central-difference + solver order
    as h -> 0; identically zero (to roundoff) for matched plane-wave data
    where beta vanishes.
    """
    h1 = rec_mid.time - rec_prev.time
    h2 = rec_next.time - rec_mid.time
    if not h1 > 0 or abs(h2 - h1) > 1e-9 * max(h1, 1.0):
        raise ValueError("snapshots must be in time order and equally spaced")
    if len({(r.epsilon, r.sigma) for r in (rec_prev, rec_mid, rec_next)}) > 1:
        raise ValueError("records must share one epsilon and sigma")
    grid = limit_state.grid
    sigma = rec_mid.sigma
    eps = rec_mid.epsilon
    beta = [r.epsilon * r.q_eps for r in (rec_prev, rec_mid, rec_next)]
    g = g_sigma(np.abs(rec_mid.a_eps) ** 2, np.abs(limit_state.a) ** 2, sigma)
    dbeta_dt = (beta[2] - beta[0]) / (rec_next.time - rec_prev.time)
    flux = grid.divergence(np.imag(np.conj(rec_mid.a_eps) * rec_mid.psi_eps)).real
    v = limit_state.v
    adv = np.sum(v * grid.gradient(beta[1]).real, axis=0)
    div_v = grid.divergence(v).real
    resid = (dbeta_dt + eps * g * flux + adv
             + 0.5 * (sigma + 1) * beta[1] * div_v)
    return grid.l2_norm(resid)


@frozen_record
class DensityMetrics(Record):
    """Position and current density gaps of one snapshot (density_metrics)."""

    pos_err_lsp1: float | np.ndarray       # || |a_eps|^2 - |a|^2 ||_{L^{s+1}}
    cur_err_transport: float | np.ndarray  # || (|a_eps|^2-|a|^2) grad phi ||_{L^{s+1}}
    cur_err_l1: float | np.ndarray         # || Im(eps conj(a_eps) grad a_eps) ||_{L^1}


def density_metrics(record: DiagnosticsRecord,
                    limit_state: LimitState) -> DensityMetrics:
    """Position/current density gaps in the norms where they converge."""
    grid, sigma, epsilon = limit_state.grid, record.sigma, record.epsilon
    gap = np.abs(record.a_eps) ** 2 - np.abs(limit_state.a) ** 2
    p = sigma + 1
    pos = grid.lebesgue_norm(gap, p)
    v_mag = np.sqrt(np.sum(limit_state.v ** 2, axis=0))
    cur_t = grid.lebesgue_norm(gap * v_mag, p)
    cur_field = np.sqrt(np.sum(
        np.imag(epsilon * np.conj(record.a_eps) * record.psi_eps) ** 2, axis=0))
    cur_1 = grid.lebesgue_norm(cur_field, 1)
    return DensityMetrics(pos_err_lsp1=pos, cur_err_transport=cur_t, cur_err_l1=cur_1)
