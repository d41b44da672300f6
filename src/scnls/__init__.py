"""scnls: a desk-scale workbench for the semiclassical defocusing NLS,
its compressible hydrodynamic limit, and first-order WKB correctors."""

__version__ = "0.1.0"

from .grid import Grid
from .errors import ConfigError, GridMismatchError, NumericalGuardError, ScnlsError
from .sigma_algebra import b_sigma, c_sigma_bound, f_sigma, g_sigma, p_sigma, q_sigma
from .presets import InitialData, snap_wavevector
from .nls import (NLSConfig, NLSTrajectory, build_initial_data, evolve_nls,
                  evolve_nls_batch, nls_invariants)
from .limit import (BlowupReport, EulerInvariants, LimitState, LimitTrajectory,
                    blowup_monitor, euler_invariants, evolve_limit,
                    focusing_demo, reconstruct_phase)
from .corrector import evolve_corrector, tilde_amplitude
from .diagnostics import (DensityMetrics, DiagnosticsRecord, density_metrics,
                          diagnostics_record, gronwall_constant, modulate,
                          q_g_fields, residual_transport)
from .sweep import FitResult, SweepPlan, SweepResult, fit_rate, run_sweep
from .config import RunConfig, parse_config

__all__ = [
    "Grid", "ConfigError", "GridMismatchError", "NumericalGuardError", "ScnlsError",
    "b_sigma", "c_sigma_bound", "f_sigma", "g_sigma", "p_sigma", "q_sigma",
    "InitialData", "snap_wavevector",
    "NLSConfig", "NLSTrajectory", "build_initial_data", "evolve_nls",
    "evolve_nls_batch", "nls_invariants",
    "BlowupReport", "EulerInvariants", "LimitState", "LimitTrajectory",
    "blowup_monitor", "euler_invariants", "evolve_limit", "focusing_demo",
    "reconstruct_phase",
    "evolve_corrector", "tilde_amplitude",
    "DensityMetrics", "DiagnosticsRecord", "density_metrics", "diagnostics_record",
    "gronwall_constant", "modulate", "q_g_fields", "residual_transport",
    "FitResult", "SweepPlan", "SweepResult", "fit_rate", "run_sweep",
    "RunConfig", "parse_config",
]
