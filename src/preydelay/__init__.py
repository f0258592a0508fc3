"""Stage-structured predator-prey dynamics with a state-dependent maturation delay.

The package simulates a logistic prey coupled to a two-stage predator whose
maturation time grows with the mature stock, and verifies the system's
qualitative behavior numerically: permanence exactly when the predator net
reproduction number exceeds one, eventual boundedness, linearized stability
of each equilibrium, and global attraction of the coexistence state under
explicit interference conditions.

The names of :mod:`preydelay.stability` and :mod:`preydelay.analysis` load on
first access, and NumPy loads inside the functions that make or read arrays
(trajectories, sampling, validation grids), so that ``import preydelay``, and
every CLI call that needs none of them (``equilibria``), does not pay for
importing them.
"""

from importlib import import_module as _import_module

from .delays import DelayFunction, constant_delay, exp_delay, make_delay, saturating_delay
from .engine import (IntegrationError, LagDomainError, PositivityViolation,
                     StepperConfig, StepSizeUnderflow, Trajectory,
                     default_stepper, export_csv, integrate,
                     integrate_scalar_sdtd, lag_times, yj_integral)
from .equilibria import (Equilibrium, EquilibriumKind, NoConvergenceError,
                         WindingError, boundary_equilibria, solve_coexistence,
                         steady_state_residual, yj_star)
from .model import (HistoryConsistencyWarning, HistoryFunction, ModelParams,
                    ModelSpec, ValidationReport, boundedness_limit,
                    consistent_history, constant_history,
                    constant_plus_sine_history, correction_factor,
                    history_consistency_error, reproduction_number,
                    tabulated_history, validate)
from .responses import (FunctionalResponse, ResponseKind,
                        beddington_deangelis, crowley_martin, eval_response,
                        holling1, holling2, holling3, ivlev, linear,
                        make_response, power_law, saturation)

_LAZY = {
    "stability": ("ConditionReport", "LinearizationCoeffs", "QuasiPolynomial",
                  "StabilityVerdict", "Verdict", "characteristic_eval",
                  "check_global_conditions", "classify_equilibrium",
                  "imaginary_crossings", "linearize_at", "quasi_polynomial",
                  "rightmost_abscissa"),
    "analysis": ("BoundednessCertificate", "BracketSequences",
                 "ComparisonReport", "ConvergenceReport", "DichotomyVerdict",
                 "InconclusiveError", "ScalarLimitResult",
                 "boundedness_certificate", "comparison_probe",
                 "extrapolated_limits", "global_attraction_probe",
                 "monotone_bounds", "permanence_probe", "scalar_fixed_point",
                 "scalar_limit", "spread_histories"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_LAZY_HOME))

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
