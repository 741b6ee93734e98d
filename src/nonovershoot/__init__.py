"""Extremum-seeking nonovershooting tracking for strict-feedback systems
with unknown control direction."""

from .averaging import (DeviationStudy, averaged_rhs, deviation_study,
                        dither_coupling, effective_damping, simulate_averaged)
from .control import (LyapunovSpec, NussbaumState, SafetySwitch, es_control,
                      example_lyapunov_spec, lyapunov_grad_last, lyapunov_value,
                      lyapunov_weight, nominal_backstepping, nussbaum_control,
                      safety_filter)
from .model import (BlowupError, ConstantReference, GainFloorViolation, Reference,
                    Scenario, SineReference, SystemModel, eval_dynamics,
                    example_system, get_reference, get_system, reference_stack,
                    register_system)
from .sim import (OvershootReport, SweepResult, Trajectory, overshoot_report,
                  refine_dt, rk4_step, run_scenario, sweep)
from .synth import (BoundReport, DriftBound, GainConfig, GainVerdict, InitSignError,
                    bound_report, check_gains, default_drift_bound, error_coords,
                    error_drift, gain_floors, demo_gains, scale_drift_bound,
                    state_from_errors, virtual_controllers)

__version__ = "0.1.0"
