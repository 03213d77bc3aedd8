"""Simulator of a scramble/retrieve Ramsey quantum memory.

One two-level ensemble is driven by two phase-incoherent interferometers:
a write/read pair records a state, a scramble pulse hides it behind the
random relative frame phase, and a correctly timed retrieve pulse brings
it back.  The package provides the Bloch-sphere kernel, the two-frame
pulse-timeline engine, fringe/ambiguity analysis, the secure yes/no
recording protocol, an experiment emulator with shot noise, and a
scenario-driven CLI.
"""

from .analysis import (
    AmbiguityReport,
    FlopCurve,
    FlopFamily,
    ScrambleAreaResult,
    SDBV,
    ambiguity_report,
    default_intervals,
    normal_flop,
    optimize_scramble_area,
    phi_grid,
    retrieved_flop,
    scrambled_flop,
    sdbv,
    sdbv_projection_xz,
)
from .bloch import (
    EXCITED,
    GROUND,
    excitation_probability,
    precess,
    rotate_inplane,
    validate_state,
    wrap_angle,
)
from .errors import (
    IndeterminateReadoutError,
    InfeasibleTimingError,
    InvalidStateError,
    InvalidTimelineError,
    ProtocolMisconfigurationError,
    ScenarioError,
    SimulationError,
)
from .expsim import (
    FitResult,
    NoiseModel,
    TrialStats,
    damp_contrast,
    damped_sinusoid,
    fit_damped_sinusoid,
    initial_guess,
    project_noise,
    run_trials,
)
from .harness import load_scenario, run_scenario, validate_scenario
from .protocol import (
    Choice,
    ProtocolConfig,
    decode_choice,
    default_config,
    encode_choice,
    faithful_read_delay,
    retrieve_delay,
    run_secure_choice,
    secrecy_check,
    secure_choice_timeline,
    secure_read_delay,
    smallest_secure_k,
    validate_secure_config,
)
from .sequence import (
    DELTA_S_REF,
    DELTA_W_REF,
    Frame,
    FrameSet,
    Pulse,
    Timeline,
    Wait,
    apply_event,
    default_frames,
    ramsey,
    retrieved_ramsey,
    scrambled_ramsey,
    simulate,
    sri_axis_angle,
)

__version__ = "0.1.0"
