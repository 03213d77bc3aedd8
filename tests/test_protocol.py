"""Secure-choice protocol: timing solvers, determinism, secrecy."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramsey import protocol
from scramsey.analysis import phi_grid
from scramsey.bloch import _GROUND_XYZ, TWO_PI, _checked_probability, excitation_probability
from scramsey.errors import (
    IndeterminateReadoutError,
    InfeasibleTimingError,
    ProtocolMisconfigurationError,
)
from scramsey.protocol import (
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
    store_phase_problem,
    validate_secure_config,
)
from scramsey.sequence import (
    DELTA_S_REF,
    DELTA_W_REF,
    FrameSet,
    Pulse,
    Timeline,
    Wait,
    _walk_z,
    default_frames,
    simulate,
)

# ---------------------------------------------------------------- timings


def test_retrieve_delay_reference_values():
    # delta_s = 2*pi*100 rad/s: odd half turns at 5, 15, 75 ms
    assert retrieve_delay(DELTA_S_REF) == pytest.approx(5e-3, rel=1e-12)
    assert retrieve_delay(DELTA_S_REF, m=1) == pytest.approx(15e-3, rel=1e-12)
    assert retrieve_delay(DELTA_S_REF, m=7) == pytest.approx(75e-3, rel=1e-12)


def test_retrieve_delay_scales_with_detuning():
    assert retrieve_delay(2 * DELTA_S_REF) == pytest.approx(2.5e-3, rel=1e-12)


@pytest.mark.parametrize("bad_m", [-1, 0.5, 1.5])
def test_retrieve_delay_rejects_bad_m(bad_m):
    with pytest.raises(ValueError):
        retrieve_delay(DELTA_S_REF, m=bad_m)


@pytest.mark.parametrize("bad_delta", [0.0, -1.0, np.inf, np.nan])
def test_retrieve_delay_rejects_bad_detuning(bad_delta):
    with pytest.raises(ValueError):
        retrieve_delay(bad_delta)


def test_faithful_read_delay_reference_values():
    assert faithful_read_delay(DELTA_W_REF) == pytest.approx(5e-3, rel=1e-12)
    assert faithful_read_delay(DELTA_W_REF, n=2) == pytest.approx(25e-3, rel=1e-12)


def test_faithful_read_delay_lands_on_fringe_minimum():
    # write pi/2, wait, read pi/2 returns the ground state exactly
    frames = default_frames()
    tl = Timeline((Pulse.wri(np.pi / 2), Wait(faithful_read_delay(DELTA_W_REF)), Pulse.wri(np.pi / 2)))
    assert excitation_probability(simulate(tl, frames)) < 1e-12


def test_smallest_secure_k_values():
    frames = default_frames()
    assert smallest_secure_k(frames, 5e-3, 5e-3) == 1  # exactly one turn
    assert smallest_secure_k(frames, 5e-3, 15e-3) == 2
    assert smallest_secure_k(frames, 6e-3, 5e-3) == 2  # 1.1 turns -> round up
    assert smallest_secure_k(frames, 0.0, 0.0) == 0


def test_secure_read_delay_reference_values():
    frames = default_frames()
    t2 = retrieve_delay(frames.delta_s)
    # t1 + t2 = 10 ms is one full W turn already
    assert secure_read_delay(frames, 5e-3, t2) == pytest.approx(0.0, abs=1e-15)
    # each extra turn of the W frame is one full 10 ms period
    assert secure_read_delay(frames, 5e-3, t2, k=2) == pytest.approx(10e-3, rel=1e-12)
    assert secure_read_delay(frames, 5e-3, t2, k=4) == pytest.approx(30e-3, rel=1e-12)
    # 1.25 turns accumulated: wait the remaining 0.75
    assert secure_read_delay(frames, 7.5e-3, t2) == pytest.approx(7.5e-3, rel=1e-12)


def test_secure_read_delay_clamps_a_rounding_residue_to_zero():
    # one turn plus 1e-12 of one: the raw read delay is about -1e-14 s, inside the phase tolerance, so it reads 0.0
    frames, t1 = default_frames(), 0.01 * (1 + 1e-12)
    assert (TWO_PI * smallest_secure_k(frames, t1, 0.0) - frames.delta_w * t1) / frames.delta_w < 0.0
    t3 = secure_read_delay(frames, t1, 0.0)
    assert t3 == 0.0 and np.copysign(1.0, t3) == 1.0


def test_secure_read_delay_infeasible_k():
    frames = default_frames()
    with pytest.raises(InfeasibleTimingError):
        secure_read_delay(frames, 5e-3, 5e-3, k=0)


def test_secure_read_delay_rejects_bad_args():
    frames = default_frames()
    with pytest.raises(ValueError):
        secure_read_delay(frames, -1e-3, 5e-3)
    with pytest.raises(ValueError):
        secure_read_delay(frames, 5e-3, 5e-3, k=-1)
    with pytest.raises(ValueError):
        secure_read_delay(FrameSet(-DELTA_W_REF, DELTA_S_REF), 5e-3, 5e-3)


def test_total_phase_is_whole_turns():
    frames = default_frames()
    for t1 in (2e-3, 5e-3, 7.3e-3, 11e-3):
        for m in (0, 1, 2):
            t2 = retrieve_delay(frames.delta_s, m)
            t3 = secure_read_delay(frames, t1, t2)
            phase = frames.delta_w * (t1 + t2 + t3)
            assert abs(phase / (2 * np.pi) - round(phase / (2 * np.pi))) < 1e-9


# ------------------------------------------------------------ config


def test_default_config_reference_timings():
    config = default_config()
    assert config.t1 == pytest.approx(5e-3, rel=1e-12)
    assert config.t2 == pytest.approx(5e-3, rel=1e-12)
    assert config.t3 == pytest.approx(0.0, abs=1e-15)
    validate_secure_config(config)


def test_default_config_longer_store():
    config = default_config(m=1)
    assert config.t2 == pytest.approx(15e-3, rel=1e-12)
    assert config.t3 == pytest.approx(0.0, abs=1e-15)
    config = default_config(m=1, k=3)
    assert config.t3 == pytest.approx(10e-3, rel=1e-12)
    validate_secure_config(config)


def test_config_rejects_negative_timing():
    with pytest.raises(ValueError):
        ProtocolConfig(frames=default_frames(), t1=-1e-3, t2=5e-3, t3=0.0)


@pytest.mark.parametrize(
    "patch",
    [
        {"t2": 2.5e-3},  # store phase pi/2, retrieve will not descramble
        {"t3": 1e-3},  # total W phase off a whole turn
        {"scramble_area": np.pi / 2},
        {"read_area": np.pi},
    ],
)
def test_validate_secure_config_rejects(patch):
    base = default_config()
    kwargs = dict(
        frames=base.frames,
        t1=base.t1,
        t2=base.t2,
        t3=base.t3,
        scramble_area=base.scramble_area,
        read_area=base.read_area,
    )
    kwargs.update(patch)
    with pytest.raises(ProtocolMisconfigurationError):
        validate_secure_config(ProtocolConfig(**kwargs))


def test_store_phase_problem_is_the_message_validation_raises():
    base = default_config()
    assert store_phase_problem(base.frames.delta_s, base.t2) is None
    problem = store_phase_problem(base.frames.delta_s, 2.5e-3)
    assert problem == (
        f"delta_s * t2 = {base.frames.delta_s * 2.5e-3!r} rad is not an odd multiple of pi; "
        "the retrieve pulse will not descramble"
    )
    detuned = ProtocolConfig(frames=base.frames, t1=base.t1, t2=2.5e-3, t3=base.t3)
    with pytest.raises(ProtocolMisconfigurationError) as err:
        validate_secure_config(detuned)
    assert str(err.value) == problem


def test_validate_secure_config_accepts_coterminal_areas():
    base = default_config()
    validate_secure_config(
        ProtocolConfig(
            frames=base.frames,
            t1=base.t1,
            t2=base.t2,
            t3=base.t3,
            scramble_area=3 * np.pi,
            read_area=np.pi / 2 + 2 * np.pi,
        )
    )


# ------------------------------------------------------- encode / decode


def test_encode_choice():
    assert encode_choice(Choice.YES) == np.pi / 2
    assert encode_choice(Choice.NO) == 3 * np.pi / 2
    with pytest.raises(ValueError):
        encode_choice("maybe")


def test_decode_choice():
    assert decode_choice(1.0) == Choice.YES
    assert decode_choice(0.97) == Choice.YES
    assert decode_choice(0.0) == Choice.NO
    assert decode_choice(0.03) == Choice.NO
    assert decode_choice(0.5, threshold=0.4) == Choice.YES


def test_decode_choice_indeterminate():
    with pytest.raises(IndeterminateReadoutError):
        decode_choice(0.5)


@pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
def test_decode_choice_rejects_bad_probability(bad):
    with pytest.raises(ValueError):
        decode_choice(bad)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
def test_decode_choice_rejects_bad_threshold(bad):
    with pytest.raises(ValueError):
        decode_choice(0.7, threshold=bad)


# ------------------------------------------------------------- readout


def test_secure_choice_timeline_shape():
    tl = secure_choice_timeline(Choice.YES, default_config())
    assert len(tl) == 7
    assert tl.duration == pytest.approx(10e-3, rel=1e-12)


def test_secure_choice_timeline_shares_its_scramble_and_retrieve_pulse():
    config = default_config()
    t = secure_choice_timeline(Choice.NO, config)
    assert t.events[2] is t.events[4] == Pulse.sri(config.scramble_area)


def test_readout_deterministic_over_shot_phase():
    config = default_config()
    for phi in phi_grid(64):
        assert run_secure_choice(Choice.YES, phi, config) == pytest.approx(1.0, abs=1e-12)
        assert run_secure_choice(Choice.NO, phi, config) == pytest.approx(0.0, abs=1e-12)


def test_readout_roundtrip():
    config = default_config(m=1, k=3)
    rng = np.random.default_rng(7)
    for choice in Choice.ALL:
        for phi in rng.uniform(0.0, 2 * np.pi, size=8):
            assert decode_choice(run_secure_choice(choice, phi, config)) == choice


def test_run_secure_choice_validates_first():
    base = default_config()
    broken = ProtocolConfig(frames=base.frames, t1=base.t1, t2=2.5e-3, t3=base.t3)
    with pytest.raises(ProtocolMisconfigurationError):
        run_secure_choice(Choice.YES, 0.0, broken)


@pytest.mark.parametrize("patch", [{"t2": 2.5e-3}, {"scramble_area": 3.0}], ids=["t2", "scramble_area"])
def test_a_config_changed_after_a_good_read_is_checked_again(patch):
    config = default_config()
    run_secure_choice(Choice.YES, 0.3, config)
    for name, value in patch.items():
        setattr(config, name, value)
    with pytest.raises(ProtocolMisconfigurationError) as checked:
        validate_secure_config(config)
    for _ in range(2):
        with pytest.raises(ProtocolMisconfigurationError) as read:
            run_secure_choice(Choice.YES, 0.3, config)
        assert str(read.value) == str(checked.value)


def test_a_broken_config_raises_on_every_read():
    base = default_config()
    broken = ProtocolConfig(frames=base.frames, t1=base.t1, t2=2.5e-3, t3=base.t3)
    for choice in (Choice.YES, Choice.YES, Choice.NO):
        with pytest.raises(ProtocolMisconfigurationError, match="not an odd multiple of pi"):
            run_secure_choice(choice, 0.0, broken)


def test_a_config_is_checked_once_per_distinct_set_of_values():
    first, second = default_config(t1=3.1e-3), default_config(t1=3.2e-3)
    copy = ProtocolConfig(frames=first.frames, t1=first.t1, t2=first.t2, t3=first.t3)
    protocol._VALID_CONFIGS.clear()  # so that earlier reads cannot fill it up to its limit mid-test
    with mock.patch.object(protocol, "validate_secure_config", wraps=validate_secure_config) as check:
        for config in (first, second, copy, first, second):
            for choice in Choice.ALL:
                run_secure_choice(choice, 1.0, config)
    assert [call.args[0] for call in check.call_args_list] == [first, second]


@pytest.mark.parametrize(
    "name, value",
    [("t3", float("nan")), ("scramble_area", float("nan")), ("read_area", float("inf")), ("delta_s", float("inf"))],
)
def test_a_non_finite_phase_condition_is_rejected(name, value):
    config = default_config()
    if name == "delta_s":
        # a frames field refuses the value when set; forced in past that rule, the config check still catches it
        with pytest.raises(ValueError, match=r"^delta_s must be finite, got inf$"):
            config.frames.delta_s = value
        object.__setattr__(config.frames, name, value)
    else:
        setattr(config, name, value)
    with pytest.raises(ProtocolMisconfigurationError):
        validate_secure_config(config)
    with pytest.raises(ProtocolMisconfigurationError):
        run_secure_choice(Choice.YES, 0.3, config)


def test_store_phase_problem_rejects_a_nan_phase():
    assert store_phase_problem(float("nan"), 1.0) == (
        "delta_s * t2 = nan rad is not an odd multiple of pi; the retrieve pulse will not descramble"
    )


def test_the_checked_configs_are_forgotten_at_64():
    configs = [default_config(t1=1e-3 + i * 1e-4) for i in range(65)]
    protocol._VALID_CONFIGS.clear()
    with mock.patch.object(protocol, "validate_secure_config", wraps=validate_secure_config) as check:
        for config in configs:
            run_secure_choice(Choice.YES, 1.0, config)
        assert check.call_count == 65
        first = configs[0]
        for choice in Choice.ALL:
            frames = FrameSet(first.frames.delta_w, first.frames.delta_s, 1.234)
            want = _checked_probability(_walk_z(secure_choice_timeline(choice, first), frames, _GROUND_XYZ))
            assert run_secure_choice(choice, 1.234, first).hex() == want.hex()
    assert [call.args[0] for call in check.call_args_list[65:]] == [first]


def test_an_unknown_choice_raises_encode_choices_error_cold_and_warm():
    config = default_config(t1=4.4e-3)
    protocol._VALID_CONFIGS.clear()
    with pytest.raises(ValueError) as want:
        encode_choice("maybe")
    for cached in (0, 1):
        assert len(protocol._VALID_CONFIGS) == cached
        with pytest.raises(ValueError) as got:
            run_secure_choice("maybe", 0.3, config)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf, 10**400, np.array([0.1, np.nan])], ids=["nan", "inf", "-inf", "huge", "array"])
def test_a_read_refuses_a_bad_shot_phase_with_the_frames_message(phi):
    # a read puts its phase through the rule a FrameSet applies, cold and warm, before it walks
    config = default_config(t1=4.7e-3)
    with pytest.raises(ValueError) as want:
        FrameSet(config.frames.delta_w, config.frames.delta_s, phi)
    assert str(want.value).startswith("phi_s must be finite")
    protocol._VALID_CONFIGS.clear()
    for _ in range(2):
        with pytest.raises(ValueError) as got:
            run_secure_choice(Choice.YES, phi, config)
        assert type(got.value) is ValueError and str(got.value) == str(want.value)


@pytest.mark.parametrize("choice", Choice.ALL)
def test_an_array_of_shot_phases_gives_one_read_per_phase(choice):
    # phases of any shape and sign, some past 2*pi, a list among them: each is wrapped as a FrameSet wraps it
    config = _secure_configs()[2]
    for phi in (np.array([[0.0, 1.0, 7.0], [-2.0, 3.5, 100.0]]), [0.25, -0.0, 2 * np.pi]):
        frames = FrameSet(config.frames.delta_w, config.frames.delta_s, phi)
        want = _checked_probability(_walk_z(secure_choice_timeline(choice, config), frames, _GROUND_XYZ))
        got = run_secure_choice(choice, phi, config)
        assert got.shape == np.shape(phi) and got.tobytes() == want.tobytes()


def test_read_errors_come_config_then_shot_phase_then_choice():
    base = default_config()
    broken = ProtocolConfig(frames=base.frames, t1=base.t1, t2=2.5e-3, t3=base.t3)
    with pytest.raises(ProtocolMisconfigurationError):
        run_secure_choice("maybe", np.nan, broken)
    with pytest.raises(ValueError, match="phi_s must be finite"):
        run_secure_choice("maybe", np.nan, base)


@pytest.mark.parametrize(
    "name, bad",
    [
        # each negative delay keeps delta_s * t2 an odd multiple of pi and the total W phase a whole turn
        ("t1", lambda c: -c.t2),
        ("t2", lambda c: -c.t1),
        ("t3", lambda c: -(c.t1 + c.t2)),
        ("t2", lambda c: float("nan")),
    ],
    ids=["t1=-t2", "t2=-t1", "t3=-(t1+t2)", "t2=nan"],
)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_config_changed_to_a_bad_delay_is_a_misconfiguration(name, bad, warm):
    config = default_config()
    value = bad(config)
    want = f"{name} must be finite and >= 0, got {value!r}"
    with pytest.raises(ValueError) as made:
        ProtocolConfig(**{"frames": config.frames, "t1": config.t1, "t2": config.t2, "t3": config.t3, name: value})
    assert type(made.value) is ValueError and str(made.value) == want
    protocol._VALID_CONFIGS.clear()
    if warm:
        run_secure_choice(Choice.YES, 0.3, config)
    setattr(config, name, value)
    with pytest.raises(ProtocolMisconfigurationError) as checked:
        validate_secure_config(config)
    assert str(checked.value) == want
    # the delay is reported before a bad shot phase and an unknown choice, and on every read
    for choice, phi in ((Choice.YES, 0.3), ("maybe", np.nan), (Choice.NO, 0.3)):
        with pytest.raises(ProtocolMisconfigurationError) as read:
            run_secure_choice(choice, phi, config)
        assert str(read.value) == want
    assert len(protocol._VALID_CONFIGS) == int(warm)


def _secure_configs() -> list:
    """The reference config, a longer store with a later read, and one at detunings of its own."""
    frames = FrameSet(2 * np.pi * 137.0, 2 * np.pi * 61.0)
    t2 = retrieve_delay(frames.delta_s, 2)
    return [
        default_config(),
        default_config(t1=7.3e-3, m=1, k=3),
        ProtocolConfig(frames=frames, t1=3.7e-3, t2=t2, t3=secure_read_delay(frames, 3.7e-3, t2, 9)),
    ]


@pytest.mark.parametrize("phi", [1.234, phi_grid(64)], ids=["scalar", "grid"])
@pytest.mark.parametrize("choice", Choice.ALL)
def test_reads_from_the_cached_head_match_a_walk_of_the_whole_timeline(choice, phi):
    for config in _secure_configs():
        frames = FrameSet(config.frames.delta_w, config.frames.delta_s, phi)
        want = _checked_probability(_walk_z(secure_choice_timeline(choice, config), frames, _GROUND_XYZ))
        for _ in range(2):  # the first read may walk the head, the second finds it cached
            got = run_secure_choice(choice, phi, config)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    t1=st.floats(min_value=1e-4, max_value=2e-2),
    m=st.integers(min_value=0, max_value=3),
    extra_k=st.integers(min_value=0, max_value=2),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    yes=st.booleans(),
)
def test_readout_deterministic_property(t1, m, extra_k, phi, yes):
    frames = default_frames()
    t2 = retrieve_delay(frames.delta_s, m)
    k = smallest_secure_k(frames, t1, t2) + extra_k
    config = ProtocolConfig(frames=frames, t1=t1, t2=t2, t3=secure_read_delay(frames, t1, t2, k))
    choice = Choice.YES if yes else Choice.NO
    expected = 1.0 if yes else 0.0
    assert run_secure_choice(choice, phi, config) == pytest.approx(expected, abs=1e-9)


def test_readout_needs_retrieve_pulse():
    # drop the retrieve pulse: the readout sweeps the full [0, 1] band
    config = default_config()
    for choice in Choice.ALL:
        tl = Timeline(
            (
                Pulse.wri(encode_choice(choice)),
                Wait(config.t1),
                Pulse.sri(config.scramble_area),
                Wait(config.t2 + config.t3),
                Pulse.wri(config.read_area),
            )
        )
        frames = FrameSet(config.frames.delta_w, config.frames.delta_s, phi_grid(256))
        p = excitation_probability(simulate(tl, frames))
        assert p.min() < 1e-9 and p.max() > 1.0 - 1e-9


# -------------------------------------------------------------- secrecy


def test_secrecy_of_scrambled_record():
    assert secrecy_check(default_config()) < 1e-12


def test_secrecy_negative_control():
    # a pi/2 scramble leaks: the two sorted sample sets separate
    base = default_config()
    leaky = ProtocolConfig(frames=base.frames, t1=base.t1, t2=base.t2, t3=base.t3, scramble_area=np.pi / 2)
    assert secrecy_check(leaky) > 0.1


def test_secrecy_check_rejects_tiny_grid():
    with pytest.raises(ValueError):
        secrecy_check(default_config(), phi_samples=8)


@pytest.mark.parametrize("phi_samples", [17, 18, 30, 257])
def test_secrecy_check_rejects_a_grid_that_is_not_a_multiple_of_4(phi_samples):
    with pytest.raises(ValueError, match="multiple of 4"):
        secrecy_check(default_config(), phi_samples)


@pytest.mark.parametrize("phi_samples", [16, 20, 64, 256])
def test_a_pi_scramble_shows_no_gap_on_every_grid_the_check_accepts(phi_samples):
    assert secrecy_check(default_config(), phi_samples) < 1e-12


# ------------------------------------------- secrecy against a stronger reader
#
# The yes and no writes (pi/2 and 3*pi/2 about +x) leave the ground state on
# the equator, pi apart in azimuth, and the t1 hold turns both alike.  A pi
# scramble about the axis at azimuth eta = (delta_w - delta_s) * t1 + phi_s
# sends an equatorial azimuth theta to 2 * eta - theta, so the no state at
# phi_s is the yes state at phi_s - pi/2.  On a phi grid closed under a pi/2
# shift (a multiple of 4 phases) the two sets of scrambled states are equal,
# and whatever a reader then does without phi_s (a hold, a W pulse of any
# area) maps equal sets to equal sets: the sorted readouts agree.

READ_AREAS = np.linspace(0.0, np.pi, 9)
READ_DELAY_TURNS = np.linspace(0.0, 1.0, 9)  # hold delays over [0, 2*pi/delta_w]
SECRECY_FRAMES = [default_frames(), FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0)]


def _reader_gaps(readouts):
    """Largest |sorted yes - sorted no| over the phi axis (last), for each reader; axis 0 holds yes, no."""
    yes, no = np.sort(readouts, axis=-1)
    return np.abs(yes - no).max(axis=-1)


def _engine_readouts(frames, t1, scramble_area, phi_samples):
    """P_e of yes and no for every (read area, hold delay, phi_s), shape (2, areas, delays, phi), through the engine."""
    writes = np.array([encode_choice(Choice.YES), encode_choice(Choice.NO)])[:, None, None, None]
    delays = (READ_DELAY_TURNS * TWO_PI / frames.delta_w)[:, None]
    timeline = Timeline(
        (Pulse.wri(writes), Wait(t1), Pulse.sri(scramble_area), Wait(delays), Pulse.wri(READ_AREAS[:, None, None]))
    )
    shots = FrameSet(frames.delta_w, frames.delta_s, phi_grid(phi_samples))
    return excitation_probability(simulate(timeline, shots))


def _rodrigues(axis, angle):
    """Right-hand rotation matrices about the unit ``axis`` (..., 3) by ``angle`` (...): I + sin K + (1 - cos) K^2."""
    kx, ky, kz = np.moveaxis(np.asarray(axis, dtype=float), -1, 0)
    zero = np.zeros_like(kx)
    k = np.stack([np.stack([zero, -kz, ky], -1), np.stack([kz, zero, -kx], -1), np.stack([-ky, kx, zero], -1)], -2)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _rodrigues_readouts(frames, t1, scramble_area, phi_samples):
    """The same readouts as :func:`_engine_readouts`, from 3x3 rotation matrices applied in order."""
    phis = phi_grid(phi_samples)
    x_axis, z_axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    eta = (frames.delta_w - frames.delta_s) * t1 + phis
    scramble = _rodrigues(np.stack([np.cos(eta), np.sin(eta), np.zeros_like(eta)], -1), scramble_area)
    out = np.empty((2, READ_AREAS.size, READ_DELAY_TURNS.size, phi_samples))
    for c, choice in enumerate(Choice.ALL):
        stored = scramble @ _rodrigues(z_axis, frames.delta_w * t1) @ _rodrigues(x_axis, encode_choice(choice)) @ z_axis
        for a, area in enumerate(READ_AREAS):
            for d, turns in enumerate(READ_DELAY_TURNS):
                # a delay of whole turns precesses by 2*pi * turns
                read = _rodrigues(x_axis, area) @ _rodrigues(z_axis, TWO_PI * turns)
                out[c, a, d] = (1.0 - (stored @ read.T)[:, 2]) / 2.0
    return out


@pytest.mark.parametrize("frames", SECRECY_FRAMES, ids=["reference", "detuned"])
def test_a_pi_scramble_hides_the_choice_from_every_read_area_and_hold(frames):
    config = default_config()
    gaps = _reader_gaps(_engine_readouts(frames, config.t1, np.pi, 64))
    assert gaps.shape == (READ_AREAS.size, READ_DELAY_TURNS.size)
    assert gaps.max() <= 1e-12


@pytest.mark.parametrize("frames", SECRECY_FRAMES, ids=["reference", "detuned"])
def test_an_off_pi_scramble_leaks_what_the_rotation_matrices_predict(frames):
    config = default_config()
    engine = _engine_readouts(frames, config.t1, 0.8 * np.pi, 64)
    matrices = _rodrigues_readouts(frames, config.t1, 0.8 * np.pi, 64)
    assert np.allclose(engine, matrices, rtol=0.0, atol=1e-12)
    leak = _reader_gaps(matrices)
    assert np.allclose(_reader_gaps(engine), leak, rtol=0.0, atol=1e-12)
    # a read area of 0 or pi sees only +-z, which the scramble leaves alike for both choices; a pi/8 one sees a leak
    assert leak[[0, -1]].max() <= 1e-12 and leak.max() > 0.25


def test_a_grid_that_is_not_a_multiple_of_4_would_read_a_leak_that_is_not_there():
    # the readouts the secrecy check sorts, on the 18-phase grid it now rejects
    config = default_config()
    gaps = _reader_gaps(_engine_readouts(config.frames, config.t1, np.pi, 18))
    assert gaps[4, 0] > 0.1  # read area pi/2, no hold: the check's own reader
