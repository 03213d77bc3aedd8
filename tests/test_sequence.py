from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from scramsey.bloch import GROUND, precess, rotate_inplane
from scramsey.errors import InvalidTimelineError
from scramsey.sequence import (
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


def oracle_matrix(timeline, frames):
    # independent route: compose scipy rotation matrices under the frame rule
    mat = np.eye(3)
    t = 0.0
    for event in timeline:
        if isinstance(event, Wait):
            step = Rotation.from_rotvec([0, 0, frames.delta_w * event.duration])
            t += event.duration
        else:
            azimuth = 0.0 if event.frame is Frame.W else (frames.delta_w - frames.delta_s) * t + frames.phi_s
            axis = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
            step = Rotation.from_rotvec(event.area * axis)
        mat = step.as_matrix() @ mat
    return mat


# ------------------------------------------------------------------- events


def test_wait_rejects_negative_duration():
    with pytest.raises(InvalidTimelineError):
        Wait(-1e-9)
    with pytest.raises(InvalidTimelineError):
        Wait(np.nan)


def test_pulse_rejects_bad_inputs():
    with pytest.raises(InvalidTimelineError):
        Pulse("W", 1.0)
    with pytest.raises(InvalidTimelineError):
        Pulse(Frame.W, np.inf)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Wait(10**400), "wait duration must be finite and >= 0, got 1000"),
        (lambda: Pulse.wri(10**400), "pulse area must be finite"),
        (lambda: Pulse.sri(-(10**400)), "pulse area must be finite"),
    ],
    ids=["wait", "wri", "sri"],
)
def test_an_event_value_beyond_the_float_range_is_an_invalid_timeline(build, message):
    # float() refuses such an integer with OverflowError, which is not a ValueError
    with pytest.raises(InvalidTimelineError, match=f"^{message}"):
        build()


def test_array_events_compare_and_hash_by_value():
    a = np.array([1e-3, 2e-3])
    assert Wait(a) == Wait(a.copy())
    assert Wait(a) != Wait(np.array([1e-3, 3e-3]))
    assert Wait(a) != Wait(1e-3)
    assert hash(Wait(a)) == hash(Wait(a.copy()))
    assert Pulse.sri(a) == Pulse.sri(a.copy())
    assert Pulse.sri(a) != Pulse.wri(a)
    assert Pulse.sri(a) != Wait(a)
    assert hash(Pulse.sri(a)) == hash(Pulse.sri(a.copy()))
    # -0.0 == 0.0, so their hashes must agree too
    assert Pulse.wri(np.array([-0.0, 1.0])) == Pulse.wri(np.array([0.0, 1.0]))
    assert hash(Pulse.wri(np.array([-0.0, 1.0]))) == hash(Pulse.wri(np.array([0.0, 1.0])))
    assert Timeline((Pulse.wri(a), Wait(a))) == Timeline((Pulse.wri(a.copy()), Wait(a.copy())))
    assert len({Wait(a), Wait(a.copy()), Wait(2 * a)}) == 2


def test_scalar_events_compare_and_hash_as_before():
    assert Wait(1e-3) == Wait(1e-3)
    assert Wait(0.0) == Wait(-0.0)
    assert Wait(1e-3) != Wait(2e-3)
    assert hash(Wait(1e-3)) == hash((1e-3,))
    assert hash(Pulse.wri(0.5)) == hash((Frame.W, 0.5))
    assert Pulse.wri(0.5) == Pulse(Frame.W, 0.5) != Pulse.sri(0.5)
    assert Wait(1.0).__eq__(1.0) is NotImplemented


def test_timeline_rejects_foreign_events():
    with pytest.raises(InvalidTimelineError):
        Timeline((Pulse.wri(1.0), "wait"))


def test_timeline_duration_and_pulse_times():
    tl = retrieved_ramsey(np.pi, 1e-3, 2e-3, 3e-3)
    assert tl.duration == pytest.approx(6e-3)


def test_retrieved_ramsey_shares_its_scramble_and_retrieve_pulse():
    t = retrieved_ramsey(1.2, 1e-3, 2e-3, 3e-3)
    assert t.events[2] is t.events[4] == Pulse.sri(1.2)
    assert t.events[0] is t.events[-1]


def test_empty_timeline_is_identity():
    fr = default_frames()
    v = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(simulate(Timeline(), fr, v), v)


def test_frameset_wraps_phi_and_validates():
    fr = FrameSet(1.0, 2.0, 2 * np.pi + 1.0)
    assert fr.phi_s == pytest.approx(1.0)
    fr = FrameSet(1.0, 2.0, np.array([-1e-20, 7.0]))
    assert np.all((0.0 <= fr.phi_s) & (fr.phi_s < 2 * np.pi))
    with pytest.raises(ValueError):
        FrameSet(np.inf, 1.0)
    with pytest.raises(ValueError):
        FrameSet(1.0, 1.0, np.nan)


@pytest.mark.parametrize("name, value", [("phi_s", np.nan), ("delta_w", "x"), ("delta_s", np.inf), ("phi_s", [0.5, np.inf])])
def test_a_frameset_field_refuses_a_bad_value_when_set(name, value):
    # the constructor's error and message, raised by the assignment itself and by replace, not later by a walk
    fields = {"delta_w": 2 * np.pi * 110.0, "delta_s": 2 * np.pi * 100.0, "phi_s": 0.3}
    with pytest.raises(ValueError) as made:
        FrameSet(**{**fields, name: value})
    fr = FrameSet(**fields)
    for write in (lambda: setattr(fr, name, value), lambda: replace(fr, **{name: value})):
        with pytest.raises(ValueError) as got:
            write()
        assert type(got.value) is type(made.value) and str(got.value) == str(made.value)
    assert fr == FrameSet(**fields)


def test_a_frameset_field_set_later_takes_the_constructors_rule():
    fr = default_frames()
    fr.phi_s = 100.0
    assert fr.phi_s.hex() == FrameSet(DELTA_W_REF, DELTA_S_REF, 100.0).phi_s.hex() == (100.0 % (2 * np.pi)).hex()
    fr.phi_s = np.array([-1e-20, 7.0])
    assert np.array_equal(fr.phi_s, FrameSet(DELTA_W_REF, DELTA_S_REF, np.array([-1e-20, 7.0])).phi_s)
    fr.delta_w = 10**3
    assert type(fr.delta_w) is float and fr.delta_w == 1000.0
    # the walk that once raised "a timeline phase overflowed" for a NaN set later never starts
    with pytest.raises(ValueError, match=r"^phi_s must be finite, got nan$"):
        fr.phi_s = np.nan
    assert simulate(scrambled_ramsey(1.0, 1e-3, 1e-3), fr).shape == (2, 3)


# ------------------------------------------------------------ two-frame rule


def test_sri_axis_angle_reference_values():
    fr = FrameSet(delta_w=2 * np.pi * 110.0, delta_s=2 * np.pi * 100.0, phi_s=0.0)
    assert sri_axis_angle(0.025, fr) == pytest.approx(np.pi / 2)
    fr = FrameSet(1.0, 1.0, 1.25)
    assert sri_axis_angle(0.0, fr) == pytest.approx(1.25)
    assert sri_axis_angle(123.0, fr) == pytest.approx(1.25)  # equal detunings never drift
    with pytest.raises(ValueError):
        sri_axis_angle(-1e-9, fr)


@pytest.mark.parametrize("time", [-1e-9, np.nan, np.inf])
def test_apply_event_checks_only_an_s_pulse_fire_time(time):
    fr = FrameSet(delta_w=2 * np.pi * 110.0, delta_s=2 * np.pi * 100.0, phi_s=0.3)
    state = np.array([0.6, 0.0, 0.8])
    with pytest.raises(ValueError, match=r"^pulse time must be finite and >= 0, got "):
        apply_event(state, Pulse.sri(1.1), time, fr)
    # a W pulse's axis and a wait's precession never read the time
    for event in (Pulse.wri(1.1), Wait(2e-3)):
        got, want = apply_event(state, event, time, fr), apply_event(state, event, 0.0, fr)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_an_overflowed_scalar_phase_is_an_invalid_timeline():
    # a scalar walk takes libm's cosine of a finite phase; an overflowed one must keep numpy's NaN (libm raises
    # ValueError), so that the non-finite state, not the cosine, reports it
    fr = FrameSet(delta_w=2 * np.pi * 110.0, delta_s=2 * np.pi * 100.0, phi_s=0.3)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            simulate(Timeline((Pulse.wri(np.pi / 2), Wait(1e306), Pulse.sri(np.pi))), fr)
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            apply_event(np.array([0.6, 0.0, 0.8]), Wait(1e306), 0.0, fr)
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            # the S axis overflows at this fire time
            apply_event(np.array([0.6, 0.0, 0.8]), Pulse.sri(np.pi), 1e307, fr)


def test_s_pulse_axis_uses_accumulated_wait_time():
    fr = FrameSet(delta_w=2 * np.pi * 110.0, delta_s=2 * np.pi * 100.0, phi_s=0.3)
    tl = Timeline((Wait(0.025), Pulse.sri(1.1)))
    got = simulate(tl, fr, GROUND)
    eta = (fr.delta_w - fr.delta_s) * 0.025 + 0.3
    want = rotate_inplane(precess(GROUND, fr.delta_w * 0.025), eta, 1.1)
    assert np.allclose(got, want, atol=1e-14)


def test_engine_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    fr = FrameSet(delta_w=2 * np.pi * 93.0, delta_s=2 * np.pi * 157.0, phi_s=0.71)
    tl = Timeline(
        (
            Pulse.wri(np.pi / 2),
            Wait(1.3e-3),
            Pulse.sri(2.1),
            Wait(0.4e-3),
            Pulse.sri(0.6),
            Wait(2.2e-3),
            Pulse.wri(np.pi / 2),
        )
    )
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert np.allclose(simulate(tl, fr, v), oracle_matrix(tl, fr) @ v, atol=1e-12)


def test_simulate_equals_last_trajectory_element():
    fr = default_frames(0.4)
    tl = scrambled_ramsey(np.pi / 2, 5e-3, 2e-3)
    # reference walk: one checked apply_event per event, at its absolute time
    path, t = [GROUND], 0.0
    for event in tl:
        path.append(apply_event(path[-1], event, t, fr))
        t += event.duration if isinstance(event, Wait) else 0.0
    assert len(path) == len(tl) + 1
    assert np.array_equal(simulate(tl, fr), path[-1])


def test_wait_zero_insertion_is_bit_identical():
    fr = default_frames(1.9)
    tl = retrieved_ramsey(1.2, 5e-3, 5e-3, 2e-3)
    padded = Timeline((Wait(0.0),) + tl.events[:3] + (Wait(0.0),) + tl.events[3:])
    assert np.array_equal(simulate(tl, fr), simulate(padded, fr))


def test_vectorized_phi_matches_scalar_runs():
    phis = np.array([0.0, 0.4, 2.2, 5.5])
    tl = scrambled_ramsey(0.8, 5e-3, 3e-3)
    got = simulate(tl, FrameSet(DELTA_W_REF, DELTA_S_REF, phis))
    want = np.array([simulate(tl, FrameSet(DELTA_W_REF, DELTA_S_REF, p)) for p in phis])
    assert np.allclose(got, want, atol=1e-15)


# --------------------------------------------------------- physics identities


def test_normal_ramsey_fringe_closed_form():
    fr = default_frames()
    for interval in np.linspace(0.0, 0.02, 41):
        v = simulate(ramsey(interval), fr)
        p = (1.0 - v[2]) / 2.0
        assert p == pytest.approx((1.0 + np.cos(fr.delta_w * interval)) / 2.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=50.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=0.02),
)
def test_property_scramble_retrieve_pair_descrambles(theta, phi, m, f_s, t_lead):
    # with delta_s * t2 an odd multiple of pi, the pulse pair reduces to the wait
    delta_s = 2 * np.pi * f_s
    t2 = (2 * m + 1) * np.pi / delta_s
    fr = FrameSet(DELTA_W_REF, delta_s, phi)
    rng = np.random.default_rng(99)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    pair = Timeline((Wait(t_lead), Pulse.sri(theta), Wait(t2), Pulse.sri(theta)))
    bare = Timeline((Wait(t_lead), Wait(t2)))
    assert np.allclose(simulate(pair, fr, v), simulate(bare, fr, v), atol=1e-9)


def test_detuned_store_does_not_descramble():
    delta_s = DELTA_S_REF
    t2 = (np.pi / 2) / delta_s  # quarter turn instead of half
    fr = FrameSet(DELTA_W_REF, delta_s, 0.9)
    pair = Timeline((Pulse.sri(np.pi / 2), Wait(t2), Pulse.sri(np.pi / 2)))
    bare = Timeline((Wait(t2),))
    v = np.array([0.0, -1.0, 0.0])
    assert not np.allclose(simulate(pair, fr, v), simulate(bare, fr, v), atol=1e-3)
