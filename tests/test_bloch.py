import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from scramsey.bloch import (
    _GROUND_XYZ,
    EXCITED,
    GROUND,
    TWO_PI,
    Z_TOL,
    _checked_probability,
    _precess,
    _rotate,
    excitation_probability,
    precess,
    rotate_inplane,
    validate_state,
    wrap_angle,
)
from scramsey.errors import InvalidStateError

angles = st.floats(min_value=-8 * np.pi, max_value=8 * np.pi)
azimuths = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@st.composite
def states(draw):
    # polar/azimuth parametrization keeps vectors exactly unit-normed enough
    th = draw(st.floats(min_value=0.0, max_value=np.pi))
    ph = draw(azimuths)
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def oracle_inplane(v, azimuth, angle):
    # independent implementation: scipy rotation about the in-plane axis
    axis = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    return Rotation.from_rotvec(angle * axis).apply(v)


def oracle_precess(v, phase):
    return Rotation.from_rotvec([0.0, 0.0, phase]).apply(v)


# ---------------------------------------------------------------- fixed values


def test_quarter_turn_about_x_sends_ground_to_minus_y():
    out = rotate_inplane(GROUND, 0.0, np.pi / 2)
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-15)


def test_pi_rotation_known_value():
    out = rotate_inplane([1.0, 0.0, 0.0], 2 * np.pi / 3, np.pi)
    assert np.allclose(out, [-0.5, -np.sqrt(3) / 2, 0.0], atol=1e-15)


def test_precess_quarter_turn():
    out = precess([1.0, 0.0, 0.0], np.pi / 2)
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_zero_angle_is_bitwise_identity():
    v = np.array([0.3, -0.4, 0.5])
    assert np.array_equal(rotate_inplane(v, 1.234, 0.0), v)
    assert np.array_equal(precess(v, 0.0), v)


def test_excitation_probability_poles_and_equator():
    assert excitation_probability(GROUND) == 0.0
    assert excitation_probability(EXCITED) == 1.0
    assert excitation_probability([1.0, 0.0, 0.0]) == 0.5
    assert excitation_probability([0.0, -1.0, 0.0]) == 0.5


def test_excitation_probability_clips_numerical_overshoot():
    assert excitation_probability([0.0, 0.0, 1.0 + 1e-12]) == 0.0
    assert excitation_probability([0.0, 0.0, -1.0 - 1e-12]) == 1.0


def test_excitation_probability_rejects_unphysical_z():
    with pytest.raises(InvalidStateError):
        excitation_probability([0.0, 0.0, 1.1])


def test_rotate_rejects_non_finite():
    with pytest.raises(ValueError):
        rotate_inplane([np.nan, 0.0, 0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        rotate_inplane(GROUND, np.inf, 1.0)
    # an integer beyond the float range fails the rule like NaN
    with pytest.raises(ValueError, match="^axis_azimuth must be finite$"):
        rotate_inplane(GROUND, [10**400], 1.0)
    with pytest.raises(ValueError):
        precess(GROUND, np.nan)


def test_rotate_rejects_bad_shape():
    with pytest.raises(ValueError):
        rotate_inplane([1.0, 0.0], 0.0, 1.0)


def test_validate_state_norm_bound():
    validate_state([1.0, 0.0, 0.0])
    validate_state([0.1, 0.2, 0.3])
    with pytest.raises(InvalidStateError):
        validate_state([1.1, 0.0, 0.0])


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * np.pi) == 0.0
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert 0.0 <= wrap_angle(-1e-20) < 2 * np.pi
    assert np.all(wrap_angle(np.array([-1e-20, 7.0])) < 2 * np.pi)


def test_scalar_wrap_angle_is_np_mod_bit_for_bit():
    two_pi = 2 * np.pi
    rng = np.random.default_rng(8)
    spread = 10.0 ** rng.uniform(-320, 300, 4000) * rng.choice([-1.0, 1.0], 4000)
    edges = [0.0, -0.0, 5e-324, -5e-324, -1e-320, -1e-300, -1e-17, np.pi, -np.pi, np.nextafter(two_pi, 0.0)]
    multiples = [k * two_pi for k in (1, -1, 2, -2, 3, -7, 1e6, -1e6)]
    angles = edges + multiples + spread.tolist()
    for angle in angles:
        a = np.mod(angle, two_pi)
        expected = 0.0 if a >= two_pi else float(a)
        got = wrap_angle(angle)
        assert type(got) is float and got.hex() == expected.hex(), angle
        # the array path applies the same rule
        assert wrap_angle(np.array([angle]))[0].hex() == expected.hex(), angle


def test_scalar_checked_probability_is_the_array_path_bit_for_bit():
    # a float z (Python or numpy) skips numpy's reductions; at the clip edges
    # and at the tolerance band it must give the array path's bits and message
    band = 1.0 + Z_TOL
    inside = [1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324, band, -band, np.nan]
    inside += [np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
    inside += np.random.default_rng(9).uniform(-band, band, 400).tolist()
    for z, want in zip(inside, _checked_probability(np.array(inside))):
        for scalar in (float(z), np.float64(z)):
            got = _checked_probability(scalar)
            assert type(got) is float and np.float64(got).view(np.int64) == want.view(np.int64), z
    for z in [np.nextafter(band, 2.0), -np.nextafter(band, 2.0), 2.0, -1e300, np.inf, -np.inf]:
        with pytest.raises(InvalidStateError) as array_error:
            _checked_probability(np.array([z]))
        for scalar in (float(z), np.float64(z)):
            with pytest.raises(InvalidStateError) as scalar_error:
                _checked_probability(scalar)
            assert str(scalar_error.value) == str(array_error.value)


# ------------------------------------------------------------ oracle checks


def test_rotate_matches_scipy_oracle_bulk():
    rng = np.random.default_rng(42)
    v = unit_vectors(rng, 500)
    for azimuth, angle in rng.uniform(-10, 10, size=(50, 2)):
        got = rotate_inplane(v, azimuth, angle)
        assert np.allclose(got, oracle_inplane(v, azimuth, angle), atol=1e-12)


def test_precess_matches_scipy_oracle_bulk():
    rng = np.random.default_rng(43)
    v = unit_vectors(rng, 500)
    for phase in rng.uniform(-10, 10, size=50):
        assert np.allclose(precess(v, phase), oracle_precess(v, phase), atol=1e-12)


def test_norm_preserved_over_1e5_samples():
    rng = np.random.default_rng(7)
    v = unit_vectors(rng, 100_000)
    azimuth = rng.uniform(0, 2 * np.pi, size=100_000)
    angle = rng.uniform(-10, 10, size=100_000)
    out = rotate_inplane(v, azimuth, angle)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12
    out = precess(v, angle)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


def test_broadcasting_matches_scalar_loop():
    rng = np.random.default_rng(11)
    v = unit_vectors(rng, 8)
    azimuth = rng.uniform(0, 2 * np.pi, size=8)
    got = rotate_inplane(GROUND, azimuth, 1.1)
    want = np.array([rotate_inplane(GROUND, a, 1.1) for a in azimuth])
    assert np.allclose(got, want, atol=1e-15)
    got = rotate_inplane(v, 0.7, 1.1)
    want = np.array([rotate_inplane(u, 0.7, 1.1) for u in v])
    assert np.allclose(got, want, atol=1e-15)


# ---------------------------------------------------------------- properties


@settings(max_examples=150, deadline=None)
@given(states(), azimuths, angles)
def test_property_norm_preserved(v, azimuth, angle):
    out = rotate_inplane(v, azimuth, angle)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(states(), azimuths, angles)
def test_property_opposite_axis_inverts(v, azimuth, angle):
    out = rotate_inplane(rotate_inplane(v, azimuth, angle), azimuth + np.pi, angle)
    assert np.allclose(out, v, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(states(), azimuths, angles, angles)
def test_property_same_axis_composition(v, azimuth, a1, a2):
    two = rotate_inplane(rotate_inplane(v, azimuth, a1), azimuth, a2)
    one = rotate_inplane(v, azimuth, a1 + a2)
    assert np.allclose(two, one, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(states(), azimuths, angles, angles)
def test_property_precession_conjugates_axis(v, azimuth, angle, phase):
    left = precess(rotate_inplane(v, azimuth, angle), phase)
    right = rotate_inplane(precess(v, phase), azimuth + phase, angle)
    assert np.allclose(left, right, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(azimuths, azimuths)
def test_property_pi_rotation_reflects_equatorial_azimuth(a, axis):
    # equatorial vector at azimuth a lands at azimuth 2*axis - a
    v = np.array([np.cos(a), np.sin(a), 0.0])
    out = rotate_inplane(v, axis, np.pi)
    want = np.array([np.cos(2 * axis - a), np.sin(2 * axis - a), 0.0])
    assert np.allclose(out, want, atol=1e-12)


# ------------------------------------------------- scalar walks on floats

# A scalar walk takes its cosines and sines from libm (math) and an array
# walk from numpy, so a shot walked alone and a run walked on arrays give
# the same bits only while the two agree on the values the cores see.


def _trig_values():
    rng = np.random.default_rng(2022)
    tiny = [0.0, 5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308]
    return {
        # shot phases as run_trials draws them
        "drawn phases": 0.0 + TWO_PI * rng.random(2**20),
        "areas": np.concatenate([np.linspace(-4 * np.pi, 4 * np.pi, 4097), rng.uniform(-4 * np.pi, 4 * np.pi, 2**16)]),
        "wait phases": np.concatenate([np.geomspace(1e-12, 1e6, 4097), rng.uniform(0.0, 1e6, 2**16)]),
        "signed zeros and subnormals": np.array(tiny + [-v for v in tiny]),
    }


@pytest.mark.parametrize("name", list(_trig_values()))
def test_math_cos_and_sin_equal_numpys_bit_for_bit(name):
    values = _trig_values()[name]
    for scalar, ufunc in ((math.cos, np.cos), (math.sin, np.sin)):
        ours = np.fromiter(map(scalar, values.tolist()), float, values.size)
        assert (ours.view(np.int64) == ufunc(values).view(np.int64)).all(), (name, ufunc.__name__)
        # numpy on one scalar, as the cores called it before
        assert all(scalar(v).hex() == float(ufunc(v)).hex() for v in values[:1024]), (name, ufunc.__name__)


def test_public_kernels_give_a_scalar_angle_the_bits_of_a_one_element_array():
    # a scalar angle takes math's cosine and sine, an array numpy's; the test above compares those on every area,
    # so every 32nd area is enough to check that the kernels do the same arithmetic with either
    state = np.array([0.6, 0.0, 0.8])
    for angle in _trig_values()["areas"][::32].tolist():
        one = np.array([angle])
        assert rotate_inplane(state, 0.3, angle).tobytes() == rotate_inplane(state, 0.3, one)[0].tobytes(), angle
        assert rotate_inplane(state, angle, 1.1).tobytes() == rotate_inplane(state, one, 1.1)[0].tobytes(), angle
        assert precess(state, angle).tobytes() == precess(state, one)[0].tobytes(), angle


def test_scalar_walks_stay_python_floats():
    # a slide back to numpy scalars would put numpy's per-call cost back into every shot
    assert all(type(c) is float for c in _GROUND_XYZ)
    xyz = _rotate(*_GROUND_XYZ, 0.3, np.pi / 2)
    assert all(type(c) is float for c in xyz)
    xyz = _precess(*xyz, 1.7)
    assert all(type(c) is float for c in xyz)
    assert type(_rotate(*xyz, np.float64(0.3), np.float64(np.pi), z_only=True)) is float
