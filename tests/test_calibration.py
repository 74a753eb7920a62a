import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from glovekit.calibration import (
    CalibrationProfile,
    CouplingMap,
    ExtremaBuilder,
    ForceFeedbackMap,
    apply_coupling,
    identity_coupling_map,
    raw_to_angle,
    tactile_to_pwm,
)
from glovekit.errors import GlovekitError
from oracles import default_coupling_map, pwm_round_then_clamp


def make_profile(raw_min=100.0, raw_max=900.0, joint_min=0.0, joint_max=math.pi / 2):
    return CalibrationProfile(
        (raw_min,) * 5, (raw_max,) * 5, (joint_min,) * 5, (joint_max,) * 5
    )


JOINT_RANGE = ((0.0,) * 5, (math.pi / 2,) * 5)


class TestExtremaBuilder:
    def test_tracks_min_and_max(self):
        builder = ExtremaBuilder()
        builder.observe((100, 300, 500, 700, 900))
        builder.observe((900, 700, 400, 300, 100))
        profile = builder.finalize(*JOINT_RANGE)
        assert profile.raw_min == (100.0, 300.0, 400.0, 300.0, 100.0)
        assert profile.raw_max == (900.0, 700.0, 500.0, 700.0, 900.0)

    def test_degenerate_range_fails(self):
        builder = ExtremaBuilder()
        builder.observe((500, 500, 500, 500, 500))
        with pytest.raises(GlovekitError, match="channel 1 has degenerate range"):
            builder.finalize(*JOINT_RANGE)

    def test_order_independence(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 1024, (30, 5))
        a = ExtremaBuilder()
        b = ExtremaBuilder()
        for f in frames:
            a.observe(f)
        b.observe(frames[::-1])
        pa, pb = a.finalize(*JOINT_RANGE), b.finalize(*JOINT_RANGE)
        assert pa == pb

    def test_replay_idempotent(self):
        frames = [(10, 20, 30, 40, 50), (60, 70, 80, 90, 99)]
        once = ExtremaBuilder()
        twice = ExtremaBuilder()
        for f in frames:
            once.observe(f)
        for f in frames + frames:
            twice.observe(f)
        assert once.finalize(*JOINT_RANGE) == twice.finalize(*JOINT_RANGE)


class TestRawToAngle:
    def test_endpoints(self):
        profile = make_profile()
        assert raw_to_angle(profile, [100] * 5) == pytest.approx([0.0] * 5)
        assert raw_to_angle(profile, [900] * 5) == pytest.approx([math.pi / 2] * 5)

    def test_midpoint(self):
        profile = make_profile()
        assert raw_to_angle(profile, [500] * 5) == pytest.approx([math.pi / 4] * 5)

    def test_clamps_out_of_range(self):
        profile = make_profile()
        assert raw_to_angle(profile, [950] * 5) == pytest.approx([math.pi / 2] * 5)
        assert raw_to_angle(profile, [0] * 5) == pytest.approx([0.0] * 5)

    def test_monotone_and_image(self):
        profile = make_profile()
        raws = np.linspace(0, 1023, 200)
        angles = [raw_to_angle(profile, [r] * 5)[0] for r in raws]
        assert all(b >= a for a, b in zip(angles, angles[1:]))
        assert min(angles) == pytest.approx(0.0)
        assert max(angles) == pytest.approx(math.pi / 2)

    def test_accepts_sensor_frame_and_matrix(self):
        profile = make_profile()
        single = raw_to_angle(profile, (500, 500, 500, 500, 500))
        batch = raw_to_angle(profile, np.full((3, 5), 500.0))
        assert batch.shape == (3, 5)
        assert batch[1] == pytest.approx(single)

    def test_profile_invariants(self):
        with pytest.raises(GlovekitError, match="channel 1: raw_min must be < raw_max"):
            make_profile(raw_min=900.0, raw_max=900.0)
        with pytest.raises(GlovekitError, match="channel 1: joint_min must be <= joint_max"):
            make_profile(joint_min=1.0, joint_max=0.0)

    @pytest.mark.parametrize("field", ["raw_min", "raw_max", "joint_min", "joint_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_profile_values_must_be_finite(self, field, value):
        with pytest.raises(GlovekitError, match="profile values must be finite"):
            make_profile(**{field: value})


class TestCoupling:
    def test_identity(self):
        angles = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert apply_coupling(identity_coupling_map(), angles) == pytest.approx(angles)

    def test_default_averages_ring_little(self):
        out = apply_coupling(default_coupling_map(), np.array([0.1, 0.2, 0.3, 0.4, 0.8]))
        assert out == pytest.approx([0.1, 0.2, 0.3, 0.6])

    def test_constant_preserved(self):
        out = apply_coupling(default_coupling_map(), np.full(5, 0.37))
        assert out == pytest.approx([0.37] * 4)

    def test_dimension_mismatch(self):
        with pytest.raises(GlovekitError, match="expected 5 glove angles, got 3"):
            apply_coupling(default_coupling_map(), np.array([0.1, 0.2, 0.3]))

    def test_invalid_weights_rejected(self):
        with pytest.raises(GlovekitError, match="coupling weights must sum to 1 per output"):
            CouplingMap(np.array([[0.5, 0.5, 0.5, 0.0, 0.0]]))
        with pytest.raises(GlovekitError, match="coupling weights must be nonnegative"):
            CouplingMap(np.array([[1.5, -0.5, 0.0, 0.0, 0.0]]))


class TestForceFeedback:
    def test_zero_force(self):
        assert tactile_to_pwm(ForceFeedbackMap(10.0), 0.0) == 0

    def test_full_scale(self):
        assert tactile_to_pwm(ForceFeedbackMap(10.0), 10.0) == 255

    def test_half_scale_rounds_half_away(self):
        assert tactile_to_pwm(ForceFeedbackMap(10.0), 5.0) == 128  # 127.5 rounds up

    def test_negative_clamps_to_zero(self):
        assert tactile_to_pwm(ForceFeedbackMap(10.0), -3.0) == 0

    def test_overrange_clamps_to_255(self):
        assert tactile_to_pwm(ForceFeedbackMap(10.0), 100.0) == 255

    def test_monotone(self):
        fmap = ForceFeedbackMap(1.0)
        values = [tactile_to_pwm(fmap, f) for f in np.linspace(-0.5, 1.5, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 255 for v in values)

    def test_invalid_f_max(self):
        with pytest.raises(GlovekitError, match="f_max must be positive and finite, got 0.0"):
            ForceFeedbackMap(0.0)

    @pytest.mark.parametrize("f_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_max_rejected(self, f_max):
        with pytest.raises(GlovekitError, match=f"f_max must be positive and finite, got {f_max}"):
            ForceFeedbackMap(f_max)

    def test_overflowing_ratio_maps_to_255_and_nan_to_0(self):
        fmap = ForceFeedbackMap(1e-320)
        assert tactile_to_pwm(fmap, np.float64(5.0)) == 255
        assert tactile_to_pwm(fmap, np.float64(-5.0)) == 0
        assert tactile_to_pwm(fmap, np.float64(0.0)) == 0
        assert tactile_to_pwm(fmap, math.nan) == 0

    @given(
        force=st.floats(allow_nan=False, allow_infinity=False),
        f_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_matches_round_then_clamp_for_every_finite_ratio(self, force, f_max):
        fmap = ForceFeedbackMap(f_max)
        assume(math.isfinite(255 * force / f_max))
        assert tactile_to_pwm(fmap, force) == pwm_round_then_clamp(fmap, force)

    @given(
        forces=st.lists(st.tuples(*[st.floats()] * 5), max_size=6),
        f_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_rows_map_each_reading_on_its_own(self, forces, f_max):
        """An (n, 5) array maps to (n, 5) integer duties, each the duty of its
        own reading: NaN and overflowing ratios included."""
        fmap = ForceFeedbackMap(f_max)
        duties = tactile_to_pwm(fmap, np.array(forces, dtype=float).reshape(-1, 5))
        assert duties.shape == (len(forces), 5) and duties.dtype.kind == "i"
        assert duties.tolist() == [[pwm_round_then_clamp(fmap, f) for f in row] for row in forces]
