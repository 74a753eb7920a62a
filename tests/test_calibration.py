import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fixture13 as fx
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


def frame(value):
    """A (1, 5) block: one frame with ``value`` on every channel."""
    return np.full((1, 5), value, dtype=float)


def pwm(fmap, force):
    """The one duty of a (1, 5) block of equal forces; each channel maps alike."""
    duties = tactile_to_pwm(fmap, frame(force))
    assert duties.shape == (1, 5) and duties.dtype.kind == "i" and len(set(duties[0])) == 1
    return int(duties[0, 0])


class TestExtremaBuilder:
    def test_tracks_min_and_max(self):
        builder = ExtremaBuilder()
        builder.observe(np.array([[100.0, 300.0, 500.0, 700.0, 900.0]]))
        builder.observe(np.array([[900.0, 700.0, 400.0, 300.0, 100.0]]))
        profile = builder.finalize(*JOINT_RANGE)
        assert profile.raw_min == (100.0, 300.0, 400.0, 300.0, 100.0)
        assert profile.raw_max == (900.0, 700.0, 500.0, 700.0, 900.0)

    def test_degenerate_range_fails(self):
        builder = ExtremaBuilder()
        builder.observe(np.full((1, 5), 500.0))
        with pytest.raises(GlovekitError, match="channel 1 has degenerate range"):
            builder.finalize(*JOINT_RANGE)

    def test_order_independence(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 1024, (30, 5)).astype(float)
        a = ExtremaBuilder()
        b = ExtremaBuilder()
        for i in range(len(frames)):
            a.observe(frames[i : i + 1])
        b.observe(frames[::-1])
        pa, pb = a.finalize(*JOINT_RANGE), b.finalize(*JOINT_RANGE)
        assert pa == pb

    def test_replay_idempotent(self):
        frames = np.array([[10.0, 20.0, 30.0, 40.0, 50.0], [60.0, 70.0, 80.0, 90.0, 99.0]])
        once = ExtremaBuilder()
        twice = ExtremaBuilder()
        for i in range(len(frames)):
            once.observe(frames[i : i + 1])
        for i in range(2 * len(frames)):
            twice.observe(frames[i % 2 : i % 2 + 1])
        assert once.finalize(*JOINT_RANGE) == twice.finalize(*JOINT_RANGE)


class TestRawToAngle:
    def test_endpoints(self):
        profile = make_profile()
        assert raw_to_angle(profile, frame(100))[0] == pytest.approx([0.0] * 5)
        assert raw_to_angle(profile, frame(900))[0] == pytest.approx([math.pi / 2] * 5)

    def test_midpoint(self):
        profile = make_profile()
        assert raw_to_angle(profile, frame(500))[0] == pytest.approx([math.pi / 4] * 5)

    def test_clamps_out_of_range(self):
        profile = make_profile()
        assert raw_to_angle(profile, frame(950))[0] == pytest.approx([math.pi / 2] * 5)
        assert raw_to_angle(profile, frame(0))[0] == pytest.approx([0.0] * 5)

    def test_monotone_and_image(self):
        profile = make_profile()
        raws = np.linspace(0, 1023, 200)
        angles = [raw_to_angle(profile, frame(r))[0, 0] for r in raws]
        assert all(b >= a for a, b in zip(angles, angles[1:]))
        assert min(angles) == pytest.approx(0.0)
        assert max(angles) == pytest.approx(math.pi / 2)

    def test_accepts_sensor_frame_and_matrix(self):
        profile = make_profile()
        single = raw_to_angle(profile, frame(500))[0]
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
        angles = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        assert apply_coupling(identity_coupling_map(), angles) == pytest.approx(angles)

    def test_default_averages_ring_little(self):
        out = apply_coupling(default_coupling_map(), np.array([[0.1, 0.2, 0.3, 0.4, 0.8]]))
        assert out[0] == pytest.approx([0.1, 0.2, 0.3, 0.6])

    def test_constant_preserved(self):
        out = apply_coupling(default_coupling_map(), frame(0.37))
        assert out[0] == pytest.approx([0.37] * 4)

    def test_invalid_weights_rejected(self):
        with pytest.raises(GlovekitError, match="coupling weights must sum to 1 per output"):
            CouplingMap(np.array([[0.5, 0.5, 0.5, 0.0, 0.0]]))
        with pytest.raises(GlovekitError, match="coupling weights must be nonnegative"):
            CouplingMap(np.array([[1.5, -0.5, 0.0, 0.0, 0.0]]))


@st.composite
def split_stream(draw):
    """Raw counts of a stream, a profile for them, and the sizes, each 2 or
    more, of the blocks that split the stream: a read holds up to 1261 frames."""
    sizes = draw(st.lists(st.integers(2, 1300), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.integers(0, 1024, (sum(sizes), 5)).astype(float)
    lo, jmin = rng.uniform(0.0, 500.0, 5), rng.uniform(-1.0, 1.0, 5)
    profile = CalibrationProfile(tuple(lo), tuple(lo + rng.uniform(1.0, 500.0, 5)),
                                 tuple(jmin), tuple(jmin + rng.uniform(0.0, 2.0, 5)))
    return raw, profile, sizes


def finalized(builder):
    """The builder's profile, or the message of its degenerate-range error."""
    try:
        return builder.finalize(*JOINT_RANGE)
    except GlovekitError as exc:
        return str(exc)


@pytest.mark.parametrize("coupling", [fx.make_coupling13(), default_coupling_map()],
                         ids=["readme13", "default4"])
@given(stream=split_stream())
@settings(max_examples=60, deadline=None)
def test_blocks_of_two_or_more_rows_give_the_bits_of_the_whole(coupling, stream):
    """``record`` maps and couples each read's frames behind the previous
    read's last one, and ``calibrate`` observes each read's frames: both give
    the bits of the whole stream at once for any split into blocks of >= 2 rows."""
    raw, profile, sizes = stream
    blocks = np.split(raw, np.cumsum(sizes)[:-1])
    whole = apply_coupling(coupling, raw_to_angle(profile, raw))
    split = np.concatenate([apply_coupling(coupling, raw_to_angle(profile, b)) for b in blocks])
    assert split.tobytes() == whole.tobytes()
    once, by_block = ExtremaBuilder(), ExtremaBuilder()
    once.observe(raw)
    for block in blocks:
        by_block.observe(block)
    assert finalized(by_block) == finalized(once)


class TestForceFeedback:
    def test_zero_force(self):
        assert pwm(ForceFeedbackMap(10.0), 0.0) == 0

    def test_full_scale(self):
        assert pwm(ForceFeedbackMap(10.0), 10.0) == 255

    def test_half_scale_rounds_half_away(self):
        assert pwm(ForceFeedbackMap(10.0), 5.0) == 128  # 127.5 rounds up

    def test_negative_clamps_to_zero(self):
        assert pwm(ForceFeedbackMap(10.0), -3.0) == 0

    def test_overrange_clamps_to_255(self):
        assert pwm(ForceFeedbackMap(10.0), 100.0) == 255

    def test_monotone(self):
        fmap = ForceFeedbackMap(1.0)
        values = [pwm(fmap, f) for f in np.linspace(-0.5, 1.5, 100)]
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
        assert pwm(fmap, 5.0) == 255
        assert pwm(fmap, -5.0) == 0
        assert pwm(fmap, 0.0) == 0
        assert pwm(fmap, math.nan) == 0

    @given(
        force=st.floats(allow_nan=False, allow_infinity=False),
        f_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_matches_round_then_clamp_for_every_finite_ratio(self, force, f_max):
        fmap = ForceFeedbackMap(f_max)
        assume(math.isfinite(255 * force / f_max))
        assert pwm(fmap, force) == pwm_round_then_clamp(fmap, force)

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
