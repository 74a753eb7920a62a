import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glovekit.controlsim import Gains, PlantParams, simulate_tracking
from glovekit.errors import GlovekitError
from oracles import PlantState, pd_torque, step_plant, tracking_per_step


class TestPdTorque:
    def test_zero_error_zero_torque(self):
        tau = pd_torque(Gains(10.0, 1.0), 0.5, 0.1, 0.5, 0.1, 2.0)
        assert tau == pytest.approx(0.0)

    def test_proportional_term(self):
        tau = pd_torque(Gains(10.0, 0.0), 0.5, 0.0, 0.0, 0.0, 100.0)
        assert tau == pytest.approx(5.0)

    def test_torque_clamps(self):
        assert pd_torque(Gains(10.0, 0.0), 100.0, 0.0, 0.0, 0.0, 2.0) == pytest.approx(2.0)
        assert pd_torque(Gains(10.0, 0.0), -100.0, 0.0, 0.0, 0.0, 2.0) == pytest.approx(-2.0)

    def test_odd_in_error(self):
        gains = Gains(7.0, 0.3)
        a = pd_torque(gains, 0.2, 0.1, 0.0, 0.0, 100.0)
        b = pd_torque(gains, -0.2, -0.1, 0.0, 0.0, 100.0)
        assert a == pytest.approx(-b)

    def test_gain_invariants(self):
        with pytest.raises(GlovekitError):
            Gains(0.0, 0.1)
        with pytest.raises(GlovekitError):
            Gains(1.0, -0.1)


class TestStepPlant:
    def test_equilibrium_unchanged(self):
        state = PlantState(np.array([0.3]), np.array([0.0]))
        out = step_plant(state, np.array([0.0]), 0.005, PlantParams())
        assert out.theta == pytest.approx([0.3])
        assert out.omega == pytest.approx([0.0])

    def test_one_step_arithmetic(self):
        state = PlantState(np.array([0.0]), np.array([0.0]))
        out = step_plant(state, np.array([1.0]), 0.005, PlantParams(m=1.0, b=0.0))
        assert out.omega == pytest.approx([0.005])
        assert out.theta == pytest.approx([0.000025])

    def test_kinetic_energy_decays_unforced(self):
        params = PlantParams(m=0.01, b=0.05)
        state = PlantState(np.array([0.0]), np.array([3.0]))
        energy = 0.5 * params.m * state.omega[0] ** 2
        for _ in range(200):
            state = step_plant(state, np.array([0.0]), 0.005, params)
            new_energy = 0.5 * params.m * state.omega[0] ** 2
            assert new_energy <= energy + 1e-15
            energy = new_energy

    def test_step_regulation_converges(self):
        # closed-loop settle onto a constant target within 2 s at default gains
        gains = Gains()
        params = PlantParams()
        target = 0.8
        state = PlantState(np.array([0.0]), np.array([0.0]))
        dt = 0.005
        for _ in range(400):
            tau = pd_torque(gains, target, 0.0, state.theta, state.omega, params.torque_limit)
            state = step_plant(state, tau, dt, params)
        assert abs(state.theta[0] - target) < 1e-3

    def test_invalid_params(self):
        with pytest.raises(GlovekitError):
            PlantParams(m=0.0)
        with pytest.raises(GlovekitError):
            PlantParams(torque_limit=0.0)
        for bad in ({"m": np.nan}, {"b": np.nan}, {"torque_limit": np.nan}):
            with pytest.raises(GlovekitError):
                PlantParams(**bad)
        for bad in ({"kp": np.nan}, {"kd": np.nan}):
            with pytest.raises(GlovekitError):
                Gains(**bad)
        with pytest.raises(GlovekitError):
            step_plant(PlantState(np.zeros(1), np.zeros(1)), np.zeros(1), 0.0, PlantParams())


class TestSimulateTracking:
    def test_constant_reference_zero_error(self):
        reference = np.full((300, 3), 0.4)
        result = simulate_tracking(reference)
        assert np.max(np.abs(result.executed - reference)) == 0.0
        assert result.rmse == pytest.approx([0.0, 0.0, 0.0])

    def test_smooth_reference_tracks_closely(self):
        t = np.linspace(0, 15, 3000)
        reference = np.column_stack(
            [0.4 + 0.3 * np.sin(2 * np.pi * 0.15 * t + p) for p in (0.0, 1.0)]
        )
        result = simulate_tracking(reference)
        assert np.all(result.rmse < 0.05)

    def test_doubling_kp_does_not_hurt(self):
        t = np.linspace(0, 15, 3000)
        reference = 0.4 + 0.3 * np.sin(2 * np.pi * 0.15 * t)[:, None]
        base = simulate_tracking(reference, Gains(kp=5.0))
        stiff = simulate_tracking(reference, Gains(kp=10.0))
        assert np.all(stiff.rmse <= base.rmse)

    @given(
        reference=st.tuples(st.integers(2, 400), st.integers(1, 13)).flatmap(
            lambda shape: arrays(float, shape, elements=st.floats(-50.0, 50.0))
        ),
        kp=st.floats(1e-3, 1e4),
        kd=st.floats(0.0, 10.0),
        m=st.floats(1e-6, 1.0),
        b=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        limit=st.floats(1e-3, 10.0),
        rate=st.sampled_from([50.0, 200.0, 1000.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_step_reference_bit_for_bit(self, reference, kp, kd, m, b, limit, rate):
        # small inertias saturate the torque limit, or diverge to inf and NaN
        gains, params = Gains(kp, kd), PlantParams(m, b, limit)
        with np.errstate(all="ignore"):
            expected = tracking_per_step(reference, gains, params, rate)
            result = simulate_tracking(reference, gains, params, rate)
        got = (result.executed, result.rmse, result.max_abs_error)
        for a, e in zip(got, expected):
            assert a.shape == e.shape and a.tobytes() == e.tobytes()

    def test_rejects_non_finite_reference(self):
        with pytest.raises(GlovekitError):
            simulate_tracking(np.array([[0.0], [np.inf]]))

    @pytest.mark.parametrize("reference", [
        np.linspace(0, 1, 50), np.zeros((0, 3)), np.float64(0.5), np.zeros((4, 2, 1)),
    ], ids=["1-D", "no-rows", "0-D", "3-D"])
    def test_rejects_reference_that_is_not_t_by_d(self, reference):
        """A 1-D reference is not read as one step of 50 joints."""
        with pytest.raises(GlovekitError, match=r"reference must be a finite \(T, D\) array"):
            simulate_tracking(reference)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -200.0])
    def test_rejects_rate_that_is_not_positive_and_finite(self, rate):
        with pytest.raises(GlovekitError, match=f"rate must be positive and finite, got {rate}"):
            simulate_tracking(np.zeros((10, 2)), rate=rate)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("make,field", [(Gains, "kp"), (Gains, "kd"), (PlantParams, "m"),
                                        (PlantParams, "b"), (PlantParams, "torque_limit")])
def test_gains_and_plant_reject_infinite_values(make, field, value):
    with pytest.raises(GlovekitError, match="finite"):
        make(**{field: value})
