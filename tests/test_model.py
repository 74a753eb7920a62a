import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glovekit.calibration import CalibrationProfile, CouplingMap, ForceFeedbackMap
from glovekit.controlsim import Gains, PlantParams
from glovekit.emulator import ChannelWaveform, EmulatorConfig
from glovekit.errors import GlovekitError
from glovekit.model import (
    BasisConfig,
    Demonstration,
    TrajectoryModel,
    design_matrix,
    estimate_noise,
    fit_distribution,
    fit_weights,
    log_likelihood_per_joint,
    marginal_std,
    mean_trajectory,
    train_model,
)
from oracles import (
    basis_row,
    covariance_term_by_term,
    gaussian_logpdf_sum,
    marginal_std_full,
    ridge_weights_oracle,
    traced_peak,
)


def sine_demo(T=200, D=2, dt=0.005, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, T)
    values = np.column_stack(
        [np.sin(2 * np.pi * (d + 1) * 0.5 * t + 0.3 * d) for d in range(D)]
    )
    if noise > 0:
        values = values + rng.normal(0, noise, values.shape)
    return Demonstration(values, dt)


class TestBasis:
    def test_single_basis_is_one(self):
        cfg = BasisConfig(K=1)
        for t in [0.0, 0.25, 0.5, 1.0]:
            assert basis_row(t, cfg) == pytest.approx([1.0])

    def test_two_centers_symmetric_midpoint(self):
        assert basis_row(0.5, BasisConfig(K=2)) == pytest.approx([0.5, 0.5])

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_normalization_sums_to_one(self, t):
        row = basis_row(t, BasisConfig(K=5))
        assert abs(row.sum() - 1.0) < 1e-12
        assert np.all(row >= 0)

    def test_phase_out_of_range_rejected(self):
        with pytest.raises(GlovekitError):
            basis_row(1.5, BasisConfig(K=5))
        with pytest.raises(GlovekitError):
            basis_row(-0.1, BasisConfig(K=5))

    def test_default_width_is_center_spacing(self):
        assert BasisConfig(K=21).h == pytest.approx(1.0 / 20)

    def test_invalid_config(self):
        with pytest.raises(GlovekitError):
            BasisConfig(K=0)
        with pytest.raises(GlovekitError):
            BasisConfig(K=5, h=-0.1)
        with pytest.raises(GlovekitError):
            BasisConfig(K=5, lam=-1.0)

    @pytest.mark.parametrize("h", [1e-300, 1e155, 1e308, math.inf, math.nan])
    def test_width_whose_square_leaves_the_float_range_rejected(self, h):
        with pytest.raises(GlovekitError, match="2\\*h\\*h finite and nonzero"):
            BasisConfig(K=5, h=h)


class TestFitWeights:
    def test_constant_demo_gives_constant_weights(self):
        demo = Demonstration(np.full((60, 2), 1.7), 0.01)
        cfg = BasisConfig(K=8, lam=0.0)
        w = fit_weights(demo, cfg, design_matrix(60, cfg))
        assert w == pytest.approx(np.full((8, 2), 1.7), abs=1e-9)

    def test_ridge_shrinks_norm(self):
        demo = sine_demo(T=80, D=1)
        phi = design_matrix(80, BasisConfig(K=10))
        norms = [
            np.linalg.norm(fit_weights(demo, BasisConfig(K=10, lam=lam), phi))
            for lam in [0.0, 1e-3, 1e-1, 10.0]
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-2])
    def test_matches_elimination_oracle(self, lam):
        rng = np.random.default_rng(7)
        demo = Demonstration(rng.normal(0, 1, (50, 3)), 0.02)
        cfg = BasisConfig(K=10, lam=lam)
        w = fit_weights(demo, cfg, design_matrix(50, cfg))
        expected = ridge_weights_oracle(design_matrix(50, cfg), demo.values, lam)
        assert np.max(np.abs(w - expected)) < 1e-8

    def test_interpolates_when_T_equals_K(self):
        rng = np.random.default_rng(3)
        k = 8
        demo = Demonstration(rng.normal(0, 1, (k, 1)), 0.01)
        cfg = BasisConfig(K=k, lam=0.0)
        w = fit_weights(demo, cfg, design_matrix(k, cfg))
        recon = design_matrix(k, cfg) @ w
        assert np.max(np.abs(recon - demo.values)) < 1e-9

    def test_singular_without_ridge(self):
        # K far above T leaves the Gram matrix rank deficient
        demo = Demonstration(np.linspace(0, 1, 5)[:, None], 0.01)
        with pytest.raises(GlovekitError, match="basis Gram matrix is numerically singular"):
            cfg = BasisConfig(K=40, lam=0.0)
            fit_weights(demo, cfg, design_matrix(5, cfg))


class TestFitDistribution:
    def test_identical_weights_collapse(self):
        w = np.arange(12.0).reshape(4, 3)
        mu, sigma = fit_distribution([w, w, w], eps_reg=1e-8)
        assert mu == pytest.approx(w.T)
        assert sigma == pytest.approx(1e-8 * np.stack([np.eye(4)] * 3))

    def test_two_sample_mean(self):
        w1 = np.ones((3, 2))
        w2 = 3.0 * np.ones((3, 2))
        mu, _ = fit_distribution([w1, w2])
        assert mu == pytest.approx(2.0 * np.ones((2, 3)))

    def test_single_sample_gives_regularizer_only(self):
        w = np.random.default_rng(0).normal(size=(5, 2))
        mu, sigma = fit_distribution([w], eps_reg=1e-6)
        assert mu == pytest.approx(w.T)
        assert sigma == pytest.approx(1e-6 * np.stack([np.eye(5)] * 2))

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(11)
        weights = [rng.normal(0, 1, (4, 2)) for _ in range(3)]
        mu, sigma = fit_distribution(weights, eps_reg=0.0)
        for d in range(2):
            mu_o, cov_o = covariance_term_by_term([w[:, d] for w in weights])
            assert np.max(np.abs(mu[d] - mu_o)) < 1e-12
            assert np.max(np.abs(sigma[d] - cov_o)) < 1e-12

    def test_column_major_stacking(self):
        """Row d of mu_w is joint d's weights, so the C-order (D, K) array is
        the column-major stacking of the (K, D) weights: the promp-v3 bytes."""
        w = np.array([[1.0, 10.0], [2.0, 20.0]])
        mu, _ = fit_distribution([w])
        assert mu.flags.c_contiguous
        assert mu.reshape(-1) == pytest.approx([1.0, 2.0, 10.0, 20.0])

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(2)
        weights = [rng.normal(0, 1, (6, 2)) for _ in range(4)]
        _, sigma = fit_distribution(weights, eps_reg=0.0)
        for block in sigma:
            assert np.max(np.abs(block - block.T)) < 1e-12
            np.linalg.cholesky(block + 1e-8 * np.eye(6))

    def test_shape_mismatch(self):
        with pytest.raises(GlovekitError, match="weight matrices disagree in shape"):
            fit_distribution([np.ones((3, 2)), np.ones((4, 2))])
        with pytest.raises(GlovekitError):
            fit_distribution([])


class TestEstimateNoise:
    def test_exact_reproduction_floors_at_regularizer(self):
        demo = Demonstration(np.full((50, 2), 0.5), 0.01)
        cfg = BasisConfig(K=6, lam=0.0)
        phi = design_matrix(50, cfg)
        w = fit_weights(demo, cfg, phi)
        sigma_y = estimate_noise([demo.values - phi @ w], eps_reg=1e-8)
        assert sigma_y == pytest.approx([1e-8, 1e-8])

    def test_constant_residual_magnitude(self):
        demo = Demonstration(np.full((100, 1), 0.5), 0.01)
        cfg = BasisConfig(K=6, lam=0.0)
        phi = design_matrix(100, cfg)
        w = fit_weights(demo, cfg, phi)
        r = 0.02
        shifted = Demonstration(demo.values + r, 0.01)
        sigma_y = estimate_noise([shifted.values - phi @ w])
        assert sigma_y[0] == pytest.approx(r**2 * 100 / 99, rel=1e-6)

    def test_recovers_injected_noise_level(self):
        sigma = 0.01
        rng = np.random.default_rng(123)
        t = np.linspace(0, 1, 3000)
        clean = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        demo = Demonstration(clean + rng.normal(0, sigma, clean.shape), 0.005)
        cfg = BasisConfig(K=20)
        phi = design_matrix(3000, cfg)
        w = fit_weights(demo, cfg, phi)
        sigma_y = estimate_noise([demo.values - phi @ w])
        assert np.all(np.abs(sigma_y - sigma**2) < 0.2 * sigma**2)

    def test_releases_each_residual_before_requesting_the_next(self):
        """train_model makes each residual in the iterable it gives estimate_noise,
        so no residual may be alive while the next one is made."""
        rng = np.random.default_rng(4)
        refs, dead = [], []

        def fresh():
            residual = rng.normal(size=(100, 3))
            refs.append(weakref.ref(residual))
            return residual

        def residuals():
            for _ in range(3):
                dead.extend(ref() is None for ref in refs)
                yield fresh()
            dead.extend(ref() is None for ref in refs)

        estimate_noise(residuals())
        assert len(dead) == 6 and all(dead)


class TestModelQueries:
    def test_mean_reproduces_single_demo_fit(self):
        demo = sine_demo(T=120, D=2)
        cfg = BasisConfig(K=15)
        model = train_model([demo, demo], cfg)
        phi = design_matrix(120, cfg)
        recon = phi @ fit_weights(demo, cfg, phi)
        assert mean_trajectory(model, phi) == pytest.approx(recon, abs=1e-12)

    def test_two_demo_mean_is_average_of_reconstructions(self):
        d1 = sine_demo(T=150, D=3, noise=0.05, seed=1)
        d2 = sine_demo(T=150, D=3, noise=0.05, seed=2)
        cfg = BasisConfig(K=12)
        model = train_model([d1, d2], cfg)
        phi = design_matrix(150, cfg)
        r1 = phi @ fit_weights(d1, cfg, phi)
        r2 = phi @ fit_weights(d2, cfg, phi)
        assert np.max(np.abs(mean_trajectory(model, phi) - (r1 + r2) / 2)) < 1e-9

    def test_mean_inside_reconstruction_envelope(self):
        d1 = sine_demo(T=100, D=2, noise=0.03, seed=4)
        d2 = sine_demo(T=100, D=2, noise=0.03, seed=5)
        cfg = BasisConfig(K=10)
        model = train_model([d1, d2], cfg)
        phi = design_matrix(100, cfg)
        r1 = phi @ fit_weights(d1, cfg, phi)
        r2 = phi @ fit_weights(d2, cfg, phi)
        mean = mean_trajectory(model, phi)
        lo = np.minimum(r1, r2) - 1e-12
        hi = np.maximum(r1, r2) + 1e-12
        assert np.all(mean >= lo) and np.all(mean <= hi)

    def test_linearity_of_mean_in_weights(self):
        cfg = BasisConfig(K=6)
        rng = np.random.default_rng(8)
        w1, w2 = rng.normal(size=(2, 2, 6))
        sy = np.array([1e-4, 1e-4])
        sw = 1e-8 * np.stack([np.eye(6)] * 2)
        m1 = TrajectoryModel(cfg, w1, sw, sy)
        m2 = TrajectoryModel(cfg, w2, sw, sy)
        mavg = TrajectoryModel(cfg, (w1 + w2) / 2, sw, sy)
        phi = design_matrix(40, cfg)
        avg = (mean_trajectory(m1, phi) + mean_trajectory(m2, phi)) / 2
        assert np.max(np.abs(mean_trajectory(mavg, phi) - avg)) < 1e-12

    def test_phase_reparametrization_consistency(self):
        model = train_model([sine_demo(T=90, D=2)], BasisConfig(K=10))
        t = 45
        coarse = mean_trajectory(model, design_matrix(t, model.basis))
        fine = mean_trajectory(model, design_matrix(2 * t - 1, model.basis))
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-12

    def test_std_with_zero_weight_covariance(self):
        cfg = BasisConfig(K=5)
        model = TrajectoryModel(cfg, np.zeros((2, 5)), np.zeros((2, 5, 5)), np.array([0.04, 0.04]))
        assert marginal_std(model, design_matrix(30, cfg)) == pytest.approx(np.full((30, 2), 0.2))

    def test_std_floor_from_regularizer(self):
        demo = sine_demo(T=100, D=2)
        model = train_model([demo, demo], BasisConfig(K=10), eps_reg=1e-8)
        assert np.all(marginal_std(model, design_matrix(100, model.basis)) >= np.sqrt(1e-8) - 1e-15)

    def test_identical_demos_leave_only_noise_floor(self):
        demo = sine_demo(T=100, D=1)
        eps = 1e-8
        model = train_model([demo, demo], BasisConfig(K=10), eps_reg=eps)
        phi = design_matrix(100, model.basis)
        expected = np.sqrt(eps * (phi**2).sum(axis=1) + model.sigma_y[0])
        assert marginal_std(model, phi)[:, 0] == pytest.approx(expected)

    def test_std_matches_monte_carlo(self):
        d1 = sine_demo(T=60, D=2, noise=0.05, seed=21)
        d2 = sine_demo(T=60, D=2, noise=0.05, seed=22)
        model = train_model([d1, d2], BasisConfig(K=8))
        phi = design_matrix(60, model.basis)
        std = marginal_std(model, phi)
        rng = np.random.default_rng(99)
        mc = np.empty_like(std)
        for d in range(2):
            # joint d's weights, drawn from their exact marginal
            draws = rng.multivariate_normal(model.mu_w[d], model.sigma_w[d], size=100_000)
            samples = draws @ phi.T
            mc[:, d] = np.sqrt(samples.var(axis=0, ddof=1) + model.sigma_y[d])
        assert np.max(np.abs(mc / std - 1.0)) < 0.02

    @given(t_steps=st.integers(2, 12), k=st.integers(1, 8), d=st.integers(1, 3),
           eps=st.sampled_from([0.0, 1e-8, 1e-3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_variance_is_within_a_summation_bound_of_its_exact_sum(self, t_steps, k, d, eps,
                                                                  seed):
        """Each squared std is the math.fsum of its K^2 products phi_k S_kl phi_l
        and sigma_y to within 8 K^2 eps times the sum of their magnitudes, for S
        the sample covariance of fewer demos than weights (rank deficient) plus
        eps_reg * I. The bound is the textbook one for a K^2-term float sum,
        with room for the products, the sqrt and the reference's own rounding;
        the three-operand einsum the two contractions replaced is held to it
        as well, so it is not fitted to their summation order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, k + 1))
        weights = [rng.normal(0, rng.uniform(0.01, 10.0), (k, d)) for _ in range(n)]
        _, sigma = fit_distribution(weights, eps_reg=eps)
        sigma_y = rng.uniform(0.0, 1e-3, d)
        cfg = BasisConfig(K=k, h=rng.uniform(0.02, 1.0))
        phi = design_matrix(t_steps, cfg)
        std = marginal_std(TrajectoryModel(cfg, np.zeros((d, k)), sigma, sigma_y), phi)
        for j in range(d):
            three_operand = np.einsum("tk,kl,tl->t", phi, sigma[j], phi) + sigma_y[j]
            for t, row in enumerate(phi):
                terms = [row[a] * sigma[j, a, b] * row[b] for a in range(k) for b in range(k)]
                terms.append(sigma_y[j])
                exact = math.fsum(terms)
                bound = 8 * k * k * np.finfo(float).eps * math.fsum(map(abs, terms))
                assert abs(std[t, j] ** 2 - exact) <= bound
                assert abs(three_operand[t] - exact) <= bound

    def test_std_peak_memory_is_the_result_and_one_product(self):
        """At T = 6000, D = 13, K = 20 marginal_std peaks below 2.5 MB: its
        (T, D) result and one joint's (T, K) product are 1.6 MB, while a whole
        (T, D*K) or (T, K, K) temporary would be 12.5 MB or 19 MB."""
        rng = np.random.default_rng(12)
        cfg = BasisConfig(K=20)
        g = rng.normal(size=(13, 20, 20))
        model = TrajectoryModel(cfg, np.zeros((13, 20)), g @ g.transpose(0, 2, 1),
                                np.full(13, 1e-4))
        phi = design_matrix(6000, cfg)
        std, peak = traced_peak(lambda: marginal_std(model, phi))
        assert std.shape == (6000, 13)
        assert peak < 2.5e6


class TestPerJointBlocks:
    """fit_distribution gives each joint's mean weights and the K x K
    covariance of its weights, and the std of those blocks is the std of the
    block-diagonal (K*D, K*D) covariance they make, bit for bit."""

    @given(n=st.integers(1, 6), d=st.integers(1, 5), k=st.integers(1, 8),
           eps=st.sampled_from([0.0, 1e-8, 1e-3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_term_by_term_oracle(self, n, d, k, eps, seed):
        rng = np.random.default_rng(seed)
        weights = [rng.normal(0, rng.uniform(0.01, 10.0), (k, d)) for _ in range(n)]
        mu, sigma = fit_distribution(weights, eps_reg=eps)
        assert mu.shape == (d, k) and sigma.shape == (d, k, k)
        for j in range(d):
            assert np.array_equal(sigma[j], sigma[j].T)
            if n == 1:
                assert np.array_equal(mu[j], weights[0][:, j])
                assert np.array_equal(sigma[j], eps * np.eye(k))
                continue
            mu_o, cov_o = covariance_term_by_term([w[:, j] for w in weights])
            assert np.max(np.abs(mu[j] - mu_o)) <= 1e-12
            assert np.max(np.abs(sigma[j] - (cov_o + eps * np.eye(k)))) <= 1e-12

    @pytest.mark.parametrize("n,d,k", [(1, 1, 1), (2, 2, 8), (3, 4, 3), (2, 13, 20), (8, 13, 20)])
    def test_blocks_are_the_diagonal_blocks_of_the_whole_covariance(self, n, d, k):
        rng = np.random.default_rng(100 * n + d)
        cfg = BasisConfig(K=k)
        demos = [Demonstration(np.cumsum(rng.normal(size=(int(rng.integers(40, 120)), d)), 0),
                               0.005) for _ in range(n)]
        model = train_model(demos, cfg)
        assert model.sigma_w.shape == (d, k, k)
        full = np.zeros((k * d, k * d))
        for j in range(d):
            full[j * k : (j + 1) * k, j * k : (j + 1) * k] = model.sigma_w[j]
        for t_steps in (2, 75, 3000):
            phi = design_matrix(t_steps, cfg)
            expected = marginal_std_full(full, model.sigma_y, phi)
            assert marginal_std(model, phi).tobytes() == expected.tobytes()

    def test_model_rejects_a_whole_covariance(self):
        cfg = BasisConfig(K=3)
        with pytest.raises(GlovekitError, match="shapes inconsistent"):
            TrajectoryModel(cfg, np.zeros((2, 3)), np.eye(6), np.ones(2))
        with pytest.raises(GlovekitError, match="shapes inconsistent"):
            TrajectoryModel(cfg, np.zeros(6), np.zeros((2, 3, 3)), np.ones(2))

    def test_train_memory_is_linear_in_joints(self):
        """train_model holds per-joint blocks only. On 2 demos of 3000 x 200
        with K = 20 its peak is about 15 MB, a few (3000, 200) temporaries of
        one demo's residual; the whole (4000, 4000) covariance alone is 128 MB."""
        rng = np.random.default_rng(6)
        demos = [Demonstration(rng.normal(size=(3000, 200)), 0.005) for _ in range(2)]
        model, peak = traced_peak(lambda: train_model(demos, BasisConfig(K=20)))
        assert model.sigma_w.shape == (200, 20, 20)
        assert peak < 24e6


class TestLogLikelihood:
    def test_zero_residual_closed_form(self):
        t_steps = 40
        cfg = BasisConfig(K=5)
        mu = np.zeros((1, 5))
        model = TrajectoryModel(cfg, mu, 1e-8 * np.eye(5)[None], np.array([1.0]))
        demo = Demonstration(np.zeros((t_steps, 1)), 0.01)
        mean = mean_trajectory(model, design_matrix(t_steps, cfg))
        ll = log_likelihood_per_joint(model, demo, mean).sum()
        assert ll == pytest.approx(-t_steps / 2 * np.log(2 * np.pi))

    def test_inflating_noise_decreases_zero_residual_likelihood(self):
        cfg = BasisConfig(K=5)
        demo = Demonstration(np.zeros((30, 1)), 0.01)
        mean = np.zeros((30, 1))
        lls = [
            log_likelihood_per_joint(
                TrajectoryModel(cfg, np.zeros((1, 5)), 1e-8 * np.eye(5)[None], np.array([s])), demo,
                mean
            ).sum()
            for s in [1.0, 2.0, 10.0]
        ]
        assert lls[0] > lls[1] > lls[2]

    def test_matches_hand_computation(self):
        cfg = BasisConfig(K=3)
        mu = np.array([[0.2, -0.1, 0.4]])
        var = 0.09
        model = TrajectoryModel(cfg, mu, 1e-8 * np.eye(3)[None], np.array([var]))
        demo = Demonstration(np.array([[0.1], [0.0], [0.3]]), 0.01)
        mean = mean_trajectory(model, design_matrix(3, cfg))
        expected = gaussian_logpdf_sum(demo.values[:, 0], mean[:, 0], var)
        ll = log_likelihood_per_joint(model, demo, mean).sum()
        assert ll == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        model = train_model([sine_demo(D=2)], BasisConfig(K=5))
        mean = mean_trajectory(model, design_matrix(200, model.basis))
        with pytest.raises(GlovekitError, match="demo dimension 3 != model dimension 2"):
            log_likelihood_per_joint(model, sine_demo(D=3), mean)


class TestDemonstration:
    def test_invariants(self):
        with pytest.raises(GlovekitError):
            Demonstration(np.ones((1, 2)), 0.01)
        with pytest.raises(GlovekitError):
            Demonstration(np.array([[np.nan], [1.0]]), 0.01)
        with pytest.raises(GlovekitError):
            Demonstration(np.ones((5, 2)), 0.0)

    def test_needs_at_least_one_joint(self):
        with pytest.raises(GlovekitError, match="demonstration needs D >= 1 joints, got 0"):
            Demonstration(np.ones((5, 0)), 0.01)
        cfg = BasisConfig(K=3)
        with pytest.raises(GlovekitError, match="model needs D >= 1 joints, got 0"):
            TrajectoryModel(cfg, np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros(0))

    def test_array_holders_compare_by_identity(self):
        """Demonstration, TrajectoryModel and CouplingMap hold arrays, so they
        compare and hash by identity: field by field, == would ask an array
        for its truth value and hash would hash an array. Their fields can be
        neither assigned nor deleted."""
        demo = sine_demo(D=2)
        model = train_model([demo], BasisConfig(K=5))
        coupling = CouplingMap(np.full((2, 5), 0.2))
        pairs = [
            (demo, Demonstration(demo.values.copy(), demo.dt)),
            (model, TrajectoryModel(model.basis, model.mu_w.copy(), model.sigma_w.copy(),
                                    model.sigma_y.copy(), model.eps_reg)),
            (coupling, CouplingMap(coupling.weights.copy())),
        ]
        for (value, twin), field in zip(pairs, ["values", "mu_w", "weights"]):
            assert value == value and value != twin
            assert hash(value) == object.__hash__(value)
            assert len({value, twin, value}) == 2
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(twin, field))
            with pytest.raises(AttributeError):
                delattr(value, field)

    def test_train_requires_matching_dims(self):
        with pytest.raises(GlovekitError, match="demonstrations disagree in dimension"):
            train_model([sine_demo(D=2), sine_demo(D=3)], BasisConfig(K=5))

    def test_dimension_error_lists_the_first_two_dimensions_that_differ(self):
        """Demos are checked as they come: the first one's dimension and the
        first that differs from it are named, and no later demo is read."""
        def demos():
            yield sine_demo(D=4)
            yield sine_demo(D=2)
            raise AssertionError("a demo after the mismatch was requested")

        with pytest.raises(GlovekitError) as raised:
            train_model(demos(), BasisConfig(K=5))
        assert str(raised.value) == "demonstrations disagree in dimension: [2, 4]"


# each value class with its fields in order, one field to change and a new value for it
VALUE_RECORDS = [
    (CalibrationProfile, {"raw_min": (100.0,) * 5, "raw_max": (900.0,) * 5,
                          "joint_min": (0.0,) * 5, "joint_max": (1.5,) * 5},
     "joint_max", (1.25,) * 5),
    (ForceFeedbackMap, {"f_max": 2.5}, "f_max", 3.0),
    (ChannelWaveform, {"offset": 500.0, "amplitude": 10.0, "frequency": 1.5, "phase": 0.25},
     "phase", 0.5),
    (EmulatorConfig, {"rate": 350.0, "channels": (ChannelWaveform(),) * 5, "noise_std": 0.5,
                      "seed": 3}, "seed", 4),
    (BasisConfig, {"K": 5, "h": 0.3, "lam": 1e-6}, "lam", 1e-3),
    (Gains, {"kp": 5.0, "kd": 0.2}, "kd", 0.3),
    (PlantParams, {"m": 0.01, "b": 0.05, "torque_limit": 2.0}, "torque_limit", 1.0),
]


@pytest.mark.parametrize("cls,fields,name,changed", VALUE_RECORDS,
                         ids=[case[0].__name__ for case in VALUE_RECORDS])
def test_value_records_compare_hash_and_print_by_field(cls, fields, name, changed):
    """The seven value classes compare, hash and print by their field values,
    as frozen dataclasses did: == needs the same class, repr lists the fields
    in order, and a field can be neither assigned nor deleted."""
    value = cls(**fields)
    assert value == cls(**fields) and hash(value) == hash(cls(**fields))
    assert value != cls(**{**fields, name: changed})
    same_name = type(cls.__name__, (cls,), {})
    assert value != same_name(**fields) and same_name(**fields) != value
    listed = ", ".join(f"{field}={v!r}" for field, v in fields.items())
    assert repr(value) == f"{cls.__name__}({listed})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, changed)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == cls(**fields)
