"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import io
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fixture13 as fx
from glovekit import formats
from glovekit.cli import main
from glovekit.model import (
    BasisConfig,
    Demonstration,
    design_matrix,
    fit_distribution,
    fit_weights,
    marginal_std,
    mean_trajectory,
    train_model,
)
from glovekit.wire import FRAME_SIZE, StreamParser, encode_frames
from oracles import (
    basis_row,
    coupling_text,
    covariance_term_by_term,
    emu_text,
    ridge_weights_oracle,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {num:02d} FAIL: {desc}")
        raise
    print(f"\n[ACCEPTANCE] criterion {num:02d} PASS: {desc}")


def test_criterion_01_protocol_round_trip_and_corruption():
    with criterion(1, "10^5 frame round-trip, corruption recovery, < 5 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        frames = rng.integers(0, 1024, (100_000, 5)).astype(np.uint16)
        data = encode_frames(frames)

        parser = StreamParser()
        decoded = np.concatenate(
            [parser.feed(data[i : i + 65536]) for i in range(0, len(data), 65536)]
        )
        assert np.array_equal(decoded["channels"], frames)
        assert parser.bytes_skipped == 0

        corrupted = bytearray(data)
        flips = rng.choice(len(data), size=len(data) // 100, replace=False)
        for i in flips:
            corrupted[i] ^= int(rng.integers(1, 256))
        touched = {int(i) // FRAME_SIZE for i in flips}
        survivors = [tuple(f) for k, f in enumerate(frames.tolist()) if k not in touched]

        parser = StreamParser()
        decoded = np.concatenate([
            parser.feed(bytes(corrupted[i : i + 65536])) for i in range(0, len(corrupted), 65536)
        ])
        # every untouched frame must come out, in order
        idx = 0
        for f in decoded["channels"].tolist():
            if idx < len(survivors) and tuple(f) == survivors[idx]:
                idx += 1
        assert idx == len(survivors), f"lost {len(survivors) - idx} uncorrupted frames"

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s"


def test_criterion_02_parser_throughput():
    with criterion(2, ">= 35 000 frames/s sustained decode on emulator output"):
        sink = io.BytesIO()
        from glovekit.emulator import run_emulator

        run_emulator(fx.emulator_config(seed=5), 200.0, sink, fast=True)  # 70 000 frames
        data = sink.getvalue()
        parser = StreamParser()
        count = 0
        start = time.perf_counter()
        for i in range(0, len(data), 4096):
            count += len(parser.feed(data[i : i + 4096]))
        elapsed = time.perf_counter() - start
        rate = count / elapsed
        assert count == 70_000
        assert rate >= 35_000, f"decode rate {rate:.0f} frames/s"


def test_criterion_03_regression_oracle():
    with criterion(3, "fit_weights matches elimination oracle on 100 seeded problems"):
        rng = np.random.default_rng(333)
        lams = [0.0, 1e-6, 1e-2]
        for p in range(100):
            cfg = BasisConfig(K=10, lam=lams[p % 3])
            demo = Demonstration(rng.normal(0.0, 1.0, (50, 3)), 0.02)
            w = fit_weights(demo, cfg, design_matrix(50, cfg))
            expected = ridge_weights_oracle(design_matrix(50, cfg), demo.values, cfg.lam)
            assert np.max(np.abs(w - expected)) <= 1e-8


def test_criterion_04_basis_identities():
    with criterion(4, "normalized basis rows sum to 1 (1e-12); K=1 returns exactly 1.0"):
        rng = np.random.default_rng(4)
        cfg = BasisConfig(K=20)
        for t in rng.uniform(0.0, 1.0, 10_000):
            row = basis_row(float(t), cfg)
            assert abs(row.sum() - 1.0) <= 1e-12
        single = BasisConfig(K=1)
        for t in (0.0, 0.3, 1.0):
            assert basis_row(t, single)[0] == 1.0


def test_criterion_05_distribution_statistics():
    with criterion(5, "sample mean/covariance vs term-by-term oracle (1e-12); "
                      "identical inputs give eps * I exactly"):
        rng = np.random.default_rng(55)
        for _ in range(5):
            weights = [rng.normal(0.0, 1.0, (4, 3)) for _ in range(3)]
            mu, sigma = fit_distribution(weights, eps_reg=0.0)
            for d in range(3):  # joint d's mean weights and covariance block
                mu_o, cov_o = covariance_term_by_term([w[:, d] for w in weights])
                assert np.max(np.abs(mu[d] - mu_o)) <= 1e-12
                assert np.max(np.abs(sigma[d] - cov_o)) <= 1e-12
        w = rng.normal(0.0, 1.0, (5, 2))
        eps = 1e-8
        _, sigma = fit_distribution([w, w, w], eps_reg=eps)
        assert np.array_equal(sigma, eps * np.stack([np.eye(5)] * 2))


def test_criterion_06_mean_linearity():
    with criterion(6, "two-demo mean equals pointwise average of reconstructions (1e-9)"):
        rng = np.random.default_rng(66)
        t_grid = np.linspace(0, 1, 300)
        cfg = BasisConfig(K=15)
        demos = [
            Demonstration(
                np.column_stack(
                    [np.sin(2 * np.pi * t_grid + p) + rng.normal(0, 0.05, 300) for p in (0.0, 0.7)]
                ),
                0.005,
            )
            for _ in range(2)
        ]
        model = train_model(demos, cfg)
        phi = design_matrix(300, cfg)
        recon = [phi @ fit_weights(d, cfg, phi) for d in demos]
        diff = mean_trajectory(model, phi) - (recon[0] + recon[1]) / 2.0
        assert np.max(np.abs(diff)) <= 1e-9


def test_criterion_07_variance_sanity():
    with criterion(7, "marginal_std >= sqrt(eps_reg); Monte-Carlo agreement within 2%"):
        rng = np.random.default_rng(77)
        t_grid = np.linspace(0, 1, 80)
        cfg = BasisConfig(K=8)
        eps = 1e-8
        demos = [
            Demonstration(
                np.column_stack(
                    [
                        np.sin(2 * np.pi * t_grid) + rng.normal(0, 0.05, 80),
                        np.cos(np.pi * t_grid) + rng.normal(0, 0.05, 80),
                    ]
                ),
                0.01,
            )
            for _ in range(2)
        ]
        model = train_model(demos, cfg, eps_reg=eps)
        phi = design_matrix(80, cfg)
        std = marginal_std(model, phi)
        assert np.all(std >= np.sqrt(eps) - 1e-15)

        for d in range(2):
            # joint d's weights, drawn from their exact marginal
            draws = rng.multivariate_normal(model.mu_w[d], model.sigma_w[d], size=100_000)
            samples = draws @ phi.T
            mc = np.sqrt(samples.var(axis=0, ddof=1) + model.sigma_y[d])
            assert np.max(np.abs(mc / std[:, d] - 1.0)) <= 0.02


def _run_pipeline(base):
    base.mkdir(exist_ok=True)
    formats.save_profile(fx.make_profile(), base / "calib.txt")
    (base / "coupling.txt").write_text(coupling_text(fx.make_coupling13().weights))
    demo_paths = []
    for seed in fx.DEMO_SEEDS:
        (base / f"emu_{seed}.txt").write_text(emu_text(fx.emulator_config(seed)))
        stream = base / f"stream_{seed}.bin"
        assert main([
            "glove-emulate", "--config", str(base / f"emu_{seed}.txt"),
            "--duration", str(fx.DURATION), "--fast", "--transport", f"file:{stream}",
        ]) == 0
        demo = base / f"demo_{seed}.txt"
        assert main([
            "record", "--transport", f"file:{stream}",
            "--calibration", str(base / "calib.txt"),
            "--coupling", str(base / "coupling.txt"),
            "--duration", str(fx.DURATION), "--output", str(demo),
        ]) == 0
        demo_paths.append(demo)
    assert main([
        "train", *[str(p) for p in demo_paths], "--output", str(base / "model.txt"),
    ]) == 0
    assert main([
        "reproduce", "--model", str(base / "model.txt"),
        "--duration", str(fx.DURATION), "--output", str(base / "tracking.csv"),
    ]) == 0
    assert main([
        "eval", *[str(p) for p in demo_paths],
        "--model", str(base / "model.txt"), "--output", str(base / "bands.csv"),
    ]) == 0


@pytest.fixture(scope="module")
def analog(tmp_path_factory):
    root = tmp_path_factory.mktemp("analog")
    start = time.perf_counter()
    _run_pipeline(root / "run1")
    elapsed = time.perf_counter() - start
    _run_pipeline(root / "run2")
    return root, elapsed


def test_criterion_08_cup_stacking_analog(analog):
    with criterion(8, "13-joint end-to-end analog: learned-mean and tracking RMSE bounds, "
                      "< 30 s"):
        root, elapsed = analog
        base = root / "run1"
        model = formats.load_model(base / "model.txt")
        assert model.D == 13

        t_steps = int(fx.DURATION * fx.CONTROL_RATE)
        learned = mean_trajectory(model, design_matrix(t_steps, model.basis))
        assert learned.shape == (3000, 13)
        clean = fx.clean_reference(t_steps)
        mean_rmse = np.sqrt(((learned - clean) ** 2).mean(axis=0))
        assert np.all(mean_rmse < fx.noise_std_rad()), (
            f"learned-mean RMSE {mean_rmse} vs noise std {fx.noise_std_rad()}"
        )

        tracking = np.loadtxt(base / "tracking.csv", delimiter=",", skiprows=1)
        assert tracking.shape[0] == 3000
        errors = tracking[:, 3::3]
        tracking_rmse = np.sqrt((errors**2).mean(axis=0))
        assert np.all(tracking_rmse < 0.05), f"tracking RMSE {tracking_rmse}"

        assert elapsed < 30.0, f"pipeline runtime {elapsed:.1f} s"


def test_criterion_09_band_coverage(analog):
    with criterion(9, ">= 95% of training-demo samples inside +/- 2 marginal std"):
        root, _ = analog
        base = root / "run1"
        model = formats.load_model(base / "model.txt")
        demos = [formats.load_demo(base / f"demo_{s}.txt") for s in fx.DEMO_SEEDS]
        phi = design_matrix(demos[0].T, model.basis)
        mean = mean_trajectory(model, phi)
        std = marginal_std(model, phi)
        inside = 0
        total = 0
        for demo in demos:
            inside += int((np.abs(demo.values - mean) <= 2.0 * std).sum())
            total += demo.values.size
        fraction = inside / total
        assert fraction >= 0.95, f"coverage {fraction:.4f}"


def test_criterion_10_pipeline_determinism(analog):
    with criterion(10, "same-seed pipeline runs produce byte-identical artifacts"):
        root, _ = analog
        artifacts = [
            "stream_11.bin", "stream_12.bin", "demo_11.txt", "demo_12.txt",
            "model.txt", "tracking.csv", "bands.csv",
        ]
        for name in artifacts:
            a = (root / "run1" / name).read_bytes()
            b = (root / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
