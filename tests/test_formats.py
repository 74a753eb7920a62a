import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mutations import SAMPLES, mutated_file
from glovekit import formats
from glovekit.calibration import CalibrationProfile, CouplingMap
from glovekit.emulator import ChannelWaveform, EmulatorConfig
from glovekit.errors import GlovekitError
from glovekit.model import BasisConfig, Demonstration, TrajectoryModel, train_model


@pytest.fixture
def profile():
    return CalibrationProfile(
        (100.0, 110.0, 120.0, 130.0, 140.0),
        (900.0, 910.0, 920.0, 930.0, 940.0),
        (0.0,) * 5,
        (math.pi / 2,) * 5,
    )


def roundtrip_bytes(path):
    return path.read_bytes()


class TestProfileFormat:
    def test_round_trip(self, tmp_path, profile):
        path = tmp_path / "cal.txt"
        formats.save_profile(profile, path)
        assert path.read_text().startswith("calib-v1\n")
        assert formats.load_profile(path) == profile

    def test_write_read_write_identical(self, tmp_path, profile):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        formats.save_profile(profile, p1)
        formats.save_profile(formats.load_profile(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("channel 1 0 1 0 1\n")
        with pytest.raises(GlovekitError, match="missing 'calib-v1' header"):
            formats.load_profile(path)

    def test_missing_channel(self, tmp_path, profile):
        path = tmp_path / "cal.txt"
        formats.save_profile(profile, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(GlovekitError, match="expected channels 1..5"):
            formats.load_profile(path)


class TestCouplingFormat:
    def test_round_trip(self, tmp_path):
        weights = oracles.default_coupling_map().weights
        path = tmp_path / "coupling.txt"
        path.write_text(oracles.coupling_text(weights))
        assert np.array_equal(formats.load_coupling(path).weights, weights)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "coupling.txt"
        path.write_text("coupling-v1\n")
        with pytest.raises(GlovekitError, match=r"coupling.txt: coupling weights must be \(D, 5\)"):
            formats.load_coupling(path)


class TestDemoFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        demo = Demonstration(rng.normal(0.5, 0.2, (40, 3)), 0.005)
        path = tmp_path / "demo.txt"
        formats.save_demo(demo, path)
        loaded = formats.load_demo(path)
        assert np.array_equal(loaded.values, demo.values)
        assert loaded.dt == demo.dt
        assert path.read_text().splitlines()[3] == "joints j01 j02 j03"

    def test_write_read_write_identical(self, tmp_path):
        demo = Demonstration(np.random.default_rng(0).normal(size=(25, 2)), 0.01)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        formats.save_demo(demo, p1)
        formats.save_demo(formats.load_demo(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_nonincreasing_time(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("demo-v1\nD 1\ndt 0.01\njoints j01\n0.0 1.0\n0.0 2.0\n")
        with pytest.raises(GlovekitError, match="time column must be strictly increasing"):
            formats.load_demo(path)

    @pytest.mark.parametrize("times", [["0", "inf", "inf"], ["0", "nan", "1"]],
                             ids=["repeated-inf", "nan"])
    def test_rejects_time_that_is_not_greater_than_the_one_before(self, tmp_path, times):
        """Neighbouring times are compared, not subtracted: inf - inf gives no
        invalid-value error, and a NaN time is not greater than its neighbour."""
        path = tmp_path / "demo.txt"
        path.write_text("demo-v1\nD 1\ndt 0.01\njoints j01\n"
                        + "".join(f"{t} {i}\n" for i, t in enumerate(times)))
        with np.errstate(over="raise", invalid="raise", divide="raise"), pytest.raises(
                GlovekitError) as caught:
            formats.load_demo(path)
        assert str(caught.value) == f"{path}: time column must be strictly increasing"

    def test_loads_times_whose_difference_overflows(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("demo-v1\nD 1\ndt 0.01\njoints j01\n-1e308 1.0\n1e308 2.0\n")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert formats.load_demo(path).values.tolist() == [[1.0], [2.0]]

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("demo-v1\nD 1\ndt 0.01\njoints j01\n0.0 1.0\n")
        with pytest.raises(GlovekitError,
                           match="demo.txt: demonstration needs T >= 2 samples, got 1"):
            formats.load_demo(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("demo-v1\nD 2\ndt 0.01\njoints j01 j02\n0.0 1.0\n0.01 1.0 2.0\n")
        with pytest.raises(GlovekitError, match="demo row has 2 fields, expected 3"):
            formats.load_demo(path)


class TestModelFormat:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0, 1, 80)
        demos = [
            Demonstration(
                np.column_stack([np.sin(2 * np.pi * t), np.cos(np.pi * t)])
                + rng.normal(0, 0.02, (80, 2)),
                0.01,
            )
            for _ in range(2)
        ]
        return train_model(demos, BasisConfig(K=7))

    def test_round_trip_exact(self, tmp_path, model):
        path = tmp_path / "model.txt"
        formats.save_model(model, path)
        loaded = formats.load_model(path)
        assert np.array_equal(loaded.mu_w, model.mu_w)
        assert np.array_equal(loaded.sigma_w, model.sigma_w)
        assert np.array_equal(loaded.sigma_y, model.sigma_y)
        assert loaded.basis == model.basis
        assert loaded.eps_reg == model.eps_reg

    def test_write_read_write_identical(self, tmp_path, model):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        formats.save_model(model, p1)
        formats.save_model(formats.load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sigma_w_is_one_block_of_k_rows_per_joint(self, tmp_path, model):
        path = tmp_path / "model.txt"
        formats.save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "promp-v3"
        rows = [line.split() for line in lines[8:]]
        assert [len(row) for row in rows] == [7] * 14
        for d in range(2):
            assert oracles.float_rows([" ".join(row) for row in rows[d * 7 : (d + 1) * 7]]
                                      ).tobytes() == model.sigma_w[d].tobytes()

    def test_thirteen_joint_model_write_read_write_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        demos = [Demonstration(np.cumsum(rng.normal(size=(300, 13)), 0), 0.005) for _ in range(3)]
        model = train_model(demos, BasisConfig(K=20))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        formats.save_model(model, p1)
        loaded = formats.load_model(p1)
        assert loaded.sigma_w.tobytes() == model.sigma_w.tobytes()
        formats.save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() == oracles.model_text(model).encode()

    def test_truncated_covariance_rejected(self, tmp_path, model):
        path = tmp_path / "model.txt"
        formats.save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-1] + "\n")
        with pytest.raises(GlovekitError, match="sigma_w must be 14 rows of 7 values"):
            formats.load_model(path)


class TestTactileFormat:
    def test_round_trip(self, tmp_path):
        times = np.array([0.0, 0.1, 0.2])
        forces = np.array([[0.0] * 5, [1.0, 0, 0, 0, 0.5], [2.0] * 5])
        path = tmp_path / "tactile.txt"
        path.write_text(oracles.tactile_text(times, forces))
        t2, f2 = formats.load_tactile(path)
        assert np.array_equal(t2, times)
        assert np.array_equal(f2, forces)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "tactile.txt"
        path.write_text("tactile-v1\n")
        with pytest.raises(GlovekitError, match="empty tactile profile"):
            formats.load_tactile(path)


class TestEmulatorConfigFormat:
    def test_round_trip(self, tmp_path):
        cfg = EmulatorConfig(
            rate=350.0,
            channels=tuple(
                ChannelWaveform(500.0 + i, 100.0, 0.1 * (i + 1), 0.2 * i) for i in range(5)
            ),
            noise_std=4.0,
            seed=77,
        )
        path = tmp_path / "emu.txt"
        path.write_text(oracles.emu_text(cfg))
        assert formats.load_emulator_config(path) == cfg

    def test_defaults_when_keys_absent(self, tmp_path):
        path = tmp_path / "emu.txt"
        path.write_text("emu-v1\nrate 350\n")
        cfg = formats.load_emulator_config(path)
        assert cfg.rate == 350.0
        assert cfg.channels[0].offset == 512.0
        path.write_text("emu-v1\n")
        assert formats.load_emulator_config(path) == EmulatorConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "emu.txt"
        path.write_text("emu-v1\nbogus 1\n")
        with pytest.raises(GlovekitError, match="unknown keys"):
            formats.load_emulator_config(path)


class TestResultCsvs:
    def test_tracking_csv_layout(self, tmp_path):
        reference = np.array([[0.0, 1.0], [0.1, 1.1]])
        executed = np.array([[0.0, 1.0], [0.05, 1.2]])
        path = tmp_path / "tracking.csv"
        formats.save_tracking_csv(path, reference, executed, 200.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,j01_ref,j01_exec,j01_err,j02_ref,j02_exec,j02_err"
        cells = lines[2].split(",")
        assert float(cells[0]) == pytest.approx(0.005)
        assert float(cells[3]) == pytest.approx(-0.05)

    def test_bands_csv_layout(self, tmp_path):
        mean = np.array([[0.5], [0.6]])
        std = np.array([[0.1], [0.1]])
        path = tmp_path / "bands.csv"
        formats.save_bands_csv(path, mean, std, 0.01)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,j01_mean,j01_std"
        assert lines[2] == "0.01,0.6,0.1"
        assert len(lines) == 3


LOADERS = {
    "calib": formats.load_profile,
    "coupling": formats.load_coupling,
    "demo": formats.load_demo,
    "model": formats.load_model,
    "tactile": formats.load_tactile,
    "emu": formats.load_emulator_config,
}


@pytest.mark.parametrize("kind,start,message", [
    ("tactile", "0.1 ", "tactile row has 7 fields, expected 6"),
    # the first sigma_w row: joint 1 is the same in both of the sample's demos,
    # so its block is eps_reg * I
    pytest.param("model", "1e-08 ", "sigma_w row has 7 fields, expected 6",
                 id="model-sigma_w -sigma_w row has 7 fields, expected 6"),
])
def test_row_of_wrong_length_names_its_field_counts(tmp_path, kind, start, message):
    """Every float table states a row's length error the same way, as demo rows do."""
    lines = SAMPLES[kind].splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(start))
    lines[i] += " 0.0"
    path = tmp_path / kind
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GlovekitError) as caught:
        LOADERS[kind](path)
    assert str(caught.value) == f"{path}: {message}"


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_loaders_raise_only_glovekit_errors(tmp_path_factory, data):
    """Under the CLI's float error checks, a loader raises only GlovekitError,
    and its message names the file first."""
    kind = data.draw(st.sampled_from(list(SAMPLES)))
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data.draw(mutated_file(kind)))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            LOADERS[kind](path)
    except GlovekitError as exc:
        assert str(exc).startswith((f"{path}: ", f"cannot read {path}: ")), exc


# tokens numpy's reader refuses and float() takes (1_0, non-ASCII digits),
# float spellings both take, and tokens neither takes (NUL alone and inside one)
EDGE_TOKENS = ["1_0", "١٢", "nan", "-inf", "1e400", "-1e400", "+.5", "0x10", "1,5", "#",
               '"1"', "'", "\x00", "1\x002"]
SEPARATORS = st.text(st.sampled_from(" \t\xa0\u2003\x1f"), min_size=1, max_size=2)


@st.composite
def table_lines(draw):
    """Non-blank lines of floats and edge tokens joined by any whitespace, as
    the loaders get them, and the column count they should hold."""
    cols = draw(st.integers(1, 4))
    # about a quarter of the tables are full rows of floats alone, which numpy's
    # reader parses; the rest add edge tokens, rows of other widths, or both
    token, widths = st.floats().map(repr), st.just(cols)
    if draw(st.booleans()):
        token |= st.sampled_from(EDGE_TOKENS)
    if draw(st.booleans()):
        widths = st.integers(max(cols - 1, 1), cols + 1)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        tokens = [draw(token) for _ in range(draw(widths))]
        ends = draw(st.lists(st.one_of(st.just(""), SEPARATORS), min_size=2, max_size=2))
        line = ends[0] + "".join(t + draw(SEPARATORS) for t in tokens[:-1]) + tokens[-1] + ends[1]
        if line.strip():
            lines.append(line)
    return lines, cols


def _table_or_error(parse):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            table = parse()
    except GlovekitError as exc:
        return str(exc)
    return table.shape, table.tobytes()


@given(case=table_lines())
@settings(max_examples=400, deadline=None)
def test_float_table_is_the_float_path(case):
    """numpy's reader and the token-by-token float path agree on every table:
    the same bits, or the same error message."""
    lines, cols = case
    assert (_table_or_error(lambda: formats._float_table(lines, cols, "row"))
            == _table_or_error(lambda: formats._parse_rows(lines, cols, "row")))


BLOCK = formats._BLOCK_ROWS
# table lengths below, at and above the writers' block size and its multiples
ROWS = st.one_of(
    st.integers(2, 9), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
)
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 0.1,
           -0.1, 1.0, -3.0, 1024.0, 12345678.0, 1e22, 1e300]


@st.composite
def float_tables(draw, shape):
    """Finite float64 tables mixing special values with random magnitudes."""
    pool = np.array(SPECIAL + draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    table[special] = rng.choice(pool, size=int(special.sum()))
    return table


def _body(path, header_lines):
    return path.read_text().splitlines()[header_lines:]


NONFINITE = [np.nan, -np.nan, np.inf, -np.inf]


def _with_nonfinite(data, table):
    """A copy of the table with nan, -nan, inf and -inf each in a drawn cell."""
    cells = data.draw(st.lists(st.integers(0, table.size - 1), min_size=4, max_size=12,
                               unique=True))
    table = table.copy()
    table.flat[cells] = np.resize(NONFINITE, len(cells))
    return table


@given(rows=ROWS, d=st.integers(1, 13), k=st.integers(1, 6),
       dt=st.sampled_from([0.005, 1 / 350, 0.01, 0.1, 3.0]),
       rate=st.sampled_from([200.0, 350.0, 7.0, 1000.0]), data=st.data())
@settings(max_examples=25, deadline=None)
def test_table_writers_match_cell_by_cell_reference(tmp_path_factory, rows, d, k, dt, rate, data):
    """Every table writer gives the bytes of the per-cell reference, and every
    table loader gives the bits of a per-token float() parse. The result CSVs
    also hold nan, -nan, inf and -inf cells."""
    values = data.draw(float_tables((rows, 1 + d * 4 + 5)))
    bands = _with_nonfinite(data, values[:, 1 : 1 + 2 * d])
    tracking = _with_nonfinite(data, values[:, 1 + 2 * d : 1 + 4 * d])
    forces = values[:, -5:]
    path = tmp_path_factory.getbasetemp() / "table.txt"

    demo = Demonstration(values[:, 1 : 1 + d], dt)
    labels = [f"j{j + 1:02d}" for j in range(d)]
    formats.save_demo(demo, path)
    assert path.read_bytes() == oracles.demo_text(demo.values, dt, labels).encode()
    loaded = formats.load_demo(path)
    assert loaded.values.tobytes() == oracles.float_rows(_body(path, 4))[:, 1:].tobytes()

    path.write_text(oracles.tactile_text(values[:, 0], forces))
    times, loaded_forces = formats.load_tactile(path)
    parsed = oracles.float_rows(_body(path, 1))
    assert times.tobytes() == parsed[:, 0].tobytes()
    assert loaded_forces.tobytes() == parsed[:, 1:].tobytes()

    # drawn values near the float limit give an inf error, and inf - inf a nan one
    ref, exe = tracking[:, :d], tracking[:, d:]
    with np.errstate(over="ignore", invalid="ignore"):
        formats.save_tracking_csv(path, ref, exe, rate)
        assert path.read_bytes() == oracles.tracking_csv_text(ref, exe, rate).encode()

    mean, std = bands[:, :d], bands[:, d:]
    formats.save_bands_csv(path, mean, std, dt)
    assert path.read_bytes() == oracles.bands_csv_text(mean, std, dt).encode()

    kd = k * d
    weights = data.draw(float_tables((kd + 2, kd)))
    model = TrajectoryModel(BasisConfig(K=k), weights[0].reshape(d, k),
                            weights[2:, :k].reshape(d, k, k), np.abs(weights[1, :d]))
    formats.save_model(model, path)
    assert path.read_bytes() == oracles.model_text(model).encode()
    sigma_w = oracles.float_rows(_body(path, 8))
    assert formats.load_model(path).sigma_w.tobytes() == sigma_w.tobytes()


def _save_demo_with_float_only_token(values, path):
    """Save a demo whose middle row's first joint, 10.0, is written ``1_0.0``:
    ``float`` takes it and numpy's reader does not, so the float path parses
    the whole table."""
    row = values.shape[0] // 2
    values[row, 0] = 10.0
    formats.save_demo(Demonstration(values, 0.005), path)
    lines = path.read_text().splitlines()
    tokens = lines[4 + row].split(" ")
    assert tokens[1] == "10.0"
    tokens[1] = "1_0.0"
    lines[4 + row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_load_demo_across_parse_blocks(tmp_path, monkeypatch, extra):
    """13-joint demos one row short of, at and past two float-path blocks load
    bit for bit as a per-token float() parse."""
    rows = 2 * formats._BLOCK_ROWS + extra
    rng = np.random.default_rng(extra + 1)
    values = rng.normal(size=(rows, 13)) * 10.0 ** rng.integers(-8, 8, size=(rows, 13))
    path = tmp_path / "demo.txt"
    _save_demo_with_float_only_token(values, path)
    parsed = []
    parse_rows = formats._parse_rows
    monkeypatch.setattr(formats, "_parse_rows",
                        lambda lines, *rest: parsed.append(len(lines)) or parse_rows(lines, *rest))
    loaded = formats.load_demo(path)
    assert parsed == [rows]
    assert loaded.values.tobytes() == oracles.float_rows(_body(path, 4))[:, 1:].tobytes()
    assert loaded.values.tobytes() == values.tobytes()


def test_bands_csv_memory_stays_near_file_size(tmp_path):
    """Writing the eval CSV of a 13-joint 30 s model holds one block of rows
    at a time: neither the whole table (0.42x the file) nor its text."""
    rng = np.random.default_rng(0)
    t_steps, d = 6000, 13
    mean = rng.normal(size=(t_steps, d))
    std = rng.random((t_steps, d))
    path = tmp_path / "bands.csv"
    _, peak = oracles.traced_peak(lambda: formats.save_bands_csv(path, mean, std, 0.005))
    assert peak < 0.25 * path.stat().st_size


def test_load_demo_memory_stays_near_file_size(tmp_path):
    """Loading a 6000 x 13 demo holds the file's lines and one block of
    tokens, not a token per cell of the whole file (about 6x the file)."""
    rng = np.random.default_rng(0)
    path = tmp_path / "demo.txt"
    formats.save_demo(Demonstration(rng.normal(size=(6000, 13)), 0.005), path)
    _, peak = oracles.traced_peak(lambda: formats.load_demo(path))
    assert peak < 3.0 * path.stat().st_size


def test_float_path_memory_stays_near_file_size(tmp_path):
    """The same demo with one token only ``float`` takes, so the float path
    parses it: it holds one block of tokens at a time, not a token per cell
    of the whole file (about 6x the file)."""
    rng = np.random.default_rng(0)
    path = tmp_path / "demo.txt"
    _save_demo_with_float_only_token(rng.normal(size=(6000, 13)), path)
    _, peak = oracles.traced_peak(lambda: formats.load_demo(path))
    assert peak < 3.0 * path.stat().st_size
