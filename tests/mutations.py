"""One valid file of each input format, and a strategy that mutates it.

Shared by the loader property (each loader raises only glovekit errors) and
the CLI property (each subcommand ends in a documented exit code).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from glovekit import formats
from glovekit.calibration import CalibrationProfile
from glovekit.emulator import ChannelWaveform, EmulatorConfig
from glovekit.model import BasisConfig, Demonstration, train_model
from oracles import coupling_text, default_coupling_map, emu_text, tactile_text


def _valid_samples() -> dict:
    """One valid file per input format, as text, keyed by the format's short name."""
    # six basis functions, two joints: twelve sigma_w rows of six values, the
    # sizes that the tests' expected messages name
    model = train_model(
        [Demonstration(np.column_stack([np.linspace(0, 1, 6), np.ones(6) * s]), 0.01)
         for s in (0.1, 0.2)],
        BasisConfig(K=6),
    )
    profile = CalibrationProfile((100.0,) * 5, (900.0,) * 5, (0.0,) * 5, (1.5,) * 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.txt"

        def written(save, *args):
            save(*args, path)
            return path.read_text()

        return {
            "calib": written(formats.save_profile, profile),
            "coupling": coupling_text(default_coupling_map().weights),
            "demo": written(formats.save_demo, Demonstration(np.arange(6.0).reshape(3, 2), 0.005)),
            "model": written(formats.save_model, model),
            "tactile": tactile_text([0.0, 0.1], np.eye(2, 5)),
            "emu": emu_text(
                EmulatorConfig(channels=(ChannelWaveform(500.0, 100.0, 0.5, 1.0),) * 5, seed=3)),
        }


SAMPLES = _valid_samples()
TOKENS = ["channel", "row", "D", "dt", "joints", "K", "h", "lambda", "eps_reg", "normalize",
          "centers", "mu_w", "sigma_w", "sigma_y", "rate", "noise_std", "seed",
          "channel1.offset", "0", "1", "2", "3", "-1", "0.5", "1e400", "1e308", "-1e308", "nan",
          "inf", "x", "é",
          # float() takes these and numpy's table reader does not, so a table
          # holding one is parsed by the loaders' float path
          "1_0", "١٢", "0\xa01"]


@st.composite
def mutated_file(draw, kind):
    """Bytes: the valid sample of ``kind`` with tokens and lines replaced,
    inserted or deleted, or arbitrary text, or arbitrary bytes."""
    choice = draw(st.sampled_from(["mutated", "text", "bytes"]))
    if choice == "text":
        return draw(st.text()).encode()
    if choice == "bytes":
        return draw(st.binary())
    lines = [line.split(" ") for line in SAMPLES[kind].splitlines()]
    token = st.one_of(st.sampled_from(TOKENS), st.text(max_size=4))
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        op = draw(st.sampled_from(["replace", "insert", "delete", "drop_line", "copy_line"]))
        if op == "replace" and j < len(lines[i]):
            lines[i][j] = draw(token)
        elif op == "insert":
            lines[i].insert(j, draw(token))
        elif op == "delete" and j < len(lines[i]):
            del lines[i][j]
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif op == "copy_line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
    return "\n".join(" ".join(line) for line in lines).encode()
