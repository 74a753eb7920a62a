"""Module boundaries: no glovekit module imports another one's private names,
importing the CLI loads only what every command needs, every method the
benchmark's tracer patches exists, and the benchmark's self-check runs."""

import ast
import io
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import glovekit
from glovekit import pipeline
from glovekit.wire import FRAME_SIZE, StreamParser, encode_frames

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

PACKAGE = Path(glovekit.__file__).parent


def private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "glovekit":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_cli_import_leaves_socket_unloaded():
    """Only tcp: needs socket, so a fresh interpreter's import of the CLI,
    which every command pays, does not load it."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import glovekit.cli; "
             "print('socket' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = tracer
    spec.loader.exec_module(tracer)
    return tracer


tracer = load_tracer()


@pytest.mark.parametrize("layer,cls,method", tracer.METHODS,
                         ids=lambda part: part if isinstance(part, str) else None)
def test_tracer_patches_a_method_the_class_defines(layer, cls, method):
    """The tracer replaces ``vars(cls)[method]``; an inherited or removed
    method would leave its span metrics reading 0."""
    module = importlib.import_module(f"glovekit.{layer}")
    assert method in vars(getattr(module, cls))



def test_tracer_feed_probe_reads_the_reader_loop():
    """The ``wire.*`` metrics come from ``_feed_counts`` on each ``feed`` span.
    ``read_raw_frames``, the loop of ``record`` and ``calibrate``, must go
    through ``feed``, and on a corrupted chunk the probe must read its bytes,
    frames and skipped bytes, or those metrics fall back to 0 unnoticed."""
    good = encode_frames([(1, 2, 3, 4, 5)] * 3)
    bad_checksum = good[:11] + bytes([good[11] ^ 0xFF, good[12]])
    chunk = b"\x00\x01" + bad_checksum + good[FRAME_SIZE:]
    blocks = []
    spans = tracer.Tracer()
    spans.install()
    try:
        stats = pipeline.read_raw_frames(io.BytesIO(chunk), 1.0, 350.0,
                                         lambda raw, index: blocks.append(raw))
    finally:
        spans.uninstall()
    view = tracer.PassView(spans.take(), spans.labels, 1.0)
    assert stats.frames_received == sum(len(raw) for raw in blocks) == 2
    assert view.attrs("wire.StreamParser.feed") == [(len(chunk), 2, 2 + FRAME_SIZE)]
    metrics = {name: value(view) for name, _, value in tracer.LAYER_METRICS}
    assert metrics["wire.frames_decoded"] == 2
    assert metrics["wire.bytes_skipped"] == 2 + FRAME_SIZE
    assert metrics["wire.skip_ratio"] == (2 + FRAME_SIZE) / len(chunk)
    assert metrics["wire.feed_s"] > 0 and metrics["wire.frames_per_s"] > 0


def test_bench_selfcheck_passes():
    """Every workload runs at a tiny size, traced and untraced, and emits
    every metric, so a renamed function that a tracer probe reads fails
    here and not only in a traced benchmark run."""
    result = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
