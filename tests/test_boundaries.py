"""Module boundaries: no glovekit module imports another one's private names,
every raise is one of the two toolkit errors, importing the CLI loads only
what every command needs, every public name has a caller in the package,
every method and format function the benchmark's tracer times exists, and the
benchmark's self-check runs."""

import ast
import io
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import glovekit
from glovekit import formats, pipeline
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


def raises(node, function="<module>"):
    """(enclosing function, raised expression) for every raise under ``node``;
    a bare re-raise raises None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield function, exc and ast.unparse(exc)
        yield from raises(child, child.name if isinstance(child, ast.FunctionDef) else function)


# the four raises that are not toolkit errors, each by where it is
ALLOWED_RAISES = {
    # argparse turns it into a usage error, exit 2
    ("cli._finite_float", "argparse.ArgumentTypeError"),
    # a bad mode is the calling code's mistake, which no input reaches
    ("transports.open_transport", "ValueError"),
    # assigning to or deleting a field of a value class is the calling code's
    # mistake, which no input reaches; frozen dataclasses raised the same
    # error from generated code that this walk could not see
    ("record.__setattr__", "AttributeError"),
    ("record.__delattr__", "AttributeError"),
}


def test_every_raise_is_a_toolkit_error():
    """cli.main maps TransportError to exit 4 and any other GlovekitError to
    exit 3; any other exception would end a command in a traceback."""
    found = {(f"{path.stem}.{function}", exc) for path in sorted(PACKAGE.glob("*.py"))
             for function, exc in raises(ast.parse(path.read_text()))}
    assert ALLOWED_RAISES <= found
    toolkit = {None, "GlovekitError", "TransportError"}
    assert sorted(r for r in found - ALLOWED_RAISES if r[1] not in toolkit) == []


def test_cli_import_leaves_socket_unloaded():
    """Only tcp: needs socket and only a reader that is not a regular file
    needs select, so a fresh interpreter's import of the CLI, which every
    command pays, loads neither; nor does it load dataclasses, whose class
    generation is run-time work on every import."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import glovekit.cli; "
             "print('socket' in sys.modules, 'select' in sys.modules, "
             "'dataclasses' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False False False\n", "")


def test_first_table_writes_load_no_module(tmp_path):
    """A fresh interpreter's first save_tracking_csv and save_demo load no
    module that importing the CLI left unloaded: a numpy function that imports
    a submodule on first use (``np.unique`` loads ``numpy.ma``) would add its
    import time and memory to the first command that writes a table."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import glovekit.cli; "
             "before = set(sys.modules); "
             "import numpy as np; from pathlib import Path; "
             "from glovekit import formats; from glovekit.model import Demonstration; "
             "v = np.linspace(-3.0, 3.0, 600).reshape(200, 3) ** 3; "
             "formats.save_tracking_csv(Path(sys.argv[2]) / 't.csv', v, v * 1.5, 200.0); "
             "formats.save_demo(Demonstration(v, 0.005), Path(sys.argv[2]) / 'd.txt'); "
             "print(sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def infinity_comparisons(node, function="<module>"):
    """The enclosing function of every comparison with ``np.inf`` or ``math.inf``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Compare):
            operands = [child.left, *child.comparators]
            if any(isinstance(op, ast.Attribute) and op.attr == "inf" for op in operands):
                yield function
        yield from infinity_comparisons(
            child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_scalar_range_rule_is_written_once():
    """"Positive (or nonnegative) and finite" is one rule, stated in
    ``errors``: no other module words its message or compares with infinity."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: text.count("and finite, got") for name, text in sources.items()
            if "and finite, got" in text} == {"errors": 1}
    compared = {f"{name}.{function}" for name, text in sources.items()
                for function in infinity_comparisons(ast.parse(text))}
    assert compared <= {"errors._require"}


def test_file_naming_rule_is_written_once():
    """"An error about what a file holds names the file" is one rule, stated
    in ``formats._loader``: no parser puts ``{path}: `` in its own messages.
    Only read and write failures, which the wrapper does not see, name it too."""
    tree = ast.parse((PACKAGE / "formats.py").read_text())
    named = [(top.name, ast.unparse(node)) for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.JoinedStr) and "{path}: " in ast.unparse(node)]
    assert [(function, text) for function, text in named
            if not text.startswith(("f'cannot read ", "f'cannot write "))] == [
        ("_loader", "f'{path}: {exc}'")]


def public_definitions(tree):
    """(name, statement) of each public top-level function, class and constant."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, ast.Assign):
            names = [target.id for target in statement.targets if isinstance(target, ast.Name)]
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            names = [statement.target.id]
        else:
            continue
        yield from ((name, statement) for name in names if not name.startswith("_"))


def names_read(node):
    """Every name that code under ``node`` reads, bare or as an attribute."""
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)}


def test_every_public_name_has_a_caller_in_src():
    """A public function, class or constant that no ``src`` code reads outside
    its own definition exists only for tests: it belongs in ``tests/oracles.py``
    or nowhere."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = [(statement, names_read(statement))
             for tree in trees.values() for statement in tree.body]
    unread = {f"{module}.{name}" for module, tree in trees.items()
              for name, definition in public_definitions(tree)
              if not any(name in names for statement, names in reads
                         if statement is not definition)}
    assert sorted(unread) == []


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


def test_tracer_times_the_savers_and_loaders_formats_defines():
    """The tracer times each name in ``FORMATS_CALLED`` and wraps every public
    function of ``formats``: a renamed saver would read 0, and a public
    helper would add spans to ``formats.self_s``."""
    public = {name for name, fn in vars(formats).items()
              if inspect.isfunction(fn) and fn.__module__ == formats.__name__
              and not name.startswith("_")}
    assert set(tracer.FORMATS_CALLED) <= public
    assert sorted(name for name in public if not name.startswith(("save_", "load_"))) == []


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
