"""Module boundaries: no glovekit module imports another one's private names,
and every method the benchmark's tracer patches exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import glovekit

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

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


def tracer_methods():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = tracer
    spec.loader.exec_module(tracer)
    return tracer.METHODS


@pytest.mark.parametrize("layer,cls,method", tracer_methods(),
                         ids=lambda part: part if isinstance(part, str) else None)
def test_tracer_patches_a_method_the_class_defines(layer, cls, method):
    """The tracer replaces ``vars(cls)[method]``; an inherited or removed
    method would leave its span metrics reading 0."""
    module = importlib.import_module(f"glovekit.{layer}")
    assert method in vars(getattr(module, cls))
