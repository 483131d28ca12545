"""Package structure: every module imports at its top level, and every
primitive of the tensor module has a caller."""

import ast
from pathlib import Path

import tulink

from test_benchmark_targets import load_spans

SOURCES = sorted(Path(tulink.__file__).parent.glob("*.py"))


def test_no_import_inside_a_function():
    """An import inside a function body hides a dependency, and is the usual
    way round an import cycle between two modules. Modules import at top
    level, so a cycle fails at import time instead."""
    assert len(SOURCES) > 5
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, found


def tensor_references(path: Path) -> set[str]:
    """The names of tulink.tensor that a module's code reads: ``T.name``
    under the module's alias, a name imported from it, or, in tensor.py, a
    module-level name read outside the function that it names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases, imported = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name == "tensor":
                    aliases.add(a.asname or a.name)
                elif node.module == "tensor":
                    imported[a.asname or a.name] = a.name
    own = path.name == "tensor.py"
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    found.add(imported[node.id])
                elif own and node.id != getattr(top, "name", None):
                    found.add(node.id)
    return found


def test_every_tensor_function_has_a_caller():
    """A public function of tulink.tensor that no code of the package reads
    is dead, unless the benchmark's tracer wraps it by name
    (perfbench/spans.py TARGETS). Only spmm lives on that way: it goes
    together with its TARGETS entry."""
    tensor = next(path for path in SOURCES if path.name == "tensor.py")
    public = {node.name for node in ast.parse(tensor.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert {"gcn", "softmax", "spmm"} <= public
    unread = public - set().union(*map(tensor_references, SOURCES))
    wrapped = set(load_spans().TARGETS["tensor"])
    assert not unread - wrapped, sorted(unread - wrapped)
    assert sorted(unread & wrapped) == ["spmm"]


def test_model_leaves_checkpoint_faults_to_errors_reading():
    """model.py neither imports nor builds DataError: each fault that
    load_checkpoint finds is a ValueError, which ``errors.reading`` turns
    into the one message that names the file and the stage to rerun."""
    model = next(path for path in SOURCES if path.name == "model.py")
    names = set()
    for node in ast.walk(ast.parse(model.read_text(encoding="utf-8"), str(model))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.rpartition(".")[2] for a in node.names)
    assert "reading" in names
    assert "DataError" not in names
