"""Package structure: every module imports at its top level, every public
function and class has a caller, and what a module may name."""

import ast
import re
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


def references(path: Path, module: str) -> set[str]:
    """The names of tulink.<module> that a module's code reads: ``alias.name``
    under the module's alias, a name imported from it, or, in the module
    itself, a module-level name read outside the function or class that it
    names. A name imported and never read, as ``__init__`` re-exports them,
    is no read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases, imported = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name == module:
                    aliases.add(a.asname or a.name)
                elif node.module == module:
                    imported[a.asname or a.name] = a.name
    own = path.stem == module
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


def test_every_public_function_or_class_has_a_caller():
    """A public function or class of any module that no code of the package
    reads is dead. Two kinds live on: tulink.synth, which the README demo and
    the benchmark call, and what the benchmark's tracer wraps by name
    (perfbench/spans.py TARGETS). Of the latter only tensor.spmm is read by
    nothing else: it goes together with its TARGETS entry."""
    unread = set()
    for path in SOURCES:
        public = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        read = set().union(*(references(other, path.stem) for other in SOURCES))
        unread |= {(path.stem, name) for name in public - read}
    model = next(path for path in SOURCES if path.name == "model.py")
    assert {"gcn", "Packing", "Tensor"} <= references(model, "tensor")
    wrapped = {(module, name) for module, names in load_spans().TARGETS.items()
               for name in names}
    dead = {(module, name) for module, name in unread if module != "synth"} - wrapped
    assert not dead, sorted(dead)
    assert sorted(unread & wrapped) == [("tensor", "spmm")]


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


def test_only_the_initial_draw_sees_the_bounding_box():
    """After build-graphs every structure indexes a cell by its local graph
    node row. In model.py the bounding box's size ``n_grids`` appears only in
    ``ModelParams.drawn`` and ``_xavier_rows``, and ``grid_rows`` only as
    ``drawn``'s parameter; train.py names neither. So the bounding box cannot
    drift back into the model's inputs or its checkpoint."""
    def lines_of(tree, names):
        return {n for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in names
                for n in range(node.lineno, node.end_lineno + 1)}

    found = []
    for name in ("model.py", "train.py"):
        text = next(path for path in SOURCES if path.name == name).read_text(encoding="utf-8")
        tree = ast.parse(text, name)
        allowed = {"n_grids": set(), "grid_rows": set()}
        if name == "model.py":
            drawn = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef) and node.name == "drawn")
            assert "grid_rows" in [a.arg for a in drawn.args.args]
            allowed = {"n_grids": lines_of(tree, {"drawn", "_xavier_rows"}),
                       "grid_rows": lines_of(tree, {"drawn"})}
        for lineno, line in enumerate(text.split("\n"), 1):
            found += [f"{name}:{lineno} {word}" for word, lines in allowed.items()
                      if re.search(rf"\b{word}\b", line) and lineno not in lines]
    assert not found, found
