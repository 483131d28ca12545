"""The traced benchmark's targets exist in the package.

perfbench/spans.py wraps functions of tulink by name; a renamed or deleted
one makes ``Tracer.install`` fail. This test loads that file as it is and
installs and removes the tracer, so such a rename fails here first.
"""

import sys
import types
from pathlib import Path

import tulink.cli  # noqa: F401  (imports every module the tracer wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """spans.py as a module, read from its source and never written."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_is_wrapped_and_restored():
    spans = load_spans()
    originals = {}
    for module_name, names in spans.TARGETS.items():
        module = sys.modules[f"tulink.{module_name}"]
        for name in names:
            owner, attr = ((module.Tape, "backward") if name == "Tape.backward"
                           else (module, name))
            originals[f"{module_name}.{name}"] = (owner, attr, getattr(owner, attr))

    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [key for key, (owner, attr, fn) in originals.items()
                     if getattr(owner, attr) is fn]
    finally:
        tracer.remove()
    assert not unwrapped, unwrapped
    restored = [key for key, (owner, attr, fn) in originals.items()
                if getattr(owner, attr) is fn]
    assert sorted(restored) == sorted(originals)
