"""The traced benchmark run wraps solver functions by module and name.

``perfbench/tracing.py`` patches them from outside the package; a
renamed or deleted target would crash every ``--trace 1`` run, so each
one must still resolve to a function or method of ``shwave``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._TARGETS
    for mod_name, attr, *_ in tracing._TARGETS:
        obj = importlib.import_module("shwave." + mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, "%s.%s is gone" % (mod_name, attr)
        assert inspect.isfunction(obj), "%s.%s is not a function" % (mod_name, attr)
