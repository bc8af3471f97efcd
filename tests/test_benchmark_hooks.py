"""The traced benchmark run wraps solver functions by module and name.

``perfbench/tracing.py`` patches them from outside the package; a
renamed or deleted target would crash every ``--trace 1`` run, so each
one must still resolve to a function or method of ``shwave``.  Its count
callbacks read some arguments by position, so those positions must
still hold the parameters they were written for.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, attribute or Class.method, position read by a hook, parameter)
_HOOK_ARGS = (
    ("dispersion", "_refine_brackets", 2, "brackets"),
    ("propagate", "_frozen_step", 4, "phi"),
    ("liouville", "TauMap.y_of", 1, "tau"),
    ("cli", "run", 2, "out_dir"),
) + tuple(("profile", "MaterialProfile." + meth, 1, "y")
          for meth in ("coef_pair", "stiffness", "eval", "rho", "mu"))


def _resolve(mod_name, attr):
    obj = importlib.import_module("shwave." + mod_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, "%s.%s is gone" % (mod_name, attr)
    return obj


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._TARGETS
    for mod_name, attr, *_ in tracing._TARGETS:
        obj = _resolve(mod_name, attr)
        assert inspect.isfunction(obj), "%s.%s is not a function" % (mod_name, attr)


def test_hook_argument_positions():
    for mod_name, attr, pos, name in _HOOK_ARGS:
        params = list(inspect.signature(_resolve(mod_name, attr)).parameters)
        assert len(params) > pos and params[pos] == name, \
            "%s.%s: position %d is %r, the hook reads %r" % (
                mod_name, attr, pos, params[pos] if len(params) > pos else None,
                name)
