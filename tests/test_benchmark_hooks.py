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
import json
import sys
from pathlib import Path

import shwave
from shwave import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

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


def test_branches_cli_config_accepted(tmp_path, monkeypatch):
    # the branches-cli workload runs the CLI on a config it writes itself;
    # the CLI must accept it and give the loosened options it relies on
    monkeypatch.syspath_prepend(str(PERFBENCH))     # for its own imports
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    (op,) = workloads.branches_cli(shwave, 1, tmp_path).ops
    state = {}
    op.setup(state)
    config = json.loads((state["cli_dir"] / "run.json").read_text())
    op.teardown(state)
    cli._check_workers(config["workers"])
    opts = cli._options(config)
    assert config["workers"] == 1 and opts.space == "y"
    got = {"omega_grid_n": opts.omega_grid_n, "root_tol": opts.root_tol,
           "residual_tol": opts.residual_tol,
           "rel_tol": opts.settings.rel_tol, "abs_tol": opts.settings.abs_tol}
    assert got == workloads.LOOSE
