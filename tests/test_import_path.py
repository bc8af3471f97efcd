"""scipy stays off shwave's import path.

The solver, the analytic profiles and the CLI tasks on them use only
numpy; scipy is imported inside the three functions that call it
(PCHIP for ``table`` profiles and the two oracles).  Each check runs in
a fresh interpreter, because this test process has scipy loaded
already: other test modules import it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import shwave as sw

SRC = str(Path(__file__).resolve().parent.parent / "src")

TABLE_ROWS = [(0.0, 5.0, 2.0), (1.0, 3.0, 1.5), (2.0, 1.2, 1.1), (3.0, 1.0, 1.0)]
TABLE_YS = np.linspace(0.0, 4.0, 41)
EXP_PARAMS = {"rho_inf": 1.0, "drho": 5.0, "d": 1.0}

# Prints the scipy modules loaded so far under `label`.
_PRELUDE = textwrap.dedent("""
    import json, sys

    def scipy_loaded(label):
        mods = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps([label, mods]))
""")


def run_fresh(body, *args):
    """Run `body` after the prelude in a new interpreter on the repo's src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body), *args],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def test_import_and_cli_tasks_load_no_scipy(tmp_path):
    for task in ("classify", "modes"):
        cfg = {"schema": "shwave-run/1", "task": task, "k": 1.0,
               "profile": {"name": "exp_density", "params": EXP_PARAMS},
               "output": {"basename": task}}
        (tmp_path / (task + ".json")).write_text(json.dumps(cfg))
    lines = run_fresh("""
        import shwave
        scipy_loaded("import shwave")
        import shwave.cli
        scipy_loaded("import shwave.cli")
        for task in ("classify", "modes"):
            cfg = sys.argv[1] + "/" + task + ".json"
            code = shwave.cli.main(["--config", cfg, "--output-dir", sys.argv[1]])
            assert code == 0, (task, code)
            scipy_loaded("cli " + task)
    """, str(tmp_path))
    assert lines == [["import shwave", []], ["import shwave.cli", []],
                     ["cli classify", []], ["cli modes", []]]
    report = json.loads((tmp_path / "modes.json").read_text())
    assert report["modes"]


def test_deferred_scipy_imports_resolve():
    lines = run_fresh("""
        import numpy as np
        import shwave as sw

        scipy_loaded("before")
        rows, ys, exp_params = json.loads(sys.argv[1])
        table = sw.from_table(rows)
        print(json.dumps([float(v).hex() for v in
                          np.concatenate([table.rho(ys), table.mu(ys)])]))
        exp = sw.from_registry("exp_density", exp_params)
        print(json.dumps([v.hex() for v in sw.fd_mode_frequencies(exp, 16.0).omegas]))
        print(json.dumps([v.hex() for v in
                          sw.bessel_mode_frequencies(5.0, 1.0, 16.0).omegas]))
    """, json.dumps([TABLE_ROWS, TABLE_YS.tolist(), EXP_PARAMS]))
    assert lines[0] == ["before", []]
    table = sw.from_table(TABLE_ROWS)
    exp = sw.from_registry("exp_density", EXP_PARAMS)
    fd = sw.fd_mode_frequencies(exp, 16.0).omegas
    bessel = sw.bessel_mode_frequencies(5.0, 1.0, 16.0).omegas
    assert len(fd) == len(bessel) == 6
    assert lines[1:] == [
        hexes(np.concatenate([table.rho(TABLE_YS), table.mu(TABLE_YS)])),
        hexes(fd), hexes(bessel)]
