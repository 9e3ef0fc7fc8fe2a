"""The README's scripts run from a checkout, in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import icbounds

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("make_figures.py", ["--grid", "11", "--out", "figs"]),
    ("simulate_sweep.py", ["--trials", "20", "--blocklengths", "4"]),
])
def test_script_runs(tmp_path, script, args):
    # the child gets the location of the package under test, as in c10
    env = dict(os.environ)
    package_root = str(Path(icbounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    if script == "make_figures.py":
        names = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert names == sorted(f"{f}_bound{h}.csv" for f in ("fig2", "fig3", "fig4")
                               for h in ("", "_hull"))
