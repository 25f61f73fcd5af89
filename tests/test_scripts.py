"""Smoke tests: every script in scripts/ runs on a small problem and prints
its CSV header and rows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("ansatz", ["first", "second", "plus"])
def test_bethe_root_atlas(ansatz):
    out = run_script("bethe_root_atlas.py", "--n", "6", "--max-dim", "4", "--ansatz", ansatz)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "K,L,ell,t,residual,u_spread,roots"
    assert len(lines) > 1


def test_concentration_sweep():
    out = run_script("concentration_sweep.py", "--n", "6")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("parity,K,L,")
    assert len(lines) > 1
