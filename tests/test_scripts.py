import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rank1_profile_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "scripts/rank1_profile.py", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "breakpoints: -5, 0, 5, 10" in result.stdout.splitlines()
    assert "theta characteristic: k = -5/2, kappa = 5/2, r = -5/8" in result.stdout
    assert (
        "component-group values (all in (1/10)Z): 0, -2/5, -3/5, -3/5, -2/5"
        in result.stdout
    )


def test_global_heights_demo_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "scripts/global_heights_demo.py", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("3 semistable curves")
    worst = re.search(r"^worst \|global - oracle\| = (\S+)$", result.stdout, re.M)
    assert worst is not None, result.stdout
    assert float(worst.group(1)) < 1e-6
