"""The README's library example, run as a user would run it, and its size."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    fisher, closed_form, quantum = (float(line) for line in proc.stdout.split())
    assert abs(fisher - closed_form) <= 1e-6
    assert abs(closed_form - 2.5162191) <= 1e-6
    assert quantum >= closed_form


def test_readme_stays_short():
    """One short paragraph per module: the README stays under 12 kB, with no
    line over 400 characters."""
    readme = (ROOT / "README.md").read_bytes()
    assert len(readme) < 12_000, len(readme)
    longest = max(readme.decode().splitlines(), key=len)
    assert len(longest) <= 400, longest[:80]
