"""The demos run cleanly: each exits 0 and writes nothing to stderr."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs_cleanly(tmp_path):
    """Run copies of the demos (which read ``configs/`` and write
    ``demos/out/`` next to themselves) side by side, so nothing lands in the
    checkout."""
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out"))
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    demos = sorted((tmp_path / "demos").glob("*.py"))
    assert len(demos) == 4
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    procs = [
        subprocess.Popen(
            [sys.executable, str(demo)], cwd=tmp_path, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for demo in demos
    ]
    # Wait for every demo before asserting, so none is left running.
    results = []
    for demo, proc in zip(demos, procs):
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err += "\n(killed after 60 s)"
        results.append((demo.name, proc.returncode, err))
    assert results == [(demo.name, 0, "") for demo in demos]
