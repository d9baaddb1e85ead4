"""The benchmark's own self-test, run against this checkout's sources.

A refactor of ``src/`` that renames a function the benchmark traces fails
here. A change to ``leaf_cache``'s cache keys does not: the benchmark's fill
count then reads 1 on every call, which its self-test cannot tell apart;
``tests/test_engine.py`` pins those keys instead. The benchmark files are
copied to a temporary directory first, so nothing under ``perfbench/`` is
written.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
