"""The study scripts reject bad flags with exit 2 before they write anything."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("sizes", ["3,2", "3,x", "0"])
def test_scaling_study_rejects_bad_sizes_before_writing(tmp_path, sizes):
    earlier = tmp_path / "scaling_1e-08_1e-11.csv"
    earlier.write_bytes(b"rows of an earlier run\n")
    proc = _run_script("run_scaling_study.py", "--sizes", sizes,
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: --sizes" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert earlier.read_bytes() == b"rows of an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == [earlier.name]


@pytest.mark.parametrize("args,flag", [
    (["--n", "0"], "--n"),
    (["--tau-2e", "nan"], "--tau-2e"),
    (["--tau-ovlp", "-1"], "--tau-ovlp"),
])
def test_case_breakdown_rejects_bad_flags_before_writing(tmp_path, args, flag):
    earlier = tmp_path / "cases_all_tasks.csv"
    earlier.write_bytes(b"rows of an earlier run\n")
    proc = _run_script("run_case_breakdown.py", *args,
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert earlier.read_bytes() == b"rows of an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == [earlier.name]
