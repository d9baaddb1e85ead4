"""The study scripts write their CSVs, and reject bad flags with exit 2
before they write anything."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexfock import (DensityModel, build_density, build_exchange_symmetric,
                     generate_cluster, hilbert_order)
from hexfock.quadtree import build_matrix_tree, build_pair_tree, build_partition

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("args,flag", [
    pytest.param(["--sizes", sizes], "--sizes", id=sizes)
    for sizes in ("3,2", "3,x", "0")
] + [
    # an --outdir that exists but is not a directory (the earlier CSV)
    pytest.param(["--outdir", "scaling_1e-08_1e-11.csv"], "--outdir",
                 id="outdir-is-a-file"),
])
def test_scaling_study_rejects_bad_sizes_before_writing(tmp_path, args, flag):
    earlier = tmp_path / "scaling_1e-08_1e-11.csv"
    earlier.write_bytes(b"rows of an earlier run\n")
    proc = _run_script("run_scaling_study.py", "--outdir", str(tmp_path),
                       *args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert earlier.read_bytes() == b"rows of an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == [earlier.name]


@pytest.mark.parametrize("args,flag", [
    (["--n", "0"], "--n"),
    (["--tau-2e", "nan"], "--tau-2e"),
    (["--tau-ovlp", "-1"], "--tau-ovlp"),
    # an --outdir that exists but is not a directory (the earlier CSV)
    (["--outdir", "cases_all_tasks.csv"], "--outdir"),
])
def test_case_breakdown_rejects_bad_flags_before_writing(tmp_path, args, flag):
    earlier = tmp_path / "cases_all_tasks.csv"
    earlier.write_bytes(b"rows of an earlier run\n")
    proc = _run_script("run_case_breakdown.py", "--outdir", str(tmp_path),
                       *args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert earlier.read_bytes() == b"rows of an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == [earlier.name]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_case_breakdown_writes_the_drivers_case_counts(tmp_path):
    proc = _run_script("run_case_breakdown.py", "--n", "2",
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the script's defaults: seed 3, tau_2e 1e-10, tau_ovlp 1e-13
    system, _ = hilbert_order(generate_cluster(2, seed=3))
    part = build_partition(system)
    pairs = build_pair_tree(system, part, tau_ovlp=1e-13)
    P = build_matrix_tree(build_density(system, DensityModel()), part)
    _, c = build_exchange_symmetric(pairs, P, 1e-10, evaluate=False)
    for name, want in (("cases_all_tasks.csv", c.case_tasks),
                       ("cases_leaf_tasks.csv", c.case_leaf_tasks)):
        rows = _csv_rows(tmp_path / name)
        assert {r["case"]: int(r["count"]) for r in rows} == want
    assert sum(c.case_tasks.values()) > 0


def test_scaling_study_writes_one_row_per_driver_and_size(tmp_path):
    proc = _run_script("run_scaling_study.py", "--sizes", "1,2",
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == ["scaling_1e-08_1e-11.csv",
                                       "scaling_1e-10_1e-13.csv"]
    for path in paths:
        rows = _csv_rows(path)
        assert sorted((r["n"], r["mode"]) for r in rows) == [
            ("1", "naive"), ("1", "symmetry"), ("2", "naive"), ("2", "symmetry")]
