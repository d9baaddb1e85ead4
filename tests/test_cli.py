import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hexfock import DensityModel, build_density, cli, generate_cluster
from hexfock.basis import BOHR_PER_ANGSTROM
from hexfock.cli import (SERIES_COLUMNS, RunConfig, build_parser,
                         load_report_schema, main, run as run_report,
                         scaling_series)
from hexfock.oracle import dense_exchange
from hexfock.integrals import InvalidArgumentError

from conftest import write_density_file


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("field,value,flag", [
    ("tau_2e", -1.0, "--tau-2e"),
    ("tau_ovlp", -1.0, "--tau-ovlp"),
    ("tau_2e", math.nan, "--tau-2e"),
    ("tau_2e", math.inf, "--tau-2e"),
    ("tau_ovlp", math.nan, "--tau-ovlp"),
    ("tau_ovlp", math.inf, "--tau-ovlp"),
    ("leaf_size", 0, "--leaf-size"),
    ("mode", "bogus", "--mode"),
    ("order", "bogus", "--order"),
    ("reference", "bogus", "--reference"),
    ("system", "water:abc", "--system"),
    ("system", "water:\u00b2", "--system"),  # a digit, but not decimal
    ("system", "nonsense", "--system"),
    ("density", "exp:gamma=abc", "--density"),
    ("density", "nonsense", "--density"),
    ("density", "exp:gamma=nan", "--density"),
    ("density", "exp:gamma=inf", "--density"),
    ("system", "xyz:", "--system xyz:PATH requires a path"),
    ("density", "exp:gamma", "--density exp takes the form exp:gamma=G"),
    ("density", "exp:foo=1", "--density exp takes the form exp:gamma=G"),
    ("density", "file:", "--density file:PATH requires a path"),
    ("out", ".", "--out"),
])
def test_config_validation_names_offending_flag(field, value, flag):
    config = RunConfig(**{field: value})
    with pytest.raises(InvalidArgumentError) as err:
        config.validate()
    assert flag in str(err.value)


def test_main_validation_error_exit_code(tmp_path, capsys):
    xyz = tmp_path / "sys.xyz"
    xyz.write_text("1\n\nH 0 0 0\n")
    for argv, flag in [
        (["--tau-2e", "-1"], "--tau-2e"),
        (["--system", "water:abc"], "--system"),
        (["--system", "water:\u00b2"], "--system"),
        (["--series", "3,2"], "--series"),
        (["--series", "1,x"], "--series"),
        (["--series", "0,2"], "--series"),
        (["--series", "-1"], "--series"),
        (["--series", "1", "--system", f"xyz:{xyz}"], "--series"),
        (["--out", str(tmp_path / "missing" / "r.json")], "--out"),
        (["--series", "1", "--out", str(tmp_path / "missing" / "s.csv")],
         "--out"),
        (["--system", "water:1", "--out", str(tmp_path)], "--out"),
        (["--series", "1", "--out", str(tmp_path)], "--out"),
        (["--series", "1", "--reference", "naive",
          "--out", str(tmp_path / "s.csv")],
         "--reference cannot be used with --series"),
    ]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert flag in captured.err, argv
        assert captured.out == "", argv  # no CSV header or row
    assert not (tmp_path / "s.csv").exists()


def test_invalid_series_leaves_out_file_untouched(tmp_path):
    out = tmp_path / "earlier.csv"
    out.write_bytes(b"rows of an earlier run\n")
    assert main(["--series", "3,2", "--out", str(out)]) == 2
    assert out.read_bytes() == b"rows of an earlier run\n"


def test_bound_flag_is_rejected(tmp_path, capsys):
    # every run screens with the Schwarz bound; there is no form to choose
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["--bound", "literal", "--system", "water:1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err
    assert not out.exists()


def test_parser_defaults_are_run_config_defaults():
    args = vars(build_parser().parse_args([]))
    assert {name: args[name] for name in asdict(RunConfig())} \
        == asdict(RunConfig())


# ---------------------------------------------------------------- reports

@pytest.mark.parametrize("mode", ["naive", "symmetry", "dense",
                                  "dense-screened"])
def test_report_validates_against_schema(mode):
    config = RunConfig(system="water:1", mode=mode, tau_ovlp=0.0)
    report = run_report(config)
    jsonschema.validate(report, load_report_schema())
    assert report["mode"] == mode
    assert report["k_frobenius"] > 0.0


def test_dense_report_has_zero_case_counts():
    report = run_report(RunConfig(system="water:1", mode="dense"))
    assert report["k_frobenius"] > 0.0
    assert all(v == 0 for v in report["case_occurrences"].values())


def test_report_deterministic_modulo_timing():
    config = RunConfig(system="water:2", mode="symmetry")
    r1 = run_report(config)
    r2 = run_report(RunConfig(system="water:2", mode="symmetry"))
    for r in (r1, r2):
        del r["generated_at"]
        del r["wall_seconds"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_naive_symmetry_checksums_agree():
    config = RunConfig(system="water:3", mode="symmetry", reference="naive")
    report = run_report(config)
    comp = report["comparison"]
    assert comp["reference_mode"] == "naive"
    assert comp["relative_frobenius"] <= 1e-11
    jsonschema.validate(report, load_report_schema())


def test_reference_dense_comparison():
    config = RunConfig(system="water:1", mode="naive", tau_2e=0.0,
                       tau_ovlp=0.0, reference="dense")
    report = run_report(config)
    assert report["comparison"]["max_abs_diff"] <= 1e-11


def test_xyz_and_file_density_roundtrip(tmp_path):
    xyz = tmp_path / "sys.xyz"
    xyz.write_text("2\n\nH 0 0 0\nH 0.6 0 0\n")
    dens = tmp_path / "p.txt"
    write_density_file(dens, np.eye(2))
    config = RunConfig(system=f"xyz:{xyz}", density=f"file:{dens}",
                       mode="naive", tau_2e=0.0, tau_ovlp=0.0,
                       reference="dense")
    report = run_report(config)
    assert report["system"]["n_functions"] == 2
    assert report["system"]["n_molecules"] is None
    assert report["comparison"]["max_abs_diff"] <= 1e-11


def test_missing_input_files_are_validation_errors(tmp_path):
    config = RunConfig(system=f"xyz:{tmp_path}/missing.xyz")
    with pytest.raises(InvalidArgumentError):
        run_report(config)
    config = RunConfig(density=f"file:{tmp_path}/missing.txt",
                       system="water:1")
    with pytest.raises(InvalidArgumentError):
        run_report(config)


@pytest.mark.parametrize("bad,message", [
    ("nan", "NaN or infinite"),
    ("inf", "NaN or infinite"),
    ("x", "'x'"),
    pytest.param(b"\xff", "--density file: 'utf-8' codec", id="not-utf8"),
])
def test_bad_density_file_exits_2(tmp_path, capsys, bad, message):
    dens = tmp_path / "p.txt"
    if isinstance(bad, str):
        bad = bad.encode()
    dens.write_bytes(b"4\n" + b" ".join([b"0.5"] * 15 + [bad]) + b"\n")
    assert main(["--system", "water:1", "--density", f"file:{dens}"]) == 2
    assert message in capsys.readouterr().err


def test_negative_density_file_count_exits_2(tmp_path, capsys):
    dens = tmp_path / "p.txt"
    dens.write_text("-1\n5.0\n")
    assert main(["--system", "water:1", "--density", f"file:{dens}"]) == 2
    assert "N=-1" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e308])
def test_overflowing_density_exits_2(tmp_path, capsys, scale):
    # finite density values whose K norms overflow double precision; at
    # 1e308 the file's own symmetrization passes max/2 on the way
    dens = tmp_path / "p.txt"
    write_density_file(dens, scale * build_density(generate_cluster(2, seed=3),
                                                   DensityModel()))
    assert main(["--system", "water:2", "--density", f"file:{dens}"]) == 2
    assert "density magnitude" in capsys.readouterr().err


def test_density_whose_block_norms_overflow_exits_2(tmp_path, capsys):
    # at 1e154 every entry's square is finite, but a leaf block's sum of
    # squares passes the largest double: its norm is inf, as at 2e154, and
    # the run exits 2 naming the density, not 1 from an OverflowError in
    # the density tree's norms
    dens = tmp_path / "p.txt"
    write_density_file(dens, 1e154 * build_density(generate_cluster(2, seed=3),
                                                   DensityModel()))
    assert main(["--system", "water:2", "--leaf-size", "3",
                 "--density", f"file:{dens}"]) == 2
    assert "rescale the density" in capsys.readouterr().err


def test_overflowing_density_series_exits_2(tmp_path, capsys):
    # the series takes the single run's checked path: no overflow warning,
    # exit 2 with the same message, and the CSV ends in an error record
    dens = tmp_path / "p.txt"
    write_density_file(dens, 1e308 * build_density(generate_cluster(2, seed=3),
                                                   DensityModel()))
    out = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--series", "2", "--density", f"file:{dens}",
                     "--out", str(out)])
    assert code == 2
    assert "rescale the density" in capsys.readouterr().err
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == SERIES_COLUMNS
    assert len(rows) == 2 and rows[1][0] == "ERROR"
    assert rows[1][1].startswith("size 2: density magnitude")


@pytest.mark.parametrize("mode", ["naive", "symmetry"])
def test_far_apart_atoms_run_without_warnings(tmp_path, mode):
    # |A - B|^2 overflows between these centers; the pair weight is then
    # exp(-inf) = 0, the right value, and nothing may warn about it
    xyz = tmp_path / "far.xyz"
    xyz.write_text("3\n\nH 0 0 0\nH 0 0 1e200\nH 0 0 -1e200\n")
    config = RunConfig(system=f"xyz:{xyz}", mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system, _, P = cli._build_inputs(config)
        K, _, _ = cli._execute(config, mode, system, P)
        assert np.array_equal(K, dense_exchange(system, P))
        assert main(["--system", f"xyz:{xyz}", "--mode", mode,
                     "--out", str(tmp_path / "report.json")]) == 0


# the largest |z| in Angstrom whose double in Bohr is a finite double
_Z_LIMIT = float(np.finfo(float).max) / 2.0 / BOHR_PER_ANGSTROM


@pytest.mark.parametrize("text", [
    f"1\n\nO 0 0 {_Z_LIMIT * (1 + 1e-9)!r}\n",  # just past the limit
    "2\n\nH 0 0 9e307\nH 0 0 -9e307\n",
    "1\n\nO 0 0 1e308\n",  # overflows on the way to Bohr
])
def test_coordinates_beyond_the_pair_center_range_exit_2(tmp_path, capsys,
                                                         text):
    # finite coordinates whose center sums or differences overflow are a
    # fault of the input file, named by its line, not of the density
    xyz = tmp_path / "huge.xyz"
    xyz.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--system", f"xyz:{xyz}"]) == 2
    err = capsys.readouterr().err
    assert "line 3: coordinate" in err and "overflow" in err
    assert "density" not in err


def test_coordinates_just_inside_the_pair_center_range_run(tmp_path):
    # in Bohr, 2 * |z| stays within the largest double; K depends only on
    # the atoms' relative places, so each far file's K norm is that of the
    # same atoms near the origin
    z = _Z_LIMIT * (1 - 1e-9)
    norms = []
    for i, text in enumerate(["1\n\nO 0 0 1e305\n", "1\n\nO 0 0 0\n",
                              "1\n\nO 0 0 1e306\n",
                              f"2\n\nO 0 0 {z!r}\nO 0 0 {-z!r}\n",
                              "2\n\nO 0 0 1e3\nO 0 0 0\n"]):
        xyz = tmp_path / f"far{i}.xyz"
        xyz.write_text(text)
        report = tmp_path / f"report{i}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--system", f"xyz:{xyz}", "--out", str(report)]) == 0
        norms.append(json.loads(report.read_text())["k_frobenius"])
    assert norms[0] == norms[1] == norms[2] > 0.0
    assert norms[3] == norms[4] > norms[1]


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("2\n\nH 0 0 0\n", "expected 2 atom lines"),
    ("1\n\nXx 0 0 0\n", "'Xx'"),
    ("0\n\n", "line 1: atom count must be >= 1, got 0"),
    ("-1\n\n", "line 1: atom count must be >= 1, got -1"),
    ("1\n\nO 0 0\n", "line 3: expected 'El x y z'"),
    ("1\n\nO 0 x 0\n", "line 3: bad coordinate"),
    pytest.param("1\n\nO nan 0 0\n", "line 3: non-finite coordinate",
                 id="nan-coordinate"),
    pytest.param(b"1\n\nO 0 0 \xff\n", "--system xyz: 'utf-8' codec",
                 id="not-utf8"),
])
def test_bad_xyz_file_exits_2(tmp_path, capsys, text, message):
    xyz = tmp_path / "sys.xyz"
    xyz.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["--system", f"xyz:{xyz}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--mode", "dense"],
    ["--mode", "dense-screened"],
    ["--mode", "naive", "--reference", "dense"],
])
def test_dense_oracle_refused_above_size_limit(monkeypatch, capsys, flags):
    def no_build(*args, **kwargs):
        raise AssertionError("a build ran for a refused system")

    monkeypatch.setattr(cli, "_execute", no_build)
    n_molecules = cli.DENSE_MAX_SHELLS // 4 + 1  # four shells per water
    assert main(["--system", f"water:{n_molecules}"] + flags) == 2
    err = capsys.readouterr().err
    assert f"{4 * n_molecules} shells" in err
    assert f"limit of {cli.DENSE_MAX_SHELLS} shells" in err


# ---------------------------------------------------------------- series

def test_series_single_size_rows_and_columns():
    buf = io.StringIO()
    scaling_series(RunConfig(), [1], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == SERIES_COLUMNS
    assert len(rows) == 3  # header + naive + symmetry
    modes = [r[SERIES_COLUMNS.index("mode")] for r in rows[1:]]
    assert modes == ["naive", "symmetry"]
    for r in rows[1:]:
        assert r[0] == "1"
        assert int(r[SERIES_COLUMNS.index("eri_quartets")]) > 0


def test_series_rejects_non_ascending_and_empty():
    with pytest.raises(InvalidArgumentError):
        scaling_series(RunConfig(), [3, 2], io.StringIO())
    with pytest.raises(InvalidArgumentError):
        scaling_series(RunConfig(), [2, 2], io.StringIO())
    with pytest.raises(InvalidArgumentError):
        scaling_series(RunConfig(), [], io.StringIO())


def test_series_case_counts_only_for_symmetry():
    buf = io.StringIO()
    scaling_series(RunConfig(), [2], buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    naive = next(r for r in rows if r["mode"] == "naive")
    sym = next(r for r in rows if r["mode"] == "symmetry")
    assert all(int(naive[f"case_{c}"]) == 0
               for c in ("A", "B", "C", "D", "E", "F1", "F2", "H", "SPARSE"))
    assert sum(int(sym[f"case_{c}"])
               for c in ("A", "B", "E", "H", "SPARSE")) > 0


def test_main_series_to_file(tmp_path, capsys):
    # the CSV goes to --out when given, else to stdout
    out = tmp_path / "series.csv"
    assert main(["--series", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["--series", "1"]) == 0
    for text in (out.read_text(), capsys.readouterr().out):
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == SERIES_COLUMNS
        assert len(rows) == 3


def test_module_entry_point_runs_once_without_warning(tmp_path):
    # the package must not import cli, or ``python -m hexfock.cli`` finds
    # hexfock.cli already in sys.modules and runs it a second time
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hexfock.cli", "--system", "water:1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_main_single_run_to_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--system", "water:1", "--mode", "dense",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_report_schema())


def test_mid_series_failure_preserves_partial_csv(tmp_path, capsys):
    # density file fits the 1-molecule system only; size 2 must fail at
    # runtime, leaving the size-1 rows plus a trailing error record
    dens = tmp_path / "p4.txt"
    write_density_file(dens, np.eye(4))
    out = tmp_path / "partial.csv"
    code = main(["--series", "1,2", "--density", f"file:{dens}",
                 "--out", str(out)])
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == SERIES_COLUMNS
    assert len(rows) == 4  # header + 2 size-1 rows + error record
    assert rows[-1][0] == "ERROR"
    assert "size 2" in rows[-1][1]
