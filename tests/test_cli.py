import csv
import io
import json
import math
import os

import numpy as np
import pytest

from quadsuite.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return reader.fieldnames, rows


def test_quad_density_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "quad-density", "--state", "vacuum", "--dim", "8",
        "--theta", "0.785398", "--grid=-2:2:0.5",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "density"]
    for row in rows:
        x = float(row["x"])
        want = math.exp(-x * x) / math.sqrt(math.pi)
        assert abs(float(row["density"]) - want) < 1e-12


def test_json_and_csv_carry_same_values(capsys):
    args = ["quad-density", "--state", "number:1", "--dim", "8", "--grid=-1:1:1"]
    _, csv_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    _, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert len(payload) == len(rows) == 3
    # csv floats are %.12e, so compare at that precision
    for got, want in zip(payload, rows):
        assert abs(got["density"] - float(want["density"])) < 1e-12


def test_wigner_grid_rows(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "--state", "vacuum", "--dim", "6", "--grid=-1:1:1"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["q", "p", "value"]
    assert len(rows) == 9
    center = [r for r in rows if float(r["q"]) == 0.0 and float(r["p"]) == 0.0]
    assert abs(float(center[0]["value"]) - 1.0 / math.pi) < 1e-12


def test_wigner_grid_must_be_symmetric(capsys):
    code, _, err = run_cli(
        capsys, "wigner", "--state", "vacuum", "--grid=-1:2:1"
    )
    assert code == 2
    assert "min = -max" in err


def test_radon_difference_column_small(capsys):
    code, out, _ = run_cli(
        capsys, "radon", "--state", "number:1", "--dim", "10",
        "--theta", "0.7", "--grid=-2:2:1", "--extent", "6", "--step", "0.05",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(abs(float(r["difference"])) < 1e-5 for r in rows)


def test_strip_prob_output(capsys):
    code, out, _ = run_cli(
        capsys, "strip-prob", "--state", "number:2", "--kernel", "vacuum",
        "--dim", "12", "--theta", "0.3", "--intervals", "0,inf",
    )
    assert code == 0
    _, rows = parse_csv(out)
    # csv quoting keeps the interval text in one field
    assert abs(float(rows[0]["probability"]) - 0.5) < 1e-9


def test_markov_kernel_forms_match(capsys):
    base = ["markov-kernel", "--index", "1", "--grid=-2:2:0.5"]
    _, d_out, _ = run_cli(capsys, *base, "--form", "derivative")
    _, s_out, _ = run_cli(capsys, *base, "--form", "series")
    _, d_rows = parse_csv(d_out)
    _, s_rows = parse_csv(s_out)
    for a, b in zip(d_rows, s_rows):
        assert abs(float(a["value"]) - float(b["value"])) < 1e-9


def test_markov_kernel_series_refuses_cancelled_digits(capsys):
    code, out, err = run_cli(capsys, "markov-kernel", "--form", "series", "--grid=-10:10:0.1")
    assert code == 4
    assert out == ""
    assert "cancellation" in err
    assert "Traceback" not in err


def test_tomo_roundtrip(tmp_path, capsys):
    dataset = tmp_path / "data.txt"
    code, _, _ = run_cli(
        capsys, "tomo-generate", "--state", "number:1", "--dim", "6",
        "--angles", "16", "--output", str(dataset),
    )
    assert code == 0
    state_file = tmp_path / "rec.json"
    code, out, _ = run_cli(
        capsys, "tomo-reconstruct", "--input", str(dataset), "--dim", "6",
        "--reference", "number:1", "--state-output", str(state_file),
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["frobenius_error"]) < 1e-6
    assert state_file.exists()


def test_moments_demo_recovery(capsys):
    code, out, _ = run_cli(
        capsys, "moments-demo", "--state", "number:1", "--dim", "10",
        "--theta", "1.0", "--mu-var", "0.4", "--nu-var", "0.2", "--k-max", "6",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 14
    assert all(float(r["rel_error"]) < 1e-9 for r in rows)


def test_complementarity_report_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "complementarity-report", "--dim", "60", "--theta", "1.0",
        "--format", "json",
    )
    assert code == 0
    got = json.loads(out)
    from quadsuite import complementarity_summary

    want = complementarity_summary(60, 1.0)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, abs=1e-15)


@pytest.mark.parametrize("spec", ["thermal:1", "vacuum:1", "number:", "squeezed:0.3"])
def test_exit_code_config(capsys, spec):
    code, _, err = run_cli(capsys, "quad-density", "--state", spec)
    assert code == 2
    assert "state spec" in err


@pytest.mark.parametrize("command", ["complementarity-report", "moments-demo --state vacuum"])
def test_exit_code_non_finite_report_angle(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--dim", "8", "--theta", "inf")
    assert code == 2
    assert out == ""
    assert "theta must be finite" in err


def test_exit_code_state_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "matrix": [[0.9, 0], [0, 0], [0, 0], [0.2, 0]]}))
    code, _, err = run_cli(capsys, "quad-density", "--state", f"file:{bad}")
    assert code == 3
    assert "trace" in err


def test_exit_code_state_file_with_nan(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dim": 1, "matrix": [[NaN, 0.0]]}')
    code, out, err = run_cli(
        capsys, "quad-density", "--state", f"file:{bad}", "--dim", "1", "--grid=-1:1:1"
    )
    assert code == 3
    assert out == ""
    assert "NaN" in err


def test_exit_code_nan_angle(capsys):
    code, out, err = run_cli(
        capsys, "strip-prob", "--state", "vacuum", "--kernel", "vacuum", "--dim", "16",
        "--theta", "nan", "--intervals", "0,1",
    )
    assert code == 2
    assert out == ""
    assert "theta must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["--theta", "nan"], ["--theta", "inf"], ["--point", "nan,0"]])
def test_exit_code_non_finite_kernel_argument(capsys, args):
    code, out, err = run_cli(capsys, "markov-kernel", "--index", "1", "--grid=-1:1:1", *args)
    assert code == 2
    assert out == ""
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["--nu-var", "inf"], ["--mu-var", "nan"]])
def test_exit_code_non_finite_probe_variance(capsys, args):
    code, out, err = run_cli(capsys, "moments-demo", "--state", "vacuum", "--dim", "6",
                             "--k-max", "4", *args)
    assert code == 2
    assert out == ""
    assert "must be finite" in err
    assert "Traceback" not in err


def test_exit_code_infinite_grid(capsys):
    code, out, err = run_cli(capsys, "quad-density", "--state", "vacuum", "--dim", "4",
                             "--grid=-inf:inf:1")
    assert code == 2
    assert out == ""
    assert "bad axis spec" in err


def test_exit_code_dataset_with_nan(tmp_path, capsys):
    dataset = tmp_path / "data.txt"
    code, _, _ = run_cli(
        capsys, "tomo-generate", "--state", "number:1", "--dim", "4",
        "--angles", "8", "--output", str(dataset),
    )
    assert code == 0
    lines = dataset.read_text().splitlines()
    lines[1] = "nan " + lines[1].split(" ", 1)[1]
    dataset.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "tomo-reconstruct", "--input", str(dataset), "--dim", "4")
    assert code == 2
    assert out == ""
    assert "finite" in err
    assert "Traceback" not in err


def test_exit_code_numerical_contract(capsys):
    code, _, err = run_cli(
        capsys, "radon", "--state", "coherent:2.5,0", "--dim", "32",
        "--extent", "3", "--step", "0.1", "--grid=-1:1:1",
    )
    assert code == 4
    assert "boundary" in err


def test_argparse_rejects_bad_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quad-density", "--state", "vacuum", "--grid", "0:0:1"])
    assert exc.value.code == 2


def test_output_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "a.csv"
    args = [
        "wigner", "--state", "squeezed:0.4,0.7", "--dim", "30", "--grid=-2:2:0.5",
    ]
    assert main(args + ["--output", str(target)]) == 0
    first = target.read_bytes()
    assert main(args + ["--output", str(target)]) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_threads_flag_sets_environment(capsys, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, _, _ = run_cli(
        capsys, "--threads", "2", "quad-density", "--state", "vacuum",
        "--dim", "4", "--grid=-1:1:1",
    )
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QUADSUITE_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code, _, _ = run_cli(
        capsys, "quad-density", "--state", "vacuum", "--dim", "4", "--grid=-1:1:1"
    )
    assert code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
