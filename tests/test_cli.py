import csv
import io
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from quadsuite import cli
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


def test_markov_kernel_past_the_shift_cap_exits_4(capsys):
    code, out, err = run_cli(capsys, "markov-kernel", "--index", "2", "--grid=0:200:50")
    assert code == 4
    assert out == ""
    assert "limited to |t| <= 100" in err
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


@pytest.mark.parametrize("spec,want,message", [
    ("coherent:nan,0", 2, "alpha must be finite"),
    ("squeezed:nan,0", 2, "r must be finite"),
    ("squeezed:0.5,inf", 2, "phi must be finite"),
    ("coherent:1e300,0", 3, "zero norm"),
])
def test_exit_code_non_finite_or_overflowing_state(capsys, spec, want, message):
    code, out, err = run_cli(capsys, "quad-density", "--state", spec, "--dim", "4", "--grid=-1:1:1")
    assert code == want
    assert out == ""
    assert message in err
    assert "Traceback" not in err


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


def test_exit_code_malformed_dataset(capsys, malformed_dataset):
    code, out, err = run_cli(capsys, "tomo-reconstruct", "--input", str(malformed_dataset), "--dim", "4")
    assert code == 2
    assert out == ""
    assert malformed_dataset.name in err
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


def test_exit_code_out_of_memory(capsys):
    # 2e17 grid points: numpy refuses the 1.4 EiB axis before it allocates anything
    code, out, err = run_cli(capsys, "quad-density", "--state", "vacuum", "--dim", "4",
                             "--grid=-1e12:1e12:1e-5")
    assert code == 2
    assert out == ""
    assert "quad-density needs more memory than is available" in err
    assert "Traceback" not in err


def test_exit_code_covariant_tensor_budget(capsys, monkeypatch):
    # the covariant tensor of two top-level dim-400 states is refused before it is built
    import quadsuite.phase_space

    monkeypatch.setattr(quadsuite.phase_space, "_wigner_tensor",
                        lambda state: pytest.fail("a tensor was built"))
    code, out, err = run_cli(capsys, "gk-density", "--state", "number:399", "--kernel", "number:399",
                             "--dim", "400", "--grid=-1:1:1")
    assert code == 2
    assert out == ""
    assert "budget" in err
    assert "Traceback" not in err


# The row-by-row rendering the CLI output must keep byte for byte: csv.writer
# over f"{v:.12e}" for floats and str() for everything else, or sorted JSON.
def _row_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(f"{v:.12e}" if isinstance(v, float) else str(v) for v in row.values())
    return buf.getvalue()


def _row_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _grid_rows(grid):
    qs, ps = grid.axis_points(0), grid.axis_points(1)
    return [{"q": q, "p": p, "value": grid.values[i, j]}
            for i, q in enumerate(qs) for j, p in enumerate(ps)]


def _reference(command, folder):
    """(argv, rows, json payload) of one small call, rebuilt from library calls;
    tomo-generate gives the dataset text in place of rows."""
    import quadsuite as lib

    if command == "quad-density":
        xs = lib.uniform_axis(-2.0, 2.0, 0.25)
        dens = lib.quadrature_density(lib.make_state("number:1", 8), 0.4, xs)
        rows = [{"x": x, "density": d} for x, d in zip(xs, dens)]
        return (["quad-density", "--state", "number:1", "--dim", "8", "--theta", "0.4",
                 "--grid=-2:2:0.25"], rows, rows)
    if command == "wigner":
        rows = _grid_rows(lib.wigner_grid(lib.make_state("squeezed:0.3,0.2", 16),
                                          extent=2.0, step=0.5))
        return (["wigner", "--state", "squeezed:0.3,0.2", "--dim", "16", "--grid=-2:2:0.5"],
                rows, rows)
    if command == "radon":
        state = lib.make_state("number:1", 10)
        xs = lib.uniform_axis(-2.0, 2.0, 1.0)
        slice_vals = lib.radon(lib.wigner_grid(state, extent=6.0, step=0.05), 0.7, xs)
        dens = lib.quadrature_density(state, 0.7, xs)
        rows = [{"x": x, "radon": r, "quadrature": d, "difference": r - d}
                for x, r, d in zip(xs, slice_vals, dens)]
        return (["radon", "--state", "number:1", "--dim", "10", "--theta", "0.7", "--grid=-2:2:1",
                 "--extent", "6", "--step", "0.05"], rows, rows)
    if command == "gk-density":
        grid = lib.gk_grid(lib.make_state("coherent:0.5,0.2", 8), lib.make_state("number:1", 8),
                           extent=2.0, step=0.5)
        rows = _grid_rows(grid)
        return (["gk-density", "--state", "coherent:0.5,0.2", "--kernel", "number:1", "--dim", "8",
                 "--grid=-2:2:0.5"], rows, rows)
    if command == "strip-prob":
        window = lib.IntervalSet.of((0.0, 1.0), (2.0, math.inf))
        prob = lib.strip_probability(lib.make_state("number:2", 12), lib.make_state("vacuum", 12),
                                     0.3, window)
        rows = [{"theta": 0.3, "intervals": "0,1;2,inf", "probability": prob}]
        return (["strip-prob", "--state", "number:2", "--kernel", "vacuum", "--dim", "12",
                 "--theta", "0.3", "--intervals", "0,1;2,inf"], rows, rows)
    if command == "tomo-generate":
        data = lib.generate_dataset(lib.make_state("number:1", 4), 8, (-6.0, 6.0, 0.5))
        lines = ["# 8 -6.000000000000e+00 6.000000000000e+00 5.000000000000e-01"]
        lines.extend(" ".join(f"{v:.12e}" for v in row) for row in data.values)
        text = "\n".join(lines) + "\n"
        return (["tomo-generate", "--state", "number:1", "--dim", "4", "--angles", "8",
                 "--grid=-6:6:0.5"], text, text)
    if command == "tomo-reconstruct":
        path = folder / "data.txt"
        lib.save_dataset(lib.generate_dataset(lib.make_state("number:1", 4), 8, (-6.0, 6.0, 0.05)),
                         path)
        data = lib.load_dataset(path)
        rec = lib.reconstruct_state(data, 4)
        rows = [{"dim": 4, "angles": data.angles, "clipped_mass": rec.meta["clipped_mass"],
                 "fit_residual": rec.meta["fit_residual"],
                 "frobenius_error": float(np.linalg.norm(
                     rec.matrix - lib.make_state("number:1", 4).matrix))}]
        return (["tomo-reconstruct", "--input", str(path), "--dim", "4",
                 "--reference", "number:1"], rows, rows)
    if command == "markov-kernel":
        xs = lib.uniform_axis(-2.0, 2.0, 0.25)
        vals = lib.markov_kernel_number(1, (0.3, -0.1), 0.2, xs, form="derivative")
        rows = [{"x": x, "value": v} for x, v in zip(xs, vals)]
        return (["markov-kernel", "--index", "1", "--theta", "0.2", "--point", "0.3,-0.1",
                 "--grid=-2:2:0.25"], rows, rows)
    if command == "moments-demo":
        report = lib.sequential_demo(lib.make_state("number:1", 8), 1.0, 0.4, 0.2, 4)
        rows = []
        for label, channel in report["channels"].items():
            for k in range(5):
                truth, rec = channel["ground_truth"][k], channel["recovered"][k]
                rows.append({"channel": label, "k": k, "ground_truth": truth,
                             "smeared": channel["smeared"][k], "recovered": rec,
                             "rel_error": abs(rec - truth) / max(1.0, abs(truth))})
        return (["moments-demo", "--state", "number:1", "--dim", "8", "--theta", "1.0",
                 "--mu-var", "0.4", "--nu-var", "0.2", "--k-max", "4"], rows, report)
    if command == "complementarity-report":
        summary = lib.complementarity_summary(24, 1.0)
        rows = [{"quantity": k, "value": v} for k, v in summary.items()]
        return ["complementarity-report", "--dim", "24", "--theta", "1.0"], rows, summary
    raise ValueError(command)


COMMANDS = ["quad-density", "wigner", "radon", "gk-density", "strip-prob", "tomo-generate",
            "tomo-reconstruct", "markov-kernel", "moments-demo", "complementarity-report"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_byte_identical_to_row_rendering(tmp_path, capsys, command, fmt):
    argv, rows, payload = _reference(command, tmp_path)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0, err
    if command == "tomo-generate":
        assert out == rows            # the dataset text whatever the format
    elif fmt == "json":
        assert out == _row_json(payload)
    else:
        assert out == _row_csv(rows)
    if (command, fmt) == ("complementarity-report", "csv"):
        assert "\ndim,24\n" in out    # the int among floats stays an int
    if (command, fmt) == ("strip-prob", "csv"):
        assert ',"0,1;2,inf",' in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_cells_nan_negative_zero_and_subnormal(monkeypatch, capsys, fmt):
    import quadsuite as lib

    values = np.array([[math.nan, -0.0, 5e-324], [math.inf, 0.0, -math.inf], [1.0, -1e-300, 2.0]])
    grid = lib.GridFunction(((-1.0, 1.0, 1.0), (-1.0, 1.0, 1.0)), values)
    monkeypatch.setattr(lib, "wigner_grid", lambda state, extent, step: grid)
    code, out, _ = run_cli(capsys, "wigner", "--state", "vacuum", "--dim", "4",
                           "--grid=-1:1:1", "--format", fmt)
    assert code == 0
    rows = _grid_rows(grid)
    assert out == (_row_json(rows) if fmt == "json" else _row_csv(rows))
    if fmt == "csv":
        assert "nan" in out and "-0.000000000000e+00" in out and "4.940656458412e-324" in out


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("quadsuite ")]


def test_readme_commands_parse():
    # parsing only: every README line names a subcommand with flags it accepts
    lines = _readme_commands()
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])
    assert {shlex.split(line)[1] for line in lines} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(capsys, command):
    # help strings are %-formatted by argparse, so a stray % fails only here
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out
