import importlib
import os
import subprocess
import sys
from pathlib import Path

import quadsuite


def test_every_export_resolves():
    for name in quadsuite.__all__:
        assert getattr(quadsuite, name) is not None, name


def test_export_table_matches_module_all():
    # the package table and each module's __all__ must list the same names
    for module, names in quadsuite._EXPORTS.items():
        mod = importlib.import_module(f"quadsuite.{module}")
        assert names == getattr(mod, "__all__", names), module


def test_radon_and_cli_leave_scipy_ndimage_unloaded():
    # Radon slices take their spline from one tridiagonal solve, not from scipy.ndimage
    src = str(Path(quadsuite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import quadsuite, quadsuite.wigner_radon, quadsuite.cli\n"
            "quadsuite.radon(quadsuite.wigner_grid(quadsuite.vacuum_state(2), 6.0, 0.5), 0.3, 0.0)\n"
            "print('scipy.ndimage' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_parser_loads_no_numpy():
    # --threads sets the BLAS thread caps after parsing, so numpy must not load before
    src = str(Path(quadsuite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import quadsuite.cli\n"
            "quadsuite.cli._build_parser().parse_args(['quad-density', '--state', 'vacuum'])\n"
            "print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
