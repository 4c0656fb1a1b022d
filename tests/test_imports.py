"""What importing the package or the command-line tool, and running one
command, loads, checked in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OKP30 = Path(__file__).resolve().parent / "golden" / "inputs" / "okp30.txt"


def loaded(probe: str) -> str:
    """stdout of probe run with -S, which skips site and the modules its
    .pth files may import on their own."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_import_loads_no_module_and_exports_no_name():
    probe = ("import sys, okplanar; "
             "print(sorted(m for m in sys.modules if m.startswith('okplanar.')), "
             "hasattr(okplanar, 'saturate'), okplanar.__version__)")
    assert loaded(probe) == "[] False 0.1.0\n"


def test_cli_import_loads_no_process_or_temp_file_modules():
    probe = "import sys, okplanar.cli; print(sorted({'subprocess', 'tempfile'} & set(sys.modules)))"
    assert loaded(probe) == "[]\n"


def test_the_parser_loads_no_package_module():
    probe = ("import sys, okplanar.cli; okplanar.cli.build_parser(); "
             "print(sorted(m for m in sys.modules if m.startswith('okplanar')))")
    assert loaded(probe) == "['okplanar', 'okplanar.cli']\n"


def test_separator_runs_load_no_sat_solver_or_formula_module(tmp_path):
    report = str(tmp_path / "report.json")
    probe = "\n".join([
        "import sys",
        "from okplanar.cli import main",
        "for extra in ([], ['--recursive']):",
        f"    assert main(['separator', {str(OKP30)!r}, *extra, '--out', {report!r}]) == 0",
        "wanted = {'okplanar.sat', 'okplanar.cdcl', 'okplanar.mso2', 'okplanar.separator'}",
        "print(sorted(wanted & set(sys.modules)))",
    ])
    assert loaded(probe) == "['okplanar.separator']\n"


def test_check_and_mso2_runs_load_no_recognition_layer(tmp_path):
    report = str(tmp_path / "report.json")
    k4 = str(OKP30.with_name("k4.txt"))
    probe = "\n".join([
        "import sys",
        "from okplanar.cli import main",
        f"assert main(['check', {k4!r}, '--k', '2', '--variant', 'quasi', '--out', {report!r}]) == 2",
        f"assert main(['mso2', '--k', '1', '--variant', 'closed-planar', '--eval', {k4!r},"
        f" '--out', {report!r}]) == 0",
        "wanted = {'okplanar.recognition', 'okplanar.maximal', 'okplanar.sat'}",
        "print(sorted(wanted & set(sys.modules)))",
    ])
    assert loaded(probe) == "[]\n"
