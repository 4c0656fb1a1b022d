"""What importing the command-line tool loads, checked in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_process_or_temp_file_modules():
    # -S skips site, whose .pth files may import tempfile on their own
    probe = "import sys, okplanar.cli; print(sorted({'subprocess', 'tempfile'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
