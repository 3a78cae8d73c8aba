import os
import subprocess
import sys
from pathlib import Path

import ferroflow


def test_public_names_resolve():
    missing = [name for name in ferroflow.__all__ if not hasattr(ferroflow, name)]
    assert missing == []


def test_cli_import_pulls_in_no_scipy():
    src = Path(ferroflow.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, ferroflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
