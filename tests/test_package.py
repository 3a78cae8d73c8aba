import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ferroflow


def test_public_names_resolve():
    missing = [name for name in ferroflow.__all__ if not hasattr(ferroflow, name)]
    assert missing == []


def run_fresh(code, cwd=None):
    """Stdout of ``code`` run in a fresh interpreter with this ``src``."""
    src = Path(ferroflow.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=cwd).stdout


def test_cli_import_pulls_in_no_scipy():
    code = ("import sys, ferroflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code).strip() == "[]"


def test_majorant_run_loads_no_fft(tmp_path):
    (tmp_path / "run.cfg").write_text("sites = 2\nsteps = 20\n")
    code = ("import sys; from ferroflow.cli import main; "
            "assert main(['majorant', '--config', 'run.cfg', "
            "'--out', 'm.csv']) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('numpy.fft', 'numpy.polynomial'))))")
    assert run_fresh(code, cwd=tmp_path).splitlines()[-1] == "[]"


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these names; a rename must not wait for
    # the benchmark smoke run to surface
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"ferroflow.{module}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            owner = vars(owner).get(cls_name)
            found = owner is not None and meth in vars(owner)
        else:
            found = hasattr(owner, meth)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_sweep_cases_run():
    # bench/sweep.py builds its kernels through the public constructors and
    # calls them by name; a break there must not wait for the benchmark's
    # own, slower tests
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'bench'); "
            "import numpy as np, sweep; "
            "cases = sweep.cases(4, np.random.Generator(np.random.Philox(4))); "
            "[call() for call in cases.values()]; "
            "print(' '.join(sorted(cases)))")
    names = run_fresh(code, cwd=root).split()
    assert {"wedge", "rg_map", "flow_rk4_step"} <= set(names)
