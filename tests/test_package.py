import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ferroflow


def test_public_names_resolve():
    missing = [name for name in ferroflow.__all__ if not hasattr(ferroflow, name)]
    assert missing == []


def test_moved_and_deleted_names_stay_out():
    gone = {"berezin_integrate", "derivative", "project_degree_ge",
            "translate_double", "det_correlation", "majorant_value",
            "trajectory_to_csv"}
    assert gone.isdisjoint(ferroflow.__all__)
    # step halving moved to tests/oracles.py, and its error went with it;
    # schedules take sigma^2 from their builders; trajectories keep no
    # states, and a desk slice is one array; the CLI writes every CSV
    from ferroflow import errors, flow, psi4, schedule

    sched = schedule.ScaleSchedule.from_cdot(lambda t: [[1.0]], 1.0, 1,
                                             lambda t: 4.0 + 0.0 * t)
    left = [f"{owner!r}.{name}" for owner, names in (
        (flow, ("_refine", "_grid_deviation", "_integrate_on",
                "trajectory_to_csv")),
        (errors, ("IntegrationError",)),
        (psi4, ("CovarianceSlice",)),
        (sched, ("gram_rate_at", "_cum", "_tables", "_gram_rate")))
        for name in names if hasattr(owner, name)]
    assert left == []
    assert "certify" not in inspect.signature(flow.flow_integrate).parameters
    assert [f.name for f in dataclasses.fields(flow.FlowTrajectory)] == [
        "grid", "norms", "log_norm", "truncated", "notes"]
    # a trajectory's series is one read-only array, not an object per point
    f0 = ferroflow.GrassmannElement.monomial(ferroflow.GeneratorSet(2), [0, 1],
                                             0.1)
    norms = flow.flow_integrate(sched, f0, steps=3).norms
    assert isinstance(norms, np.ndarray) and norms.dtype == np.float64
    assert norms.shape == (4, 1) and not norms.flags.writeable


def fresh_env():
    """The environment with this ``src`` first on ``PYTHONPATH``."""
    src = Path(ferroflow.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(code, cwd=None):
    """Stdout of ``code`` run in a fresh interpreter with this ``src``."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(), check=True,
                          capture_output=True, text=True, cwd=cwd).stdout


def test_cli_import_pulls_in_no_scipy():
    code = ("import sys, ferroflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code).strip() == "[]"


def test_package_loads_nothing_from_the_tests():
    # the oracles stay on the tests' side: run from tests/, where they are
    # importable, the library and its CLI load no module from there
    tests = Path(__file__).resolve().parent
    code = ("import sys, ferroflow, ferroflow.cli; "
            "print(sorted(name for name, m in sys.modules.items() "
            "if name in ('oracles', 'conftest') "
            f"or (getattr(m, '__file__', None) or '').startswith({str(tests)!r})))")
    assert run_fresh(code, cwd=tests).strip() == "[]"


@pytest.mark.parametrize("argv, code", [
    (["nosuch"], 4),
    (["--help"], 0),
    (["flow", "--config", "long.cfg"], 4),
    (["verify", "--debug-corrupt-pfaffian"], 1),
], ids=["unknown-command", "help", "over-budget", "failed-check"])
def test_module_entry_exit_codes(tmp_path, argv, code):
    # the exit status of ``python -m ferroflow.cli`` is what main returns
    (tmp_path / "long.cfg").write_text("sites = 6\nsteps = 100000\n")
    run = subprocess.run([sys.executable, "-m", "ferroflow.cli", *argv],
                         env=fresh_env(), capture_output=True, cwd=tmp_path)
    assert run.returncode == code


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
