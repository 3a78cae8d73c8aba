import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ferroflow import cli, flow, gaussian
from ferroflow.algebra import GeneratorSet
from ferroflow.cli import check_command, main, parse_config
from ferroflow.errors import ConfigError
from ferroflow.flow import flow_integrate
from ferroflow.gaussian import gaussian_expectation
from ferroflow.norms import norm_coefficients
from ferroflow.schedule import ScaleSchedule

from conftest import rand_antisymmetric, rand_element


@pytest.mark.parametrize("text", [
    "nosuchkey = 1\n",
    "seed = 1\nseed = 2\n",
    "tMax = 100.0\n",
    "generators = 7\n",
], ids=["unknown-key", "duplicate-key", "out-of-range", "odd-generators"])
def test_bad_config_exits_4(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["psi4", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_odd_generators_flag_exits_4(capsys):
    assert main(["verify", "--generators", "7"]) == 4
    assert "generators must be even" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["flow", "--bogus"], ["nosuch"], [],
                                  ["verify", "--seed", "abc"]],
                         ids=["unknown-flag", "unknown-command", "no-command",
                              "bad-seed"])
def test_usage_error_exits_4(capsys, argv):
    assert main(argv) == 4
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["flow", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_psi4_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 3  # comment\ntMax = 1.5\n")
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["psi4", "--config", str(cfg), "--out", str(out)]) == 0
    first = outs[0].read_bytes()
    assert first.startswith(b"# coupling_bound = ")
    assert first == outs[1].read_bytes()


def test_corrupt_pfaffian_fails_verification(capsys):
    assert main(["verify", "--debug-corrupt-pfaffian"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  pfaffian-identity" in out
    assert "9/10 checks passed" in out


@pytest.fixture
def pfaffian_calls(monkeypatch):
    """The shapes passed to ``gaussian.pfaffian``, under every name the
    package binds it to."""
    original = gaussian.pfaffian
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ferroflow" \
                and getattr(module, "pfaffian", None) is original:
            monkeypatch.setattr(module, "pfaffian", counted)
    return calls


def test_verify_stacks_its_pfaffians(rng, pfaffian_calls, capsys):
    # one stacked call per subset size, where one call per subset made
    # about 1,700 calls per verify
    a = rand_antisymmetric(rng, 8, 0.3)
    f = rand_element(rng, GeneratorSet(8), 0.5)
    assert np.all(f.coeffs != 0)
    gaussian_expectation(a, f)
    assert len(pfaffian_calls) <= 4
    pfaffian_calls.clear()
    assert main(["verify"]) == 0
    # pfaffian-identity: one per dimension 2..12; moment-oracle: Pf(A) and
    # sizes 2, 4, 6; 10 expectations and 3 Gram sweeps: sizes 2, 4, 6, 8
    assert 0 < len(pfaffian_calls) <= 6 + 1 + 3 + 10 * 4 + 3 * 4 < 100
    assert main(["verify", "--debug-corrupt-pfaffian"]) == 1
    assert "FAIL  pfaffian-identity" in capsys.readouterr().out


def test_inadmissible_majorant_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.0\nsites = 2\nsteps = 20\ntMax = 10.0\nmass = 0.1\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 2
    assert "holds = false" in capsys.readouterr().out
    assert not out.exists()


def test_runtime_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda0 = 6.0\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 3
    assert "momentum lattice too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["flow", "majorant"])
def test_rerun_is_byte_identical(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes().startswith(b"t,m,")
    if command == "majorant":
        reports = [(tmp_path / f"{out.name}.existence.txt").read_bytes()
                   for out in outs]
        assert reports[0] == reports[1]
        assert b"holds = true" in reports[0]


def test_majorant_takes_norms_of_printed_states_only(tmp_path, monkeypatch):
    # 20 steps give 21 grid times, of which the CSV prints 11
    count = [0]

    def counting(state):
        count[0] += 1
        return norm_coefficients(state)

    for name, module in list(sys.modules.items()):
        if name.startswith("ferroflow") and \
                vars(module).get("norm_coefficients") is norm_coefficients:
            monkeypatch.setattr(module, "norm_coefficients", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    assert main(["majorant", "--config", str(cfg),
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert count[0] == 11


@pytest.mark.parametrize("sites", [2, 4])
def test_majorant_reads_tau_in_two_queries(tmp_path, monkeypatch, sites):
    # one scale for the printed existence report, one array of the 11
    # printed times for the majorant coefficients
    shapes = []
    tau = ScaleSchedule.tau

    def counting(self, s):
        shapes.append(np.shape(s))
        return tau(self, s)

    monkeypatch.setattr(ScaleSchedule, "tau", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sites = {sites}\nsteps = 20\n")
    assert main(["majorant", "--config", str(cfg),
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert shapes == [(), (11,)]


@pytest.mark.parametrize("sites", [2, 4])
def test_majorant_certificate_reads_positive_times(tmp_path, capsys, sites):
    # phi_m = F_m exactly at t = 0, so the printed worst margins are those
    # of the CSV's t > 0 rows: the absolute one, and the relative one over
    # the rows with phi_m > 0, each with its (t, m)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sites = {sites}\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert all(margin == "0" for t, *_, margin in rows if float(t) == 0.0)
    later = [(t, int(m), float(pm), float(margin))
             for t, m, _, pm, margin in rows if float(t) > 0.0]
    t, m, _, margin = min(later, key=lambda row: row[3])
    rt, rm, pm, rmargin = min((row for row in later if row[2] > 0.0),
                              key=lambda row: row[3] / row[2])
    assert margin > 0.0 and len(later) == 10 * sites
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"wrote {out}; over t > 0, worst margin {margin:.3e} at "
        f"(t {t}, m {m}), worst relative margin {rmargin / pm:.3e} at "
        f"(t {rt}, m {rm})")


def test_majorant_integrates_no_flow(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("majorant integrated the flow")

    monkeypatch.setattr(cli, "flow_integrate", refuse)
    monkeypatch.setattr(flow, "_carrier_flow", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    assert main(["majorant", "--config", str(cfg),
                 "--out", str(tmp_path / "m.csv")]) == 0


@pytest.mark.parametrize("sites", [2, 3, 4])
def test_majorant_matches_rk4_states(tmp_path, sites):
    # the exact actions that majorant prints against the RK4 states at the
    # same times of the CLI's default 400 steps
    text = f"sites = {sites}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    inst = cli._desk_instance(parse_config(text))
    traj = flow_integrate(inst.schedule, inst.bare_action, steps=400, t_end=2.0)
    printed = {(t, int(m)): float(fm) for t, m, fm, _, _ in rows}
    picks = np.unique(np.linspace(0, 400, 11).astype(int))
    assert len(printed) == len(picks) * sites
    for i in picks:
        for m in range(1, sites + 1):
            got = printed[(f"{traj.grid[i]:.12g}", m)]
            assert math.isclose(got, traj.norms[i, m - 1], rel_tol=1e-9,
                                abs_tol=1e-12)


@pytest.mark.parametrize("alpha", ["1e-160", "1e-300"])
def test_tiny_alpha_majorant_ends_cleanly(tmp_path, capsys, alpha):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = {alpha}\nsites = 2\nsteps = 20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["majorant", "--config", str(cfg),
                     "--out", str(tmp_path / "m.csv")])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_tiny_alpha_majorant_dominates(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1e-50\nsites = 2\nsteps = 20\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows and all(float(row.split(",")[4]) >= 0.0 for row in rows)


def test_zero_alpha_majorant_is_zero(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0\nsites = 2\nsteps = 20\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,m,F_m,phi_m,margin" and len(rows) > 1
    assert all(float(row.split(",")[4]) == 0.0 for row in rows[1:])


def test_run_time_over_budget_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 6\nsteps = 100000\n")
    out = tmp_path / "x.csv"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "over the budget of 10 min" in err
    assert not out.exists()


def test_majorant_cost_is_independent_of_steps(tmp_path):
    # steps only sets the 11 printed times, so the most steps the validator
    # admits at the most sites is in budget
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 6\nsteps = 100000\n")
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 11 * 6


@pytest.mark.parametrize("argv, text", [(["--truncate"], ""),
                                        ([], "truncate = true\n")],
                         ids=["flag", "config"])
def test_majorant_refuses_truncate(tmp_path, capsys, argv, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n" + text)
    out = tmp_path / "m.csv"
    assert main(["majorant", "--config", str(cfg), "--out", str(out)] + argv) == 4
    assert "truncate applies to flow only" in capsys.readouterr().err
    assert not out.exists()


def bench_configs():
    """The full-length config texts of the flow-desk and majorant-pair
    benchmark workloads, at a few seeds."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import config_text
    finally:
        sys.path.pop(0)
    return [(command, config_text(workload, seed, 0, 0))
            for command, workload in (("flow", "flow-desk"),
                                      ("majorant", "majorant-pair"))
            for seed in (1, 2, 3)]


def test_run_time_within_budget_accepted():
    for command, text in [("flow", ""), ("majorant", "")] + bench_configs():
        check_command(command, parse_config(text))
    # every step count the validator admits is in budget below 6 sites
    for sites in range(2, 6):
        check_command("flow", parse_config(f"sites = {sites}\nsteps = 100000\n"))
    check_command("flow", parse_config("sites = 6\nsteps = 66666\n"))
    with pytest.raises(ConfigError):
        check_command("flow", parse_config("sites = 6\nsteps = 66667\n"))


def test_diverging_flow_exits_3(tmp_path, capsys):
    # a box of side 1e-6 is admitted, and its flow leaves the floating-point
    # range at the second step
    cfg = tmp_path / "run.cfg"
    cfg.write_text("boxL = 1e-6\n")
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: the flow diverged: its seminorm series or "
                            "log-normalization is not finite at t=0.01\n")
    assert captured.out == "" and not out.exists()


def test_short_cutoff_fails_the_tail_certificate_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoffFactor = 1.0\n")
    out = tmp_path / "f.csv"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 3
    assert "tail bound is 5.188e+00" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["flow", "majorant", "psi4"])
def test_unwritable_output_exits_4(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    # majorant writes its existence report first
    first = f"{out}.existence.txt" if command == "majorant" else str(out)
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {first}: No such file or directory\n")


@pytest.mark.parametrize("argv", [["flow", "--seed", "3"],
                                  ["flow", "--generators", "8"],
                                  ["majorant", "--debug-corrupt-pfaffian"],
                                  ["psi4", "--seed", "3"],
                                  ["verify", "--out", "v.csv"]],
                         ids=["flow-seed", "flow-generators", "majorant-debug",
                              "psi4-seed", "verify-out"])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys,
                                                        argv):
    assert main(argv) == 4
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [(["psi4", "--truncate"], ""),
                                        (["verify", "--truncate"], ""),
                                        (["psi4"], "truncate = true\n"),
                                        (["verify"], "truncate = true\n")],
                         ids=["psi4-flag", "verify-flag", "psi4-config",
                              "verify-config"])
def test_truncate_refused_outside_flow(tmp_path, capsys, argv, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    extra = ["--out", str(out)] if argv[0] == "psi4" else []
    assert main(argv + ["--config", str(cfg)] + extra) == 4
    captured = capsys.readouterr()
    assert "truncate applies to flow only" in captured.err
    assert captured.out == "" and not out.exists()


def test_flow_takes_truncate(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    plain, cut = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["flow", "--config", str(cfg), "--out", str(plain)]) == 0
    assert main(["flow", "--config", str(cfg), "--out", str(cut),
                 "--truncate"]) == 0
    rows = [line.split(",") for line in cut.read_text().splitlines()[1:]]
    assert all(float(f) == 0.0 for _, m, f in rows if m == "1")
    assert plain.read_bytes() != cut.read_bytes()


def test_flow_csv_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.07\nsteps = 4\ntMax = 0.5\n")
    out = tmp_path / "f.csv"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,m,F_m"
    assert len(lines) == 1 + 5 * 4  # header + grid points x degrees
    assert lines[2].startswith("0,2,0.07")
    assert "(5 grid points)" in capsys.readouterr().out


def test_parser_is_built_once_per_process(tmp_path, capsys):
    # a flag of one call does not reach the next, which shares the parser
    cli._build_parser.cache_clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 2\nsteps = 20\n")
    assert main(["flow", "--config", str(cfg), "--out", str(tmp_path / "f.csv"),
                 "--truncate"]) == 0
    assert main(["verify", "--seed", "3"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    assert "10/10 checks passed" in capsys.readouterr().out
