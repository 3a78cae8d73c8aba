import pytest

from ferroflow.cli import main


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
