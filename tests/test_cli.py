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
