"""The studies under scripts/ run end to end at tiny sizes."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name] + [str(a) for a in args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_borehole_study(monkeypatch, tmp_path, capsys):
    run_script("run_borehole_study.py", ["--base-n", 64, "--n", 100, "--mc-reference-n", 5000],
               monkeypatch, tmp_path)
    assert (tmp_path / "borehole_sensitivity.csv").read_text().splitlines()[0] == "param,S1,ST"
    errors = read_csv(tmp_path / "borehole_errors.csv")
    assert errors[:, 0].tolist() == [20, 60, 100]
    assert np.isfinite(errors).all()
    assert "gamma:" in capsys.readouterr().out


def test_discrepancy_profiles(monkeypatch, tmp_path):
    run_script("run_discrepancy_profiles.py", ["--dim", 2, "--n", 40, "--kernels", "sym,star",
                                               "--scrambles", 2, "--out-dir", "prof"],
               monkeypatch, tmp_path)
    for family in ("sym", "star"):
        curve = read_csv(tmp_path / "prof" / f"profile_{family}_d2.csv")
        assert curve.shape == (40, 4)
        assert (curve[:, 1:] > 0).all()


@pytest.mark.filterwarnings("ignore::lowdisc.neuralnet.ExtrapolationWarning")
def test_train_and_profile(monkeypatch, tmp_path):
    run_script("train_and_profile.py", ["--dim", 2, "--n", 16, "--hidden", 8, "--layers", 2,
                                        "--bands", 2, "--epochs", 3], monkeypatch, tmp_path)
    assert (tmp_path / "sequence_model.nn").exists()
    curves = read_csv(tmp_path / "trained_profile.csv")
    assert curves.shape == (16, 4)
