import numpy as np
import pytest

from lowdisc import cli, discrepancy, neuralnet, rrtplan, seqcore
from lowdisc.seqcore import SequenceSpec


def run(argv):
    return cli.main(argv)


class TestUsage:
    def test_no_arguments_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--kind", "sobol", "--dim", "2", "--n", "4", "--out", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        code = run(
            ["generate", "--kind", "sobol", "--dim", "99", "--n", "4",
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_writes_expected_points(self, tmp_path):
        out = tmp_path / "pts.csv"
        assert run(["generate", "--kind", "halton", "--dim", "3", "--n", "20",
                    "--burn-in", "7", "--out", str(out)]) == 0
        got = seqcore.load_points_csv(out)
        want = seqcore.generate(SequenceSpec("halton", 3, burn_in=7), 20)
        np.testing.assert_array_equal(got, want)

    def test_binary_format(self, tmp_path):
        out = tmp_path / "pts.bin"
        assert run(["generate", "--kind", "sobol", "--dim", "4", "--n", "16",
                    "--out", str(out), "--format", "bin"]) == 0
        got = seqcore.load_points_bin(out)
        assert got.shape == (16, 4)

    def test_randomized_kind_needs_seed(self, tmp_path, capsys):
        code = run(["generate", "--kind", "uniform", "--dim", "2", "--n", "4",
                    "--out", str(tmp_path / "u.csv")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_seeded_runs_reproduce(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--kind", "sobol-scrambled", "--dim", "2", "--n", "32", "--seed", "9"]
        assert run(argv + ["--out", str(a), "--deterministic"]) == 0
        assert run(argv + ["--out", str(b), "--deterministic"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDisc:
    def test_roundtrip_matches_in_process(self, tmp_path):
        pts_file = tmp_path / "p.csv"
        out = tmp_path / "d.csv"
        assert run(["generate", "--kind", "halton", "--dim", "4", "--n", "100",
                    "--burn-in", "128", "--out", str(pts_file)]) == 0
        assert run(["disc", "--points", str(pts_file), "--kernel", "sym",
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "P,sym"
        curve = np.array([float(r.split(",")[1]) for r in rows[1:]])
        spec = SequenceSpec("halton", 4, burn_in=128)
        expected = discrepancy.discrepancy_all_prefixes(
            discrepancy.KernelSpec("sym"), seqcore.generate(spec, 100)
        )
        np.testing.assert_array_equal(curve, expected)
        # the published prefix value for this sequence
        assert curve[-1] == pytest.approx(0.005020, rel=0.01)

    def test_single_point_star_value(self, tmp_path):
        pts_file = tmp_path / "one.csv"
        seqcore.save_points_csv(np.array([[0.5]]), pts_file)
        out = tmp_path / "d.csv"
        assert run(["disc", "--points", str(pts_file), "--kernel", "star",
                    "--out", str(out)]) == 0
        val = float(out.read_text().splitlines()[1].split(",")[1])
        assert val == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-12)

    def test_multiple_kernels(self, tmp_path):
        pts_file = tmp_path / "p.csv"
        run(["generate", "--kind", "sobol", "--dim", "2", "--n", "10", "--out", str(pts_file)])
        out = tmp_path / "d.csv"
        assert run(["disc", "--points", str(pts_file), "--kernel", "star",
                    "--kernel", "ctr", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "P,star,ctr"


class TestDiscBadPoints:
    @pytest.mark.parametrize("name, content", [("nan.csv", "0.1,nan\n"), ("out.csv", "0.1,7\n")])
    def test_csv_names_the_file(self, tmp_path, capsys, name, content):
        (tmp_path / name).write_text(content)
        assert run(["disc", "--points", str(tmp_path / name), "--out", str(tmp_path / "d.csv")]) == 1
        assert f"{tmp_path / name}: point 1" in capsys.readouterr().err

    def test_bin_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "neg.bin"
        seqcore.save_points_bin(np.array([[0.25, 0.5], [-0.5, 0.5]]), path)
        assert run(["disc", "--points", str(path), "--out", str(tmp_path / "d.csv")]) == 1
        assert f"{path}: point 2" in capsys.readouterr().err


class TestScramble:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scramble", "--dim", "3", "--n", "64", "--seed", "5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        pts = seqcore.load_points_csv(a)
        assert pts.shape == (64, 3)
        assert pts.min() >= 0 and pts.max() < 1


class TestTrain:
    def test_train_writes_model_and_log(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "dim: 1\nn_points: 12\nloss_family: sym\nhidden: 8\nlayers: 2\n"
            "bands: 2\npretrain_epochs: 10\nfinetune_epochs: 10\nseed: 1\n"
        )
        model_path = tmp_path / "model.nn"
        log_path = tmp_path / "log.csv"
        assert run(["train", "--config", str(cfg), "--out-model", str(model_path),
                    "--log", str(log_path)]) == 0
        assert model_path.exists()
        assert (tmp_path / "model.nn.meta").exists()
        assert log_path.read_text().splitlines()[0] == "stage,epoch,loss,lr,seconds"
        # the model round-trips through generate --kind neural
        out = tmp_path / "pts.csv"
        assert run(["generate", "--kind", "neural", "--dim", "1", "--n", "12",
                    "--model", str(model_path), "--out", str(out)]) == 0
        pts = seqcore.load_points_csv(out)
        assert pts.shape == (12, 1)
        assert (pts > 0).all() and (pts < 1).all()
        # the learned sequence is extensible like the classical ones
        spec = SequenceSpec("neural", 1, model_path=str(model_path))
        np.testing.assert_array_equal(
            seqcore.generate(spec, 8), seqcore.generate(spec, 12)[:8]
        )


class TestIntegrate:
    def test_error_table_schema(self, tmp_path):
        out = tmp_path / "err.csv"
        code = run(["integrate", "--kind", "sobol", "--dim", "8", "--n", "200",
                    "--integrand", "borehole", "--checkpoints", "20,100,200",
                    "--reference", "77.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,abs_error"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [20, 100, 200]

    def test_product_integrand_dim_free(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run(["integrate", "--kind", "halton", "--dim", "2", "--n", "64",
                    "--integrand", "product", "--checkpoints", "64",
                    "--reference", "0.25", "--out", str(out)]) == 0

    def test_wrong_borehole_dim(self, tmp_path, capsys):
        code = run(["integrate", "--kind", "sobol", "--dim", "3", "--n", "10",
                    "--integrand", "borehole", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestSensitivity:
    def test_table_and_gamma(self, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        code = run(["sensitivity", "--integrand", "borehole", "--base-n", "1024",
                    "--seed", "0", "--gamma-floor", "0.001", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,S1,ST"
        assert lines[1].startswith("r_w,")
        assert len(lines) == 9
        assert "gamma:" in capsys.readouterr().out


class TestPlan:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "plan.csv"
        code = run(["plan", "--widths", "0.64", "--reps", "2", "--sources",
                    "sobol,uniform", "--k", "300", "--seed", "3",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "source,width,success_pct"
        assert len(lines) == 3
        for line in lines[1:]:
            label, width, pct = line.split(",")
            assert label in ("sobol", "uniform")
            assert 0.0 <= float(pct) <= 100.0


class TestPlanModel:
    def test_neural_source(self, tmp_path):
        model_path = tmp_path / "m.nn"
        encoding = neuralnet.EncodingConfig(bands=2, n_norm=200)
        neuralnet.save_model(neuralnet.init_mlp(encoding, out_dim=4, hidden=8, layers=2, seed=5), model_path)
        out = tmp_path / "plan.csv"
        assert run(["plan", "--widths", "0.6", "--reps", "1", "--sources", "sobol,neural",
                    "--model", str(model_path), "--k", "200", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "source,width,success_pct"
        assert [line.split(",")[0] for line in lines[1:]] == ["sobol", "neural"]
        rows = rrtplan.success_rate(
            [0.6], 1, [SequenceSpec("sobol", 4), SequenceSpec("neural", 4, model_path=str(model_path))],
            rrtplan.RrtConfig(max_iters=200), seed=seqcore.split_seed(0, "plan-envs"), sequence_length=200)
        assert lines[1:] == [f"{label},{width:g},{pct:.2f}" for label, width, pct in rows]

    def test_neural_source_needs_model(self, tmp_path, capsys):
        assert run(["plan", "--sources", "neural", "--out", str(tmp_path / "p.csv")]) == 1
        assert "model_path" in capsys.readouterr().err


class TestScrambleIsGenerate:
    @pytest.mark.parametrize("burn_in, n", [(0, 1), (0, seqcore._BLOCK_ROWS + 1), (128, 300)])
    def test_matches_generate(self, tmp_path, burn_in, n):
        out = tmp_path / "s.bin"
        assert run(["scramble", "--dim", "5", "--n", str(n), "--burn-in", str(burn_in),
                    "--seed", "9", "--format", "bin", "--out", str(out)]) == 0
        spec = SequenceSpec("sobol-scrambled", 5, burn_in=burn_in, seed=seqcore.split_seed(9, "scramble"))
        np.testing.assert_array_equal(seqcore.load_points_bin(out), seqcore.generate(spec, n))

    def test_needs_seed(self, tmp_path, capsys):
        assert run(["scramble", "--dim", "2", "--n", "4", "--out", str(tmp_path / "s.csv")]) == 1
        assert "scramble needs --seed" in capsys.readouterr().err


class TestTrainNotes:
    def test_notes_reach_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "dim: 1\nn_points: 12\nloss_family: sym\nhidden: 8\nlayers: 2\n"
            "bands: 2\npretrain_epochs: 0\nfinetune_epochs: 3\nseed: 1\n"
        )
        with pytest.warns(UserWarning, match="unsupported regime"):
            code = run(["train", "--config", str(cfg), "--out-model", str(tmp_path / "m.nn")])
        assert code == 0
        err = capsys.readouterr().err
        assert "note: unsupported-regime warning: direct fine-tune without pretraining" in err


class TestMcReferenceCount:
    def test_zero_samples_exit_one_with_the_message(self, tmp_path, capsys):
        code = run(["integrate", "--kind", "sobol", "--dim", "8", "--n", "16",
                    "--mc-reference-n", "0", "--out", str(tmp_path / "err.csv")])
        assert code == 1
        assert "error: n_samples must be >= 1, got 0" in capsys.readouterr().err
