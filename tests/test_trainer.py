import copy

import numpy as np
import pytest

from lowdisc import discrepancy as disc
from lowdisc import neuralnet as nn
from lowdisc import trainer as tr


def small_cfg(**over):
    base = dict(
        dim=1,
        n_points=16,
        loss_family="sym",
        hidden=8,
        layers=2,
        bands=2,
        pretrain_lr=3e-3,
        pretrain_epochs=40,
        finetune_lr=2e-3,
        finetune_epochs=40,
        final_lr_ratio=0.1,
        burn_in=128,
        seed=0,
    )
    base.update(over)
    return tr.TrainConfig(**base)


class TestTrainConfig:
    def test_loss_defaults_fill_in(self):
        cfg = tr.TrainConfig(dim=4, n_points=100, loss_family="sym")
        assert (cfg.hidden, cfg.layers, cfg.bands) == (768, 7, 64)
        assert cfg.pretrain_lr == pytest.approx(2.61e-3)
        assert cfg.finetune_lr == pytest.approx(5.04e-3)
        assert cfg.final_lr_ratio == pytest.approx(3.02e-2)

    def test_star_defaults(self):
        cfg = tr.TrainConfig(dim=4, n_points=100, loss_family="star")
        assert (cfg.hidden, cfg.layers, cfg.bands) == (512, 5, 64)

    def test_ctr_defaults(self):
        cfg = tr.TrainConfig(dim=4, n_points=100, loss_family="ctr")
        assert (cfg.hidden, cfg.layers, cfg.bands) == (768, 7, 32)

    def test_explicit_values_respected(self):
        cfg = small_cfg(hidden=12)
        assert cfg.hidden == 12

    def test_n_norm_defaults_to_n_points(self):
        assert small_cfg(n_points=64).n_norm == 64
        assert small_cfg(n_points=64, n_norm=128).n_norm == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(pretrain_lr=-1.0)
        with pytest.raises(ValueError):
            small_cfg(final_lr_ratio=0.0)
        with pytest.raises(ValueError):
            small_cfg(reference_kind="lattice")
        with pytest.raises(ValueError):
            small_cfg(loss_family="nope")
        with pytest.raises(ValueError):
            small_cfg(weight_scheme="quadratic")


class TestCosineSchedule:
    def test_endpoints(self):
        assert tr.cosine_lr(1.0, 0.1, 0, 100) == pytest.approx(1.0)
        assert tr.cosine_lr(1.0, 0.1, 99, 100) == pytest.approx(0.1)

    def test_monotone_decreasing(self):
        vals = [tr.cosine_lr(2.0, 0.05, e, 50) for e in range(50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_single_epoch(self):
        assert tr.cosine_lr(1.0, 0.5, 0, 1) == 1.0


class TestPretrain:
    def test_zero_epochs_returns_initialization(self):
        cfg = small_cfg(pretrain_epochs=0)
        model, log = tr.pretrain(cfg)
        fresh = nn.init_mlp(
            nn.EncodingConfig(cfg.bands, cfg.n_norm),
            out_dim=cfg.dim,
            hidden=cfg.hidden,
            layers=cfg.layers,
            seed=tr.seqcore.split_seed(cfg.seed, "init"),
        )
        for a, b in zip(model.params(), fresh.params()):
            np.testing.assert_array_equal(a, b)
        assert len(log.records) == 1  # the epoch-0 loss

    def test_desk_scale_mse(self):
        cfg = tr.TrainConfig(
            dim=1,
            n_points=64,
            loss_family="sym",
            hidden=64,
            layers=3,
            bands=8,
            pretrain_epochs=2000,
            finetune_epochs=0,
            burn_in=128,
            seed=0,
        )
        model, log = tr.pretrain(cfg)
        assert model.meta["pretrain_mse"] <= 1e-4

    def test_deterministic(self):
        a, _ = tr.pretrain(small_cfg())
        b, _ = tr.pretrain(small_cfg())
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_loss_decreases(self):
        model, log = tr.pretrain(small_cfg(pretrain_epochs=200))
        losses = log.stage_losses("pretrain")
        assert losses[-1] < losses[0]

    def test_targets_use_burn_in(self):
        cfg = small_cfg(pretrain_epochs=800, n_points=8, hidden=32, bands=4)
        model, _ = tr.pretrain(cfg)
        targets = tr.seqcore.generate(
            tr.seqcore.SequenceSpec("sobol", 1, burn_in=128), 8
        )
        got = nn.forward(model, np.arange(1, 9))
        np.testing.assert_allclose(got, targets, atol=0.05)


class TestFinetune:
    def test_zero_lr_keeps_model_and_loss(self):
        cfg = small_cfg()
        model, _ = tr.pretrain(cfg)
        before = model.copy_params()
        cfg.finetune_lr = 0.0  # degenerate stepsize: nothing may move
        tuned, log = tr.finetune(model, cfg)
        for a, b in zip(tuned.params(), before):
            np.testing.assert_array_equal(a, b)
        losses = log.stage_losses("finetune")
        assert max(losses) == min(losses)

    def test_final_loss_not_above_initial(self):
        cfg = small_cfg()
        model, _ = tr.pretrain(cfg)
        tuned, log = tr.finetune(model, cfg)
        losses = log.stage_losses("finetune")
        assert losses[-1] <= losses[0]
        assert tuned.meta["finetune_loss"] <= losses[0]

    def test_checkpoint_is_best(self):
        cfg = small_cfg()
        model, _ = tr.pretrain(cfg)
        tuned, log = tr.finetune(model, cfg)
        assert tuned.meta["finetune_loss"] <= min(log.stage_losses("finetune")) + 1e-18

    def test_recorded_loss_matches_recomputation(self):
        cfg = small_cfg()
        model, _ = tr.pretrain(cfg)
        tuned, _ = tr.finetune(model, cfg)
        pts = nn.forward(tuned, np.arange(1, cfg.n_points + 1))
        recomputed = disc.prefix_loss(
            cfg.kernel_spec(), disc.PrefixWeights(cfg.weight_scheme), pts
        )
        assert recomputed == pytest.approx(tuned.meta["finetune_loss"], rel=1e-12)

    def test_weighted_kernel_accepted(self):
        cfg = small_cfg(dim=2, gamma=(1.0, 0.2), finetune_epochs=10)
        model, _ = tr.pretrain(cfg)
        tuned, log = tr.finetune(model, cfg)
        assert "gamma" in tuned.meta

    def test_collapse_guard(self):
        cfg = small_cfg(dim=2, finetune_epochs=5)
        model, _ = tr.pretrain(cfg)
        model.biases[-1][...] = -80.0  # all outputs squashed into one corner
        with pytest.raises(tr.CollapseError, match="collapsed"):
            tr.finetune(model, cfg)

    def test_divergence_restores_epoch0_checkpoint(self, monkeypatch):
        cfg = small_cfg()
        model, _ = tr.pretrain(cfg)
        before = model.copy_params()
        real_step = nn.adam_step

        def poisoned_step(state, params, grads, lr):
            real_step(state, params, grads, lr)
            for p in params:
                p[...] = np.nan

        monkeypatch.setattr(nn, "adam_step", poisoned_step)
        tuned, log = tr.finetune(model, cfg)
        assert any("finetune diverged" in note for note in log.notes)
        assert [r.epoch for r in log.records] == [0]
        for a, b in zip(tuned.params(), before):
            np.testing.assert_array_equal(a, b)

    def test_nonfinite_starting_model_is_returned_with_a_note(self):
        cfg = small_cfg(pretrain_epochs=1)
        model, _ = tr.pretrain(cfg)
        for p in model.params():
            p[...] = np.nan
        tuned, log = tr.finetune(model, cfg)
        assert any("finetune diverged at epoch 0" in note for note in log.notes)
        assert [r.epoch for r in log.records] == [0]
        assert all(np.isnan(p).all() for p in tuned.params())

    def test_dimension_mismatch(self):
        model, _ = tr.pretrain(small_cfg(dim=2))
        with pytest.raises(ValueError, match="dimension"):
            tr.finetune(model, small_cfg(dim=1))


class TestTrainFull:
    def test_bit_identical_across_runs(self):
        a, _ = tr.train_full(small_cfg(seed=3))
        b, _ = tr.train_full(small_cfg(seed=3))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_seeds_differ(self):
        a, _ = tr.train_full(small_cfg(seed=3))
        b, _ = tr.train_full(small_cfg(seed=4))
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(a.params(), b.params())
        )

    def test_log_covers_both_stages(self):
        _, log = tr.train_full(small_cfg())
        stages = {r.stage for r in log.records}
        assert stages == {"pretrain", "finetune"}
        for stage in stages:
            epochs = [r.epoch for r in log.records if r.stage == stage]
            assert epochs == sorted(epochs)

    def test_direct_training_flagged_unsupported(self):
        cfg = small_cfg(pretrain_epochs=0, finetune_epochs=5)
        with pytest.warns(UserWarning, match="unsupported"):
            try:
                _, log = tr.train_full(cfg)
            except tr.CollapseError:
                return  # collapsing right away is the documented failure mode
        assert any("unsupported" in note for note in log.notes)

    def test_metadata_records_stages(self):
        model, _ = tr.train_full(small_cfg())
        for key in ("pretrain_mse", "finetune_loss", "loss_family", "burn_in", "n_train"):
            assert key in model.meta


class TestTrainLog:
    def test_csv_schema(self, tmp_path):
        _, log = tr.train_full(small_cfg(pretrain_epochs=3, finetune_epochs=3))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,epoch,loss,lr,seconds"
        assert len(lines) == 1 + len(log.records)
        first = lines[1].split(",")
        assert first[0] == "pretrain"
        float(first[2]), float(first[3]), float(first[4])


class TestConfigFile:
    def test_roundtrip(self):
        cfg = small_cfg(dim=2, gamma=(1.0, 0.5), weight_scheme="length-proportional")
        text = tr.format_config(cfg)
        parsed = tr.parse_config(text)
        assert parsed == cfg

    def test_comments_and_blanks(self):
        text = "# a comment\n\ndim: 2\nn_points: 32  # trailing\n"
        cfg = tr.parse_config(text)
        assert cfg.dim == 2 and cfg.n_points == 32

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            tr.parse_config("dim: 2\nn_points: 8\nmomentum: 0.9\n")

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            tr.parse_config("dim: 2\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key: value"):
            tr.parse_config("dim 2\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("dim: 3\nn_points: 24\nloss_family: star\nseed: 7\n")
        cfg = tr.load_config(path)
        assert (cfg.dim, cfg.n_points, cfg.loss_family, cfg.seed) == (3, 24, "star", 7)
