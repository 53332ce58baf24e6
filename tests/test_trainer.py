import copy

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestConfigValueErrors:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("dim: x\nn_points: 8\n", "line 1: bad value for 'dim'"),
            ("dim: 2\nn_points: 8\n\npretrain_lr: fast\n", "line 4: bad value for 'pretrain_lr'"),
            ("dim: 2\nn_points: 8\ngamma: 1,b\n", "line 3: bad value for 'gamma'"),
        ],
        ids=["int", "float", "list"],
    )
    def test_names_line_and_key(self, text, match):
        with pytest.raises(ValueError, match=match):
            tr.parse_config(text)


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("pretrain_lr: nan\n", "learning rates must be positive and finite"),
            ("finetune_lr: inf\n", "learning rates must be positive and finite"),
            ("gamma: -1,1\n", "gamma must hold 2 positive finite weights"),
            ("gamma: 1\n", "gamma must hold 2 positive finite weights"),
            ("gamma: 1,nan\n", "gamma must hold 2 positive finite weights"),
            ("hidden: 0\n", "hidden, layers, bands and n_norm >= 1"),
            ("bands: 0\n", "hidden, layers, bands and n_norm >= 1"),
            ("burn_in: -1\n", "burn_in >= 0"),
        ],
        ids=["nan-lr", "inf-lr", "negative-gamma", "short-gamma", "nan-gamma", "zero-hidden",
             "zero-bands", "negative-burn-in"],
    )
    def test_rejected_before_training(self, text, match):
        with pytest.raises(ValueError, match=match):
            tr.parse_config("dim: 2\nn_points: 8\n" + text)

    @pytest.mark.parametrize(
        "text, match",
        [("dim: 2\nn_points 8\n", "line 2: expected 'key: value'"),
         ("dim: 2\nn_points: 8\npretrain_lr: nan\n", "learning rates"),
         ("dim: 2\n", "config is missing required key")],
        ids=["line", "value", "missing"],
    )
    def test_load_config_names_the_file(self, tmp_path, text, match):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.cfg: {match}"):
            tr.load_config(path)

    def test_undecodable_config_names_the_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"dim: 2\nn_points: \xff\n")
        with pytest.raises(ValueError, match="bad.cfg: .*decode"):
            tr.load_config(path)

    VALUES = st.one_of(
        st.integers(-3, 300).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.lists(st.floats(-2, 4), min_size=1, max_size=4).map(lambda g: ",".join(map(repr, g))),
        st.sampled_from(["sym", "star", "ctr", "uniform", "length-proportional", "halton", "", "x"]),
        st.text(max_size=6),
    )
    KEYS = st.sampled_from([f.name for f in fields(tr.TrainConfig)] + ["momentum"])

    @given(lines=st.lists(st.tuples(KEYS, VALUES), max_size=8), noise=st.text(max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_every_bad_config_raises_value_error(self, lines, noise):
        """parse_config returns a config a run can start from, or raises ValueError."""
        text = "dim: 2\nn_points: 8\n" + "".join(f"{k}: {v}\n" for k, v in lines) + noise
        try:
            cfg = tr.parse_config(text)
        except ValueError:
            return
        assert cfg.dim >= 1 and cfg.n_points >= 2 and cfg.burn_in >= 0
        assert min(cfg.hidden, cfg.layers, cfg.bands, cfg.n_norm) >= 1
        assert min(cfg.pretrain_epochs, cfg.finetune_epochs) >= 0
        for lr in (cfg.pretrain_lr, cfg.finetune_lr):
            assert math.isfinite(lr) and lr > 0
        assert 0 < cfg.final_lr_ratio <= 1
        if cfg.gamma is not None:
            assert len(cfg.gamma) == cfg.dim
            assert all(math.isfinite(g) and g > 0 for g in cfg.gamma)
        cfg.kernel_spec()
        disc.PrefixWeights(cfg.weight_scheme)


# ---------------------------------------------------------------------------
# The two-forward training loops the stages had before each became one
# forward -> loss -> step loop: every epoch ran one forward for the gradient
# and a second one for the loss after the step.  They are the oracle for the
# one-forward loops, which must give the same parameters, log, notes and meta.

def reference_pretrain(cfg, model=None):
    encoding = nn.EncodingConfig(bands=cfg.bands, n_norm=cfg.n_norm)
    if model is None:
        model = nn.init_mlp(
            encoding,
            out_dim=cfg.dim,
            hidden=cfg.hidden,
            layers=cfg.layers,
            seed=tr.seqcore.split_seed(cfg.seed, "init"),
        )
    targets = tr.seqcore.generate(
        tr.seqcore.SequenceSpec(cfg.reference_kind, cfg.dim, burn_in=cfg.burn_in),
        cfg.n_points,
    )
    enc = nn.encode_indices(model.encoding, np.arange(1, cfg.n_points + 1))
    params = model.params()
    adam = nn.AdamState.for_params(params)
    log = tr.TrainLog()

    def mse():
        out = nn._forward_encoded(model, enc)[0]
        return float(((out - targets) ** 2).sum() / cfg.n_points)

    log.append("pretrain", 0, mse(), cfg.pretrain_lr, 0.0)
    good = model.copy_params()
    for epoch in range(1, cfg.pretrain_epochs + 1):
        out, acts = nn._forward_encoded(model, enc)
        upstream = 2.0 * (out - targets) / cfg.n_points
        grads = nn._backward_encoded(model, acts, upstream)
        nn.adam_step(adam, params, grads, cfg.pretrain_lr)
        loss = mse()
        if not np.isfinite(loss):
            model.load_params(good)
            log.notes.append(f"pretrain diverged at epoch {epoch}; restored last good checkpoint")
            break
        good = model.copy_params()
        log.append("pretrain", epoch, loss, cfg.pretrain_lr, 0.0)
    model.meta.update(
        {
            "dim": cfg.dim,
            "n_train": cfg.n_points,
            "loss_family": cfg.loss_family,
            "burn_in": cfg.burn_in,
            "seed": cfg.seed,
            "reference_kind": cfg.reference_kind,
            "pretrain_epochs": cfg.pretrain_epochs,
            "pretrain_mse": log.stage_losses("pretrain")[-1],
        }
    )
    return model, log


def reference_finetune(model, cfg):
    kspec = cfg.kernel_spec()
    weights = disc.PrefixWeights(cfg.weight_scheme)
    enc = nn.encode_indices(model.encoding, np.arange(1, cfg.n_points + 1))
    params = model.params()
    adam = nn.AdamState.for_params(params)
    log = tr.TrainLog()

    def evaluate():
        points = nn._forward_encoded(model, enc)[0]
        if not np.isfinite(points).all():
            return points, np.nan
        return points, disc.prefix_loss(kspec, weights, points)

    points, loss = evaluate()
    epochs = cfg.finetune_epochs
    if np.isfinite(loss):
        tr._check_collapse(points)
    else:
        log.notes.append("finetune diverged at epoch 0: the starting model gives a non-finite loss; returned it unchanged")
        epochs = 0
    best_loss, best_params = loss, model.copy_params()
    log.append("finetune", 0, loss, tr.cosine_lr(cfg.finetune_lr, cfg.final_lr_ratio, 0, cfg.finetune_epochs), 0.0)
    for epoch in range(1, epochs + 1):
        lr = tr.cosine_lr(cfg.finetune_lr, cfg.final_lr_ratio, epoch - 1, cfg.finetune_epochs)
        out, acts = nn._forward_encoded(model, enc)
        upstream = disc.prefix_loss_grad(kspec, weights, out)
        grads = nn._backward_encoded(model, acts, upstream)
        nn.adam_step(adam, params, grads, lr)
        points, loss = evaluate()
        if not np.isfinite(loss):
            log.notes.append(f"finetune diverged at epoch {epoch}; restored best checkpoint")
            break
        tr._check_collapse(points)
        if loss < best_loss:
            best_loss, best_params = loss, model.copy_params()
        log.append("finetune", epoch, loss, lr, 0.0)
    model.load_params(best_params)
    model.meta.update(
        {
            "finetune_epochs": cfg.finetune_epochs,
            "weight_scheme": cfg.weight_scheme,
            "finetune_loss": best_loss,
        }
    )
    if cfg.gamma is not None:
        model.meta["gamma"] = ",".join(f"{g:.17g}" for g in cfg.gamma)
    return model, log


def assert_same_run(got, want):
    """Equal parameters, log tuples (without seconds), notes and meta;
    nan equals nan."""
    (model, log), (ref_model, ref_log) = got, want
    for a, b in zip(model.params(), ref_model.params(), strict=True):
        np.testing.assert_array_equal(a, b)
    assert [(r.stage, r.epoch) for r in log.records] == [(r.stage, r.epoch) for r in ref_log.records]
    np.testing.assert_array_equal([(r.loss, r.lr) for r in log.records],
                                  [(r.loss, r.lr) for r in ref_log.records])
    assert log.notes == ref_log.notes
    assert model.meta.keys() == ref_model.meta.keys()
    for key, value in model.meta.items():
        np.testing.assert_array_equal(value, ref_model.meta[key], err_msg=key)


def run_both_stages(stage_pair, cfg):
    pretrain, finetune = stage_pair
    model, log = pretrain(cfg)
    model, ftlog = finetune(model, cfg)
    return model, log, ftlog


ONE_FORWARD_CONFIGS = {
    "sym": {},
    "weighted-ctr-length-proportional": dict(
        dim=2, loss_family="ctr", gamma=(1.0, 0.3), weight_scheme="length-proportional"),
    "star-halton": dict(dim=2, loss_family="star", reference_kind="halton"),
    "no-pretrain": dict(pretrain_epochs=0, finetune_epochs=5),
    "no-finetune": dict(finetune_epochs=0),
    "one-epoch-each": dict(pretrain_epochs=1, finetune_epochs=1),
}


class TestOneForwardPerEpoch:
    @pytest.mark.parametrize("over", ONE_FORWARD_CONFIGS.values(), ids=ONE_FORWARD_CONFIGS)
    def test_matches_two_forward_reference(self, over):
        cfg = small_cfg(**over)
        got = run_both_stages((tr.pretrain, tr.finetune), cfg)
        want = run_both_stages((reference_pretrain, reference_finetune), cfg)
        assert_same_run(got[:2], want[:2])
        assert_same_run((got[0], got[2]), (want[0], want[2]))

    def test_diverging_lr_collapse_keeps_best_checkpoint(self, monkeypatch):
        cfg = small_cfg(dim=2, finetune_lr=5.0)
        model, _ = reference_pretrain(cfg)
        # the reference raises at the collapse; its last parameter copy is its best checkpoint
        copies = []
        with monkeypatch.context() as m:
            m.setattr(nn.MlpModel, "copy_params",
                      lambda self: copies.append([p.copy() for p in self.params()]) or copies[-1])
            with pytest.raises(tr.CollapseError) as ref_exc:
                reference_finetune(model, cfg)
        tuned, _, log = run_both_stages((tr.pretrain, tr.finetune), cfg)
        assert log.notes == [f"finetune collapsed at epoch 2: {ref_exc.value}; restored best checkpoint"]
        losses = log.stage_losses("finetune")
        assert len(losses) == 2 and losses[1] < losses[0]
        assert losses[1] == pytest.approx(0.0321, abs=5e-5)
        assert tuned.meta["finetune_loss"] == losses[1]
        for a, b in zip(tuned.params(), copies[-1], strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("poisoned_at", [1, 3])
    def test_poisoned_step_matches_reference(self, monkeypatch, poisoned_at):
        real_step = nn.adam_step

        def poisoned_step(state, params, grads, lr):
            real_step(state, params, grads, lr)
            if state.step == poisoned_at:
                for p in params:
                    p[...] = np.nan

        monkeypatch.setattr(nn, "adam_step", poisoned_step)
        cfg = small_cfg(pretrain_epochs=6, finetune_epochs=6)
        got = run_both_stages((tr.pretrain, tr.finetune), cfg)
        want = run_both_stages((reference_pretrain, reference_finetune), cfg)
        assert_same_run(got[:2], want[:2])
        assert_same_run((got[0], got[2]), (want[0], want[2]))
        assert f"pretrain diverged at epoch {poisoned_at}; restored last good checkpoint" in got[1].notes
        assert f"finetune diverged at epoch {poisoned_at}; restored best checkpoint" in got[2].notes

    def test_nonfinite_starting_model_matches_reference_finetune(self):
        cfg = small_cfg(pretrain_epochs=1)
        model, _ = tr.pretrain(cfg)
        for p in model.params():
            p[...] = np.nan
        got = tr.finetune(copy.deepcopy(model), cfg)
        want = reference_finetune(copy.deepcopy(model), cfg)
        assert_same_run(got, want)

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_forwards_per_stage(self, monkeypatch, epochs):
        calls = {"forward": 0, "prefix_loss": 0, "prefix_loss_grad": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(nn, "_forward_encoded", "forward")
        counted(disc, "prefix_loss", "prefix_loss")
        counted(disc, "prefix_loss_grad", "prefix_loss_grad")
        cfg = small_cfg(pretrain_epochs=epochs, finetune_epochs=epochs)
        model, _ = tr.pretrain(cfg)
        assert calls == {"forward": epochs + 1, "prefix_loss": 0, "prefix_loss_grad": 0}
        tr.finetune(model, cfg)
        assert calls == {"forward": 2 * (epochs + 1), "prefix_loss": epochs + 1,
                         "prefix_loss_grad": epochs}


class TestOneDivergencePolicy:
    """A non-finite gradient or starting loss stops either stage with a
    note and returns its checkpoint instead of raising."""

    @staticmethod
    def nan_gradient_at(monkeypatch, call):
        real_backward = nn._backward_encoded
        seen = {"calls": 0}

        def backward(model, acts, upstream):
            grads = real_backward(model, acts, upstream)
            seen["calls"] += 1
            if seen["calls"] == call:
                grads[0][...] = np.nan
            return grads

        monkeypatch.setattr(nn, "_backward_encoded", backward)

    def test_pretrain_nonfinite_gradient_keeps_last_good(self, monkeypatch):
        cfg = small_cfg(pretrain_epochs=8)
        want, _ = tr.pretrain(small_cfg(pretrain_epochs=2))
        self.nan_gradient_at(monkeypatch, 3)
        model, log = tr.pretrain(cfg)
        assert log.notes == [
            "pretrain diverged at epoch 3: non-finite gradient in layer 0 weights; "
            "restored last good checkpoint"
        ]
        assert [r.epoch for r in log.records] == [0, 1, 2]
        for a, b in zip(model.params(), want.params(), strict=True):
            np.testing.assert_array_equal(a, b)
        assert model.meta["pretrain_mse"] == log.records[-1].loss

    def test_finetune_nonfinite_gradient_keeps_best(self, monkeypatch):
        cfg = small_cfg(finetune_epochs=8)
        start, _ = tr.pretrain(cfg)
        _, want_log = tr.finetune(copy.deepcopy(start), cfg)
        self.nan_gradient_at(monkeypatch, 4)
        model, log = tr.finetune(copy.deepcopy(start), cfg)
        assert log.notes == [
            "finetune diverged at epoch 4: non-finite gradient in layer 0 weights; "
            "restored best checkpoint"
        ]
        assert [r.epoch for r in log.records] == [0, 1, 2, 3]
        assert [r.loss for r in log.records] == [r.loss for r in want_log.records[:4]]
        best = min(r.loss for r in log.records)
        assert model.meta["finetune_loss"] == best
        points = nn.forward(model, np.arange(1, cfg.n_points + 1))
        recomputed = disc.prefix_loss(cfg.kernel_spec(), disc.PrefixWeights(cfg.weight_scheme), points)
        assert recomputed == pytest.approx(best, rel=1e-12)

    def test_pretrain_nonfinite_starting_model_is_returned_with_a_note(self):
        cfg = small_cfg(pretrain_epochs=5)
        model, _ = tr.pretrain(small_cfg(pretrain_epochs=0))
        for p in model.params():
            p[...] = np.nan
        tuned, log = tr.pretrain(cfg, model)
        assert log.notes == [
            "pretrain diverged at epoch 0: the starting model gives a non-finite loss; "
            "returned it unchanged"
        ]
        assert [r.epoch for r in log.records] == [0]
        assert np.isnan(log.records[0].loss) and np.isnan(tuned.meta["pretrain_mse"])
        assert all(np.isnan(p).all() for p in tuned.params())
