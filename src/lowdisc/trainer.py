"""Two-stage training of the neural index-to-point map.

Stage one regresses the network onto a classical reference sequence with a
mean-squared-error loss; stage two fine-tunes on the prefix-weighted
squared-discrepancy loss with cosine learning-rate decay and best-loss
checkpointing.  Runs are bit-reproducible for a fixed seed.

Each stage is one forward -> loss -> step loop: the one forward of the
parameters after step e gives epoch e's logged loss and step e + 1's
gradient, so E epochs take E + 1 forwards.  A non-finite loss or gradient
stops either stage with a note and returns its checkpoint; so does a
collapse after the first fine-tuning epoch.  A model that has collapsed
before fine-tuning starts raises ``CollapseError``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import discrepancy, neuralnet, seqcore

COLLAPSE_VOLUME = 1e-6


class CollapseError(RuntimeError):
    """The generated points degenerated into a near-zero-volume box."""


# Tuned defaults per loss family: (hidden, layers, bands, pretrain_lr,
# finetune_lr, final_lr_ratio).  Families without their own row borrow sym's.
LOSS_DEFAULTS = {
    "sym": (768, 7, 64, 2.61e-3, 5.04e-3, 3.02e-2),
    "star": (512, 5, 64, 1.38e-3, 3.52e-4, 4.39e-2),
    "ctr": (768, 7, 32, 2.85e-3, 4.14e-3, 1.14e-1),
}


@dataclass
class TrainConfig:
    """Everything a training run needs; fields left as None pick up the
    per-loss defaults in ``LOSS_DEFAULTS``."""

    dim: int
    n_points: int
    loss_family: str = "sym"
    hidden: int | None = None
    layers: int | None = None
    bands: int | None = None
    pretrain_lr: float | None = None
    pretrain_epochs: int = 2000
    finetune_lr: float | None = None
    finetune_epochs: int = 2000
    final_lr_ratio: float | None = None
    gamma: tuple[float, ...] | None = None
    weight_scheme: str = "uniform"
    reference_kind: str = "sobol"
    burn_in: int = 128
    seed: int = 0
    n_norm: int | None = None

    def __post_init__(self):
        if self.loss_family not in discrepancy.KERNELS:
            raise ValueError(f"unknown loss family {self.loss_family!r}")
        row = LOSS_DEFAULTS.get(self.loss_family, LOSS_DEFAULTS["sym"])
        for name, value in zip(
            ("hidden", "layers", "bands", "pretrain_lr", "finetune_lr", "final_lr_ratio"),
            row,
        ):
            if getattr(self, name) is None:
                setattr(self, name, value)
        if self.n_norm is None:
            self.n_norm = self.n_points
        if self.dim < 1 or self.n_points < 2:
            raise ValueError("need dim >= 1 and n_points >= 2")
        if min(self.hidden, self.layers, self.bands, self.n_norm) < 1 or self.burn_in < 0:
            raise ValueError("need hidden, layers, bands and n_norm >= 1 and burn_in >= 0")
        if not (0.0 < self.pretrain_lr < np.inf and 0.0 < self.finetune_lr < np.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0.0 < self.final_lr_ratio <= 1.0:
            raise ValueError("final_lr_ratio must lie in (0, 1]")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.reference_kind not in ("sobol", "halton"):
            raise ValueError("reference_kind must be 'sobol' or 'halton'")
        if self.gamma is not None:
            self.gamma = tuple(float(g) for g in self.gamma)
            if len(self.gamma) != self.dim or not all(0.0 < g < np.inf for g in self.gamma):
                raise ValueError(f"gamma must hold {self.dim} positive finite weights, got {self.gamma}")
        # validate the scheme eagerly
        discrepancy.PrefixWeights(self.weight_scheme)

    def kernel_spec(self) -> discrepancy.KernelSpec:
        return discrepancy.KernelSpec(self.loss_family, self.gamma)


@dataclass
class LogRecord:
    stage: str
    epoch: int
    loss: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    records: list[LogRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, stage, epoch, loss, lr, seconds):
        self.records.append(LogRecord(stage, epoch, float(loss), float(lr), float(seconds)))

    def extend(self, other: "TrainLog"):
        self.records.extend(other.records)
        self.notes.extend(other.notes)

    def stage_losses(self, stage: str) -> list[float]:
        return [r.loss for r in self.records if r.stage == stage]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("stage,epoch,loss,lr,seconds\n")
            for r in self.records:
                fh.write(f"{r.stage},{r.epoch},{r.loss:.17g},{r.lr:.17g},{r.seconds:.6f}\n")


def cosine_lr(base: float, final_ratio: float, epoch: int, total: int) -> float:
    """Cosine decay from ``base`` at epoch 0 to ``base*final_ratio`` at the
    last epoch."""
    final = base * final_ratio
    if total <= 1:
        return base
    frac = epoch / (total - 1)
    return final + 0.5 * (base - final) * (1.0 + np.cos(np.pi * frac))


def _check_collapse(points: np.ndarray) -> None:
    volume = float(np.prod(points.max(axis=0) - points.min(axis=0)))
    if volume < COLLAPSE_VOLUME:
        raise CollapseError(
            f"points collapsed into an axis-aligned box of volume {volume:.3e} "
            f"(< {COLLAPSE_VOLUME:.0e}); direct discrepancy training without "
            "pretraining is known to degenerate this way"
        )


def pretrain(cfg: TrainConfig, model: neuralnet.MlpModel | None = None):
    """Regress the network onto the reference sequence with MSE.

    Targets for sequence-local index i are the reference points at raw
    index i - 1 + burn_in.  Returns the final model and a per-epoch log;
    on divergence the last finite-loss parameters are restored.
    """
    encoding = neuralnet.EncodingConfig(bands=cfg.bands, n_norm=cfg.n_norm)
    if model is None:
        model = neuralnet.init_mlp(
            encoding,
            out_dim=cfg.dim,
            hidden=cfg.hidden,
            layers=cfg.layers,
            seed=seqcore.split_seed(cfg.seed, "init"),
        )
    targets = seqcore.generate(
        seqcore.SequenceSpec(cfg.reference_kind, cfg.dim, burn_in=cfg.burn_in),
        cfg.n_points,
    )
    enc = neuralnet.encode_indices(model.encoding, np.arange(1, cfg.n_points + 1))
    params = model.params()
    adam = neuralnet.AdamState.for_params(params)
    log = TrainLog()
    t0 = time.perf_counter()
    for epoch in range(cfg.pretrain_epochs + 1):
        out, acts = neuralnet._forward_encoded(model, enc)
        loss = float(((out - targets) ** 2).sum() / cfg.n_points)
        if not np.isfinite(loss):
            if epoch:
                log.notes.append(f"pretrain diverged at epoch {epoch}; restored last good checkpoint")
                break
            log.notes.append("pretrain diverged at epoch 0: the starting model gives a non-finite loss; returned it unchanged")
        good = model.copy_params()
        log.append("pretrain", epoch, loss, cfg.pretrain_lr, time.perf_counter() - t0)
        if epoch == cfg.pretrain_epochs or not np.isfinite(loss):
            break
        upstream = 2.0 * (out - targets) / cfg.n_points
        grads = neuralnet._backward_encoded(model, acts, upstream)
        try:
            neuralnet.adam_step(adam, params, grads, cfg.pretrain_lr)
        except ValueError as exc:  # a non-finite gradient; adam_step changed nothing
            log.notes.append(f"pretrain diverged at epoch {epoch + 1}: {exc}; restored last good checkpoint")
            break
    model.load_params(good)
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


def finetune(model: neuralnet.MlpModel, cfg: TrainConfig):
    """Full-batch gradient descent on the prefix-discrepancy loss with
    cosine learning-rate decay; returns the best-loss checkpoint.

    Raises ``CollapseError`` when the starting model's points have already
    collapsed; a later collapse stops training with a note instead.
    """
    if model.out_dim != cfg.dim:
        raise ValueError(
            f"model emits dimension {model.out_dim}, config asks for {cfg.dim}"
        )
    kspec = cfg.kernel_spec()
    weights = discrepancy.PrefixWeights(cfg.weight_scheme)
    enc = neuralnet.encode_indices(model.encoding, np.arange(1, cfg.n_points + 1))
    params = model.params()
    adam = neuralnet.AdamState.for_params(params)
    log = TrainLog()
    t0 = time.perf_counter()
    lr = cosine_lr(cfg.finetune_lr, cfg.final_lr_ratio, 0, cfg.finetune_epochs)
    for epoch in range(cfg.finetune_epochs + 1):
        points, acts = neuralnet._forward_encoded(model, enc)
        # prefix_loss rejects non-finite points; report divergence as a nan loss
        loss = discrepancy.prefix_loss(kspec, weights, points) if np.isfinite(points).all() else np.nan
        if not np.isfinite(loss):
            if epoch:
                log.notes.append(f"finetune diverged at epoch {epoch}; restored best checkpoint")
                break
            log.notes.append("finetune diverged at epoch 0: the starting model gives a non-finite loss; returned it unchanged")
        else:
            try:
                _check_collapse(points)
            except CollapseError as exc:
                if not epoch:
                    raise
                log.notes.append(f"finetune collapsed at epoch {epoch}: {exc}; restored best checkpoint")
                break
        if epoch == 0 or loss < best_loss:
            best_loss, best_params = loss, model.copy_params()
        log.append("finetune", epoch, loss, lr, time.perf_counter() - t0 if epoch else 0.0)
        if epoch == cfg.finetune_epochs or not np.isfinite(loss):
            break
        upstream = discrepancy.prefix_loss_grad(kspec, weights, points)
        grads = neuralnet._backward_encoded(model, acts, upstream)
        # step e + 1 takes cosine_lr(e), and epoch e + 1's loss is logged with it
        lr = cosine_lr(cfg.finetune_lr, cfg.final_lr_ratio, epoch, cfg.finetune_epochs)
        try:
            neuralnet.adam_step(adam, params, grads, lr)
        except ValueError as exc:  # a non-finite gradient; adam_step changed nothing
            log.notes.append(f"finetune diverged at epoch {epoch + 1}: {exc}; restored best checkpoint")
            break
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


def train_full(cfg: TrainConfig):
    """Pretrain, then fine-tune; the returned log covers both stages."""
    if cfg.pretrain_epochs == 0:
        message = (
            "pretrain_epochs=0: fine-tuning from a random initialization is "
            "an unsupported regime that tends to collapse toward a corner"
        )
        warnings.warn(message, UserWarning, stacklevel=2)
    model, log = pretrain(cfg)
    if cfg.pretrain_epochs == 0:
        log.notes.append("unsupported-regime warning: direct fine-tune without pretraining")
    model, ftlog = finetune(model, cfg)
    log.extend(ftlog)
    return model, log


# ---------------------------------------------------------------------------
# config files: one "key: value" pair per line, '#' comments

_LIST_FIELDS = {"gamma"}


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name in _LIST_FIELDS:
            value = ",".join(f"{v:.17g}" for v in value)
        lines.append(f"{f.name}: {value}")
    return "\n".join(lines) + "\n"


_PARSERS = {**dict.fromkeys(_LIST_FIELDS, lambda v: tuple(float(g) for g in v.split(","))),
            **dict.fromkeys(("loss_family", "weight_scheme", "reference_kind"), str),
            **dict.fromkeys(("pretrain_lr", "finetune_lr", "final_lr_ratio"), float)}  # the rest are int


def parse_config(text: str) -> TrainConfig:
    """Parse the key:value training-config format (see ``format_config``)."""
    known = {f.name for f in fields(TrainConfig)}
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, value = (part.strip() for part in body.split(":", 1))
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS.get(key, int)(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for required in ("dim", "n_points"):
        if required not in kwargs:
            raise ValueError(f"config is missing required key {required!r}")
    return TrainConfig(**kwargs)


def load_config(path) -> TrainConfig:
    """Read a config file; every error names the file."""
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except ValueError as exc:  # also text that does not decode
        raise ValueError(f"{path}: {exc}") from None
