"""Two-stage training of the neural index-to-point map.

Stage one regresses the network onto a classical reference sequence with a
mean-squared-error loss; stage two fine-tunes on the prefix-weighted
squared-discrepancy loss with cosine learning-rate decay.  Both keep their
best-loss checkpoint.  Runs are bit-reproducible for a fixed seed.

Both stages run one forward -> loss -> step loop with one failure policy
and one objective, which gives the loss and its gradient together.  The one
forward of the parameters after step e gives epoch e's logged loss and step
e + 1's gradient, so E epochs take E + 1 forwards.  Fine-tuning walks the
pairs once per forward: the loss and gradient come from one
``prefix_loss_grad`` walk, and the last forward, which no step follows,
takes its loss alone from ``prefix_loss``.  A non-finite loss or gradient,
or a collapse after epoch 0, stops either stage with a note and returns its
checkpoint; a collapse at epoch 0 raises ``CollapseError``.

Each stage allocates once: one ``neuralnet.Workspace`` for the forward and
backward of all ``n_points`` rows, the Adam moments and scratch, and one
parameter set for the checkpoint.  Every epoch writes into them, and the
end of the stage copies the checkpoint into the model's own arrays.
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
            for note in self.notes:  # after the rows, as comment lines CSV readers skip
                fh.write(f"# note: {note}\n")


def cosine_lr(base: float, final_ratio: float, epoch: int, total: int) -> float:
    """Cosine decay from ``base`` at epoch 0 to ``base*final_ratio`` at the
    last epoch."""
    final = base * final_ratio
    if total <= 1:
        return base
    frac = epoch / (total - 1)
    return final + 0.5 * (base - final) * (1.0 + np.cos(np.pi * frac))


def _check_collapse(points: np.ndarray, pretrained: bool = True) -> None:
    """Raise ``CollapseError`` when the points fill almost no volume; the
    message names the likely cause, which depends on whether the model was
    pretrained."""
    volume = float(np.prod(points.max(axis=0) - points.min(axis=0)))
    if volume < COLLAPSE_VOLUME:
        cause = (
            "the model was pretrained, so the fine-tune learning rate "
            "(finetune_lr) is likely too large for its steps"
            if pretrained
            else "direct discrepancy training without pretraining is known "
            "to degenerate this way"
        )
        raise CollapseError(
            f"points collapsed into an axis-aligned box of volume {volume:.3e} "
            f"(< {COLLAPSE_VOLUME:.0e}); {cause}"
        )


def _run_stage(stage, model, cfg, epochs, objective, lr_at, progress=None):
    """The loop both stages share.  ``objective(out, step)`` returns the
    loss of the points ``out`` and its gradient ``upstream``, and may raise
    ``CollapseError``.  ``step`` is false only on the last forward, where no
    update follows; there ``upstream`` is None.  The checkpoint holds the
    best-loss parameters.  ``progress(stage, epoch, epochs, loss,
    seconds)``, if given, hears of every tenth of the epochs.  Returns the
    log and the checkpoint's loss."""
    if model.out_dim != cfg.dim:
        raise ValueError(f"model emits dimension {model.out_dim}, config asks for {cfg.dim}")
    enc = neuralnet.encode_indices(model.encoding, np.arange(1, cfg.n_points + 1))
    ws = neuralnet.Workspace(model, cfg.n_points)
    params = model.params()
    adam = neuralnet.AdamState.for_params(params)
    best_params = [np.empty_like(p) for p in params]
    log = TrainLog()
    t0 = time.perf_counter()
    lr = lr_at(0)
    for epoch in range(epochs + 1):
        out, acts = neuralnet._forward_encoded(model, enc, ws)
        try:
            loss, upstream = objective(out, epoch < epochs)
        except CollapseError as exc:
            if not epoch:
                raise
            log.notes.append(f"{stage} collapsed at epoch {epoch}: {exc}; restored best checkpoint")
            break
        if not np.isfinite(loss):
            if epoch:
                log.notes.append(f"{stage} diverged at epoch {epoch}; restored best checkpoint")
                break
            log.notes.append(f"{stage} diverged at epoch 0: the starting model gives a non-finite loss; returned it unchanged")
        if epoch == 0 or loss < best_loss:
            best_loss = loss
            model.copy_params(best_params)
        log.append(stage, epoch, loss, lr, time.perf_counter() - t0)
        if progress is not None and epoch and 10 * epoch // epochs > 10 * (epoch - 1) // epochs:
            progress(stage, epoch, epochs, loss, log.records[-1].seconds)
        if epoch == epochs or not np.isfinite(loss):
            break
        grads = neuralnet._backward_encoded(model, acts, upstream)
        lr = lr_at(epoch)  # step e + 1 takes lr_at(e), and epoch e + 1's loss is logged with it
        try:
            neuralnet.adam_step(adam, params, grads, lr)
        except ValueError as exc:  # a non-finite gradient; adam_step changed nothing
            log.notes.append(f"{stage} diverged at epoch {epoch + 1}: {exc}; restored best checkpoint")
            break
    model.load_params(best_params)
    return log, best_loss


def pretrain(cfg: TrainConfig, model: neuralnet.MlpModel | None = None, progress=None):
    """Regress the network onto the reference sequence with MSE.

    Targets for sequence-local index i are the reference points at raw
    index i - 1 + burn_in.  Returns the best-MSE checkpoint, whose MSE is
    ``meta["pretrain_mse"]``, and a per-epoch log.  ``progress`` is as in
    ``_run_stage``.
    """
    if model is None:
        model = neuralnet.init_mlp(
            neuralnet.EncodingConfig(bands=cfg.bands, n_norm=cfg.n_norm),
            out_dim=cfg.dim,
            hidden=cfg.hidden,
            layers=cfg.layers,
            seed=seqcore.split_seed(cfg.seed, "init"),
        )
    targets = seqcore.generate(
        seqcore.SequenceSpec(cfg.reference_kind, cfg.dim, burn_in=cfg.burn_in),
        cfg.n_points,
    )

    def objective(out, step):
        diff = out - targets
        loss = float((diff**2).sum() / cfg.n_points)
        return loss, (2.0 * diff / cfg.n_points if step else None)

    log, mse = _run_stage(
        "pretrain", model, cfg, cfg.pretrain_epochs, objective,
        lr_at=lambda epoch: cfg.pretrain_lr,
        progress=progress,
    )
    model.meta.update(
        {
            "dim": cfg.dim,
            "n_train": cfg.n_points,
            "loss_family": cfg.loss_family,
            "burn_in": cfg.burn_in,
            "seed": cfg.seed,
            "reference_kind": cfg.reference_kind,
            "pretrain_epochs": cfg.pretrain_epochs,
            "pretrain_mse": mse,
        }
    )
    return model, log


def finetune(model: neuralnet.MlpModel, cfg: TrainConfig, progress=None):
    """Full-batch gradient descent on the prefix-discrepancy loss with
    cosine learning-rate decay; returns the best-loss checkpoint.

    Raises ``CollapseError`` when the starting model's points have already
    collapsed; a later collapse stops training with a note instead.
    ``progress`` is as in ``_run_stage``.
    """
    kspec = cfg.kernel_spec()
    weights = discrepancy.PrefixWeights(cfg.weight_scheme)

    def objective(points, step):
        if not np.isfinite(points).all():  # the loss rejects non-finite points
            return np.nan, None
        if step:  # the loss and its gradient from one pair walk
            loss, upstream = discrepancy.prefix_loss_grad(kspec, weights, points)
        else:
            loss, upstream = discrepancy.prefix_loss(kspec, weights, points), None
        if np.isfinite(loss):
            _check_collapse(points, pretrained=cfg.pretrain_epochs > 0)
        return loss, upstream

    log, best_loss = _run_stage(
        "finetune", model, cfg, cfg.finetune_epochs, objective,
        lr_at=lambda epoch: cosine_lr(cfg.finetune_lr, cfg.final_lr_ratio, epoch, cfg.finetune_epochs),
        progress=progress,
    )
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


def train_full(cfg: TrainConfig, progress=None):
    """Pretrain, then fine-tune; the returned log covers both stages.
    ``progress(stage, epoch, epochs, loss, seconds)``, if given, hears of
    every tenth of each stage's epochs."""
    if cfg.pretrain_epochs == 0:
        message = (
            "pretrain_epochs=0: fine-tuning from a random initialization is "
            "an unsupported regime that tends to collapse toward a corner"
        )
        warnings.warn(message, UserWarning, stacklevel=2)
    model, log = pretrain(cfg, progress=progress)
    if cfg.pretrain_epochs == 0:
        log.notes.append("unsupported-regime warning: direct fine-tune without pretraining")
    model, ftlog = finetune(model, cfg, progress=progress)
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
