"""Optimization loop: AdamW with decoupled decay, linear-warmup cosine
schedule, length-bucketed batching, checkpointing, and seeded determinism.

Epochs are length-bucketed and batch-shuffled: each epoch shuffles the
pairs, sorts each window of consecutive pairs by movie length, cuts the
windows into batches and shuffles the batches, so a batch pads little.
Shuffling is stateless - epoch e uses the stream seeded by (seed, e) - so
resuming from a checkpoint replays the exact batches without having to
serialize RNG state.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigurationError, NonFiniteError, Parameter
from .config import ModelConfig, config_from_dict
from .losses import (LossBreakdown, batched_kl_loss, batched_reconstruction_loss,
                     batched_trailerness_loss, total_loss)
from .model import TrailerModel
from .shots import trailerness_ground_truth
from .synthetic import PairExample

_SHUFFLE_TAG = 3  # rng domain separator against model/generator streams
# Pairs are sorted by length within windows of this many batches, not over
# the whole corpus: a window bounds the padding almost as well as a full sort
# (on criterion 5's 500 movies at batch 8, attention does 1.07x the unpadded
# work, 1.01x under a full sort, 1.5x with no sort), and on a corpus of more
# than one window the make-up of the batches still changes between epochs.
_BUCKET_WINDOW = 8

# removed switch -> the value a checkpoint written before its removal holds
RETIRED_TRAIN_KEYS = {"normalize_by_length": False}
# keys older checkpoints store that a run now derives (its step counts from
# epochs and warmup_frac, its conditioning from the model); nothing read
# them, so loading drops them
DERIVED_TRAIN_KEYS = ("total_steps", "warmup_steps", "use_conditions")


@dataclass(frozen=True)
class TrainConfig:
    lr_peak: float = 1e-4
    warmup_frac: float = 0.05     # share of the run's steps spent ramping up
    batch_size: int = 8
    epochs: int = 200
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0        # <= 0 disables clipping
    seed: int = 0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    checkpoint_every: int = 0     # epochs between mid-run checkpoints; 0 = final only

    def validate(self) -> "TrainConfig":
        if self.lr_peak <= 0:
            raise ConfigurationError("lr_peak must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if len(self.loss_weights) != 3 or any(w < 0 for w in self.loss_weights):
            raise ConfigurationError("loss_weights must be three nonnegative reals")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigurationError("warmup_frac must be in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigurationError(
                f"beta1 and beta2 must be in [0, 1), got {self.beta1} and {self.beta2}")
        if self.eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.checkpoint_every < 0:
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        return self

    def steps_per_epoch(self, num_pairs: int) -> int:
        return max(1, math.ceil(num_pairs / self.batch_size))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        return config_from_dict(cls, values, "train", RETIRED_TRAIN_KEYS).validate()


def lr_at_step(step: int, cfg: TrainConfig, total: int) -> float:
    """Linear ramp 0 -> lr_peak over the first ``warmup_frac`` of ``total``
    steps, then cosine decay to 0."""
    if total < 1:
        raise ValueError(f"total must be >= 1 step, got {total}")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    warmup = int(cfg.warmup_frac * total)
    if warmup > 0 and step < warmup:
        return cfg.lr_peak * step / warmup
    progress = (step - warmup) / (total - warmup)
    return cfg.lr_peak * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adam with decoupled weight decay.

    Decay is applied to the parameter before the moment update, so a step
    with zero gradients shrinks every parameter by exactly (1 - lr*decay).
    """

    def __init__(self, params: list[Parameter], beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm cap; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class Batch:
    movies: list[np.ndarray]
    trailers: list[np.ndarray]
    conditions: list[np.ndarray | None]
    gt_scores: np.ndarray      # [B, n_max+2] framed trailerness targets, zero-padded
    score_valid: np.ndarray    # [B, n_max+2]


def pad_batch(examples: list[PairExample], gt_cache: dict | None = None) -> Batch:
    """Assemble per-pair arrays plus padded score targets and validity masks;
    each pair's condition rows (or None) go along for ``attach_condition``."""
    if not examples:
        raise ValueError("empty batch")
    movies = [ex.movie.embeddings for ex in examples]
    trailers = [ex.trailer.embeddings for ex in examples]
    conditions = [None if ex.condition is None else ex.condition.embeddings
                  for ex in examples]
    lengths = np.array([m.shape[0] + 2 for m in movies], dtype=np.int64)
    full = int(lengths.max())
    gt = np.zeros((len(examples), full), dtype=np.float64)
    for row, ex in enumerate(examples):
        if gt_cache is not None and ex.pair_id in gt_cache:
            scores = gt_cache[ex.pair_id]
        else:
            scores = trailerness_ground_truth(ex.movie.embeddings, ex.trailer.embeddings)
            if gt_cache is not None:
                gt_cache[ex.pair_id] = scores
        gt[row, :scores.shape[0]] = scores
    return Batch(movies=movies, trailers=trailers, conditions=conditions,
                 gt_scores=gt, score_valid=ad.padding_mask(lengths, full))


def batch_loss(model: TrailerModel, batch: Batch, weights=(1.0, 1.0, 1.0)):
    """Forward pass over one batch; returns (loss tensor, breakdown)."""
    enc = model.encode_batch(batch.movies)
    memory, mem_valid = model.attach_condition(enc, batch.conditions)
    preds, targets, row_valid = model.decode_teacher_forced_batch(
        memory, mem_valid, batch.trailers)
    l_t = None
    if enc.scores is not None:
        l_t = batched_trailerness_loss(enc.scores, batch.gt_scores, batch.score_valid)
    l_rec = batched_reconstruction_loss(preds, targets, row_valid)
    l_kl = batched_kl_loss(preds, targets, row_valid)
    return total_loss(l_t, l_rec, l_kl, weights)


class TrainingDiverged(RuntimeError):
    """A non-finite value stopped training.

    ``checkpoint_path`` names the last epoch-aligned checkpoint, which
    ``train(resume_from=...)`` accepts, or is None.  ``rescue_path`` names the
    parameters of the last completed step, saved mid-epoch to a sibling file
    that cannot be resumed, or is None when they are non-finite too.
    ``history`` holds the rows of the steps completed before the failure.
    """

    def __init__(self, message: str, checkpoint_path=None, rescue_path=None,
                 history=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.rescue_path = rescue_path
        self.history = history or []


@dataclass
class TrainResult:
    model: TrailerModel
    optimizer: AdamW
    history: list[dict]
    checkpoint_path: Path | None
    config: TrainConfig


def epoch_batches(seed: int, epoch: int, lengths, batch_size: int) -> list[np.ndarray]:
    """The pair indices of each batch of one epoch, in training order.

    ``lengths`` holds each pair's movie length in shots.  The pairs are
    shuffled, each window of ``_BUCKET_WINDOW * batch_size`` consecutive
    pairs is stable-sorted by length and cut into batches, and the batches
    are shuffled.  The result depends on the arguments alone.
    """
    rng = np.random.default_rng([seed, _SHUFFLE_TAG, epoch])
    lengths = np.asarray(lengths)
    order = rng.permutation(len(lengths))
    window = _BUCKET_WINDOW * batch_size
    batches = []
    for lo in range(0, len(order), window):
        part = order[lo:lo + window]
        part = part[np.argsort(lengths[part], kind="stable")]
        batches.extend(part[i:i + batch_size] for i in range(0, len(part), batch_size))
    return [batches[i] for i in rng.permutation(len(batches))]


def suggested_decode_cap(examples: list[PairExample]) -> int:
    """Default inference cap: twice the 95th-percentile training trailer length."""
    lengths = sorted(len(ex.trailer) for ex in examples)
    p95 = lengths[min(len(lengths) - 1, math.ceil(0.95 * len(lengths)) - 1)]
    return max(1, 2 * int(p95))


def train(examples: list[PairExample], cfg: TrainConfig, model_cfg: ModelConfig,
          out_dir=None, resume_from=None, data_fingerprint: str = "",
          on_epoch=None) -> TrainResult:
    """Optimize the combined loss over the given pairs.

    ``on_epoch(epoch, model, history)`` runs after each epoch (for eval
    callbacks); checkpoints are written at epoch boundaries.  On a non-finite
    loss the last epoch-boundary checkpoint is preserved, the last finite
    parameters go to ``model.rescue.ckpt``, and ``TrainingDiverged`` is raised.
    A resumed run trains the restored model and saves that model's config;
    ``model_cfg`` then only has to be valid.  The run is ``cfg.epochs``
    epochs long.
    """
    if not examples:
        raise ValueError("training needs at least one pair")
    cfg = cfg.validate()
    model_cfg = model_cfg.validate()
    steps_per_epoch = cfg.steps_per_epoch(len(examples))
    total_steps = cfg.epochs * steps_per_epoch

    start_epoch = 0
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        ck.train_config.validate()  # the resumed run keeps its optimizer constants
        model, optimizer = restore_model_and_optimizer(ck)
        if ck.step % steps_per_epoch != 0:
            raise ConfigurationError("checkpoints are epoch-aligned; cannot resume mid-epoch")
        start_epoch = ck.step // steps_per_epoch
        data_fingerprint = data_fingerprint or ck.data_fingerprint
        del ck  # and with it the map of the payload, which the run has copied
    else:
        model = TrailerModel(model_cfg, seed=cfg.seed)
        optimizer = AdamW(model.parameters(), cfg.beta1, cfg.beta2, cfg.eps,
                          cfg.weight_decay)
    # without a trailerness encoder the model computes no l_t to weigh
    computed = cfg.loss_weights[1:] if model.trailerness is None else cfg.loss_weights
    if not any(computed):
        raise ConfigurationError(f"loss_weights {cfg.loss_weights} zero every loss term "
                                 f"this model computes")

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_path / "model.ckpt" if out_path is not None else None

    lengths = [len(ex.movie) for ex in examples]
    gt_cache: dict = {}
    history: list[dict] = []
    # newest epoch-aligned checkpoint of this run; a model.ckpt left in
    # out_dir by an earlier run is not one
    resumable = Path(resume_from) if resume_from is not None else None
    step = start_epoch * steps_per_epoch

    def save(path):
        save_checkpoint(path, model, optimizer, cfg, model.cfg, step,
                        data_fingerprint, extras={
                            "suggested_max_len": suggested_decode_cap(examples)})

    for epoch in range(start_epoch, cfg.epochs):
        for indices in epoch_batches(cfg.seed, epoch, lengths, cfg.batch_size):
            batch = pad_batch([examples[i] for i in indices], gt_cache)
            try:
                loss, breakdown = batch_loss(model, batch, cfg.loss_weights)
                model.zero_grad()
                loss.backward()
            except NonFiniteError as err:
                # Params are from the last completed step; persist them unless
                # they overflowed too.  They go beside the epoch checkpoint,
                # never over it, so that one stays resumable.
                rescue = None
                if out_path is not None and all(
                        np.isfinite(p.data).all() for p in model.parameters()):
                    rescue = out_path / "model.rescue.ckpt"
                    save(rescue)
                raise TrainingDiverged(str(err), resumable, rescue, history) from err
            grad_norm = clip_gradients(model.parameters(), cfg.clip_norm)
            lr = lr_at_step(step, cfg, total_steps)
            optimizer.step(lr)
            step += 1
            history.append({"step": step, "lr": lr, **breakdown.as_dict(),
                            "grad_norm": grad_norm})
        if ckpt_path is not None and (
                cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0):
            save(ckpt_path)
            resumable = ckpt_path
        if on_epoch is not None:
            if on_epoch(epoch, model, history) is True:
                break  # early stop requested by the callback
    if ckpt_path is not None:
        save(ckpt_path)
    return TrainResult(model=model, optimizer=optimizer, history=history,
                       checkpoint_path=ckpt_path, config=cfg)


# --------------------------------------------------------------------------
# checkpoint container: magic, u32 header length, JSON header, raw payload
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"TGCKPT01"


@dataclass
class CheckpointData:
    step: int
    model_config: ModelConfig
    train_config: TrainConfig
    data_fingerprint: str
    arrays: dict[str, np.ndarray]
    optimizer_step: int
    extras: dict


def save_checkpoint(path, model: TrailerModel, optimizer: AdamW | None,
                    train_cfg: TrainConfig, model_cfg: ModelConfig, step: int,
                    data_fingerprint: str = "", extras: dict | None = None) -> None:
    named = list(model.named_parameters())
    entries = [(name, p.data) for name, p in named]
    if optimizer is not None:
        by_id = {id(p): name for name, p in named}
        for p, m, v in zip(optimizer.params, optimizer.m, optimizer.v):
            name = by_id[id(p)]
            entries.append((f"optim.m:{name}", m))
            entries.append((f"optim.v:{name}", v))

    # each array is written from its own buffer (a copy only when it is not
    # C-contiguous little-endian), so a save holds no second checkpoint
    table = []
    offset = 0
    arrays = []
    for name, arr in entries:
        arr = np.ascontiguousarray(arr)
        table.append({"name": name, "shape": list(arr.shape),
                      "dtype": str(arr.dtype), "offset": offset})
        offset += arr.nbytes
        arrays.append(arr)

    header = {
        "version": 1,
        "step": int(step),
        "data_fingerprint": data_fingerprint,
        "model_config": model_cfg.to_dict(),
        "train_config": train_cfg.to_dict(),
        # AdamW's constants are the train config's; only the step is its own
        "optimizer": None if optimizer is None else {"step": optimizer.step_count},
        "extras": extras or {},
        "params": table,
        "payload_bytes": offset,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # write beside the target, fsync it and rename over it, so neither a
    # failed write nor an OS crash destroys the previous checkpoint
    # (divergence rescue falls back to it)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            for arr in arrays:
                fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).reshape(-1).data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # the rename is durable only once the directory entry is on disk
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint's header and map its payload read-only; the
    returned arrays are views into the map, so a reader pages in only the
    arrays it reads."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if preamble[:8] != _CKPT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic)")
        if len(preamble) < 12:
            raise ValueError(f"{path} is truncated: {size} bytes, shorter than the preamble")
        head_len = struct.unpack("<I", preamble[8:12])[0]
        if 12 + head_len > size:
            raise ValueError(f"{path} is truncated: its {head_len}-byte header runs past the end")
        header = json.loads(fh.read(head_len).decode())
        if header.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        payload_bytes = header["payload_bytes"]
        if size - 12 - head_len != payload_bytes:
            raise ValueError("checkpoint payload is truncated")
        # a map of length 0 is refused, and an empty payload has nothing to map
        payload = (np.memmap(fh, dtype=np.uint8, mode="r", offset=12 + head_len,
                             shape=(payload_bytes,))
                   if payload_bytes else np.empty(0, dtype=np.uint8))
    arrays = {}
    for entry in header["params"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=entry["offset"])
        arrays[entry["name"]] = arr.reshape(entry["shape"])
    opt = header.get("optimizer") or {}
    train_values = {key: value for key, value in header["train_config"].items()
                    if key not in DERIVED_TRAIN_KEYS}
    return CheckpointData(
        step=header["step"],
        model_config=ModelConfig.from_dict(header["model_config"]),
        # checked for keys and types only: eval and infer read no train value
        # but the seed, so a value a later check rejects still opens
        train_config=config_from_dict(TrainConfig, train_values, "train",
                                      RETIRED_TRAIN_KEYS),
        data_fingerprint=header["data_fingerprint"],
        arrays=arrays,
        optimizer_step=opt.get("step", 0),
        extras=header.get("extras", {}),
    )


def restore_model(ck: CheckpointData) -> TrailerModel:
    """The checkpoint's model, each parameter a copy of its stored array;
    no optimizer moment is read."""
    model = TrailerModel(ck.model_config, seed=ck.train_config.seed)
    named = dict(model.named_parameters())
    stored = {n for n in ck.arrays if not n.startswith("optim.")}
    if stored != set(named):
        missing = sorted(set(named) - stored)
        extra = sorted(stored - set(named))
        raise ValueError(f"checkpoint/model parameter mismatch: missing={missing} extra={extra}")
    for name, p in named.items():
        p.data = ck.arrays[name].copy()
    return model


def restore_optimizer(ck: CheckpointData, model: TrailerModel) -> AdamW:
    """AdamW over ``model``'s parameters with the checkpoint's step and a
    copy of each stored moment."""
    cfg = ck.train_config
    optimizer = AdamW(model.parameters(), cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
    optimizer.step_count = ck.optimizer_step
    for i, (name, _) in enumerate(model.named_parameters()):
        m_key, v_key = f"optim.m:{name}", f"optim.v:{name}"
        if m_key in ck.arrays:
            optimizer.m[i] = ck.arrays[m_key].copy()
            optimizer.v[i] = ck.arrays[v_key].copy()
    return optimizer


def restore_model_and_optimizer(ck: CheckpointData) -> tuple[TrailerModel, AdamW]:
    model = restore_model(ck)
    return model, restore_optimizer(ck, model)
