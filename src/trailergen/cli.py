"""Command-line surface: dataset synthesis, training, evaluation, inference,
and gradient verification.

Exit codes are a stable contract: 0 success, 2 input/configuration error,
3 numerical failure.  Config files are plain ``key = value`` text with
``model.`` / ``train.`` / ``data.`` prefixes; ``--set key=value`` overrides
file values; TRAILERGEN_CONFIG names a default config path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import ConfigurationError, NonFiniteError, ShapeError
from .config import ModelConfig, PRESETS, preset
from .gradcheck import gradcheck_suite
from .metrics import align_gt, random_baseline, score_pairs
from .model import TrailerModel
from .shots import ShotSequence, read_sequence, write_sequence
from .synthetic import GeneratorConfig, dataset_fingerprint, generate_dataset, load_dataset
from .training import (TrainConfig, TrainingDiverged, load_checkpoint, restore_model,
                       train)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CONFIG_ENV_VAR = "TRAILERGEN_CONFIG"


class InputError(Exception):
    """Anything the operator can fix: bad paths, bad config, bad shapes."""


# --------------------------------------------------------------------------
# config file handling
# --------------------------------------------------------------------------


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in raw and not raw.startswith(("[", "{", '"')):
        return tuple(_parse_value(part) for part in raw.split(","))
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def parse_config_text(text: str) -> dict[str, dict]:
    """Split prefixed key=value lines into model/train/data sections."""
    sections: dict[str, dict] = {"model": {}, "train": {}, "data": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if "." not in key:
            raise InputError(f"config line {lineno}: key {key!r} needs a "
                             "model./train./data. prefix")
        section, _, name = key.partition(".")
        if section not in sections:
            raise InputError(f"config line {lineno}: unknown section {section!r}")
        sections[section][name] = _parse_value(raw)
    return sections


def load_config(path: str | None, overrides: list[str] | None) -> dict[str, dict]:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    sections = {"model": {}, "train": {}, "data": {}}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise InputError(f"config file not found: {p}")
        sections = parse_config_text(p.read_text())
    for item in overrides or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        section, _, name = key.strip().partition(".")
        if section not in sections or not name:
            raise InputError(f"--set key {key!r} needs a model./train./data. prefix")
        sections[section][name] = _parse_value(raw)
    return sections


def _model_config(sections: dict, preset_name: str | None = None,
                  flags: dict | None = None) -> ModelConfig:
    """The preset, then the config's model entries, then ``flags`` on top."""
    values = dict(sections.get("model", {}))
    name = values.pop("preset", preset_name)
    base = preset(name).to_dict() if name else ModelConfig().to_dict()
    base.update(values)
    base.update(flags or {})
    return ModelConfig.from_dict(base)


# --------------------------------------------------------------------------
# run manifests
# --------------------------------------------------------------------------


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)  # bytes / KB


def write_run_manifest(out_dir, command: str, config_snapshot: dict, seed: int,
                       input_hashes: dict, outputs: list[str], started: float,
                       timings: dict | None = None) -> Path:
    """Write ``run_manifest.json``; ``timings`` adds per-phase wall-clock
    numbers beside the total and the process's peak memory, which only this
    file ever records."""
    manifest = {
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "input_hashes": input_hashes,
        "outputs": sorted(str(o) for o in outputs),
        "timings": {"wall_seconds": round(time.perf_counter() - started, 3),
                    "peak_rss_mb": peak_rss_mb(), **(timings or {})},
    }
    path = Path(out_dir) / "run_manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    started = time.perf_counter()
    gen_cfg = GeneratorConfig.from_dict(load_config(args.config, args.set)["data"])

    splits = None
    if args.split_counts is not None:
        counts = args.split_counts.split(",")
        if (len(counts) != 3 or not all(c.strip().isdecimal() for c in counts)
                or sum(int(c) for c in counts) != args.count):
            raise InputError(f"--split-counts must be three integer counts summing to "
                             f"{args.count}, got {args.split_counts!r}")
        bounds = np.cumsum([0] + [int(c) for c in counts])
        splits = {name: list(range(bounds[i], bounds[i + 1]))
                  for i, name in enumerate(("train", "val", "test"))}

    out = Path(args.out)
    manifest = generate_dataset(gen_cfg, args.count, out, splits=splits,
                                include_conditions=not args.no_conditions)
    outputs = [str(out / "corpus.json")]
    input_hashes = {"config": _hash_file(args.config)} if args.config else {}
    write_run_manifest(out, "gen-data",
                       {"data": gen_cfg.to_dict(), "count": args.count,
                        "dataset_fingerprint": dataset_fingerprint(out)},
                       gen_cfg.seed, input_hashes, outputs, started)
    print(f"wrote {manifest['count']} pairs to {out} "
          f"(splits: {', '.join(f'{k}={len(v)}' for k, v in manifest['splits'].items())})")
    return EXIT_OK


def _loss_csv(path, history: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "l_t", "l_rec", "l_kl", "total", "grad_norm"])
        for row in history:
            writer.writerow([row["step"], repr(row["lr"]), repr(row["l_t"]),
                             repr(row["l_rec"]), repr(row["l_kl"]), repr(row["total"]),
                             repr(row["grad_norm"])])


def cmd_train(args) -> int:
    started = time.perf_counter()
    sections = load_config(args.config, args.set)
    flags = {}
    if args.no_trailerness_encoder:
        flags["use_trailerness_encoder"] = False
    if args.no_context_encoder:
        flags["use_context_encoder"] = False
    if args.use_conditions:
        flags["condition_mode"] = "encoded"
    model_cfg = _model_config(sections, args.preset, flags)
    if args.resume is not None:
        # a resumed run trains the checkpoint's model: a model key given
        # here must agree with it, not be dropped
        entries = sections.get("model", {})
        given = set(flags) | set(entries)
        if args.preset or "preset" in entries:
            given |= set(model_cfg.to_dict())
        stored = load_checkpoint(args.resume).model_config.to_dict()
        for key, value in model_cfg.to_dict().items():
            if key in given and value != stored[key]:
                raise InputError(f"model key {key!r} asks for {value!r}, but {args.resume} "
                                 f"holds {stored[key]!r}; a resumed run keeps its model")
    train_values = dict(sections.get("train", {}))
    if args.seed is not None:
        train_values["seed"] = args.seed
    if args.epochs is not None:
        train_values["epochs"] = args.epochs
    train_cfg = TrainConfig.from_dict(train_values)

    data_dir = Path(args.data)
    if not (data_dir / "corpus.json").exists():
        raise InputError(f"no dataset at {data_dir} (missing corpus.json)")
    examples, _ = load_dataset(data_dir, args.split)
    if not examples:
        raise InputError(f"split {args.split!r} of {data_dir} is empty")
    fingerprint = dataset_fingerprint(data_dir)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    loaded = time.perf_counter()
    try:
        result = train(examples, train_cfg, model_cfg, out_dir=out,
                       resume_from=args.resume, data_fingerprint=fingerprint)
    except TrainingDiverged as err:
        _loss_csv(out / "loss_log.csv", err.history)
        where = f"; last checkpoint: {err.checkpoint_path}" if err.checkpoint_path else ""
        if err.rescue_path:
            where += f"; last finite step: {err.rescue_path}"
        print(f"training diverged: {err}{where}", file=sys.stderr)
        return EXIT_NUMERIC

    trained = time.perf_counter()
    csv_path = out / "loss_log.csv"
    _loss_csv(csv_path, result.history)
    written = time.perf_counter()
    outputs = [str(result.checkpoint_path), str(csv_path)]
    input_hashes = {"dataset": fingerprint}
    if args.config:
        input_hashes["config"] = _hash_file(args.config)
    steps = len(result.history)
    timings = {"load_s": round(loaded - started, 4), "train_s": round(trained - loaded, 4),
               "write_s": round(written - trained, 4), "steps": steps,
               "steps_per_s": round(steps / (trained - loaded), 2)}
    write_run_manifest(out, "train",
                       {"model": result.model.cfg.to_dict(), "train": result.config.to_dict()},
                       train_cfg.seed, input_hashes, outputs, started, timings)
    final = result.history[-1]["total"] if result.history else float("nan")
    total_steps = train_cfg.epochs * train_cfg.steps_per_epoch(len(examples))
    print(f"trained {total_steps} steps; final total loss {final:.6f}; "
          f"checkpoint at {result.checkpoint_path}")
    return EXIT_OK


def _restore_model(checkpoint_path) -> tuple[TrailerModel, dict]:
    """The checkpoint's model and extras; eval and infer read no AdamW moment."""
    ck = load_checkpoint(checkpoint_path)
    return restore_model(ck), ck.extras


def cmd_eval(args) -> int:
    started = time.perf_counter()
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise InputError(f"checkpoint not found: {ckpt}")
    model, extras = _restore_model(ckpt)
    examples, _ = load_dataset(args.data, args.split)
    if not examples:
        raise InputError(f"split {args.split!r} of {args.data} is empty")

    k_list = sorted(set(args.k)) if args.k else [1, 5, 10]
    max_len = args.max_len or int(extras.get("suggested_max_len", 32))
    topk = max(k_list)

    conditions = [None if ex.condition is None else ex.condition.embeddings
                  for ex in examples]
    loaded = time.perf_counter()
    decoded = model.generate_batch([ex.movie.embeddings for ex in examples], conditions,
                                   max_len=max_len, topk=topk)
    decoded_at = time.perf_counter()
    records = [{"id": ex.pair_id,
                "predicted": dec.matched_indices,
                "gt": align_gt(ex.trailer, ex.movie),
                "topk": dec.topk_indices}
               for ex, dec in zip(examples, decoded)]
    aligned_exactly = all(ex.trailer.source_indices is not None for ex in examples)

    report = score_pairs(records, k_list)
    mean_n = float(np.mean([len(ex.movie) for ex in examples]))
    mean_m = float(np.mean([len(ex.trailer) for ex in examples]))
    baseline = random_baseline(int(round(mean_n)), int(round(mean_m)),
                               trials=args.baseline_trials, seed=0)

    report.flags["gt_alignment"] = ("source_indices" if aligned_exactly
                                    else "argmax_cosine_approximation")
    table = report.table("model") + "\n" + "\n".join(
        baseline.table("random").splitlines()[1:])
    scored = time.perf_counter()

    out = Path(args.out) if args.out else ckpt.parent
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"eval_{args.split}.json"
    text_path = out / f"eval_{args.split}.txt"
    json_path.write_text(json.dumps({
        "split": args.split,
        "k_list": k_list,
        "max_len": max_len,
        "model": report.to_json_dict(),
        "random_baseline": baseline.to_json_dict(),
    }, sort_keys=True, indent=2) + "\n")
    text_path.write_text(table + "\n")
    written = time.perf_counter()

    shots = sum(len(dec.matched_indices) for dec in decoded)
    phases = {"load_s": loaded - started, "decode_s": decoded_at - loaded,
              "score_s": scored - decoded_at, "write_s": written - scored}
    timings = {name: round(sec, 4) for name, sec in phases.items()}
    timings["decoded_shots"] = shots
    timings["decoded_shots_per_s"] = round(shots / phases["decode_s"], 1)
    write_run_manifest(out, "eval", {"k_list": k_list, "split": args.split},
                       0, {"checkpoint": _hash_file(ckpt),
                           "dataset": dataset_fingerprint(args.data)},
                       [str(json_path), str(text_path)], started, timings)
    print(table)
    return EXIT_OK


def cmd_infer(args) -> int:
    started = time.perf_counter()
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise InputError(f"checkpoint not found: {ckpt}")
    model, extras = _restore_model(ckpt)
    movie = read_sequence(args.movie)
    if movie.embeddings.shape[1] != model.cfg.d_model:
        raise InputError(f"movie width {movie.embeddings.shape[1]} does not match "
                         f"checkpoint d_model {model.cfg.d_model}")
    condition = None
    if args.condition:
        if model.cfg.condition_mode == "none":
            raise InputError("checkpoint was trained without conditioning; "
                             "--condition is not usable")
        condition = read_sequence(args.condition).embeddings

    max_len = args.max_len or int(extras.get("suggested_max_len", 32))
    loaded = time.perf_counter()
    decoded = model.generate(movie.embeddings, condition=condition,
                             max_len=max_len, topk=args.topk)
    decode_s = time.perf_counter() - loaded
    shots = len(decoded.matched_indices)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    seq_path = None
    if decoded.embeddings.shape[0] > 0:
        seq = ShotSequence(
            seq_id=f"decoded_{movie.seq_id}", embeddings=decoded.embeddings,
            role="trailer",
            source_indices=np.array(decoded.matched_indices, dtype=np.int64))
        write_sequence(out, seq)
        seq_path = str(out)

    sidecar = {
        "movie": str(args.movie),
        "condition": str(args.condition) if args.condition else None,
        "movie_shots": len(movie),
        "matched_indices": decoded.matched_indices,
        "terminated_by": decoded.terminated_by,
        "steps": [
            {"step": i + 1, "matched_index": decoded.matched_indices[i],
             "topk_indices": decoded.topk_indices[i],
             "topk_similarities": decoded.topk_similarities[i]}
            for i in range(len(decoded.matched_indices))
        ],
        "output": seq_path,
    }
    sidecar_path = out.with_suffix(".decode.json")
    sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")

    write_run_manifest(out.parent, "infer",
                       {"topk": args.topk, "max_len": max_len},
                       0, {"checkpoint": _hash_file(ckpt),
                           "movie": _hash_file(args.movie)},
                       [p for p in (seq_path, str(sidecar_path)) if p], started,
                       {"decode_s": round(decode_s, 4),
                        "decoded_shots_per_s": round(shots / decode_s, 1)})
    print(f"decoded {shots} shots "
          f"(terminated by {decoded.terminated_by}); indices {decoded.matched_indices}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck_suite(seeds=args.seeds, h=args.h, tol=args.tol,
                             model_seeds=args.model_seeds)
    print(report.table())
    return EXIT_OK if report.ok else EXIT_NUMERIC


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def positive_int(raw: str) -> int:
    """Argparse type for counts and lengths: below 1 exits 2 before any work."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trailergen",
        description="Sequence-to-sequence trailer generation on shot embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help=f"key=value config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set model.d_model=32")

    p = sub.add_parser("gen-data", help="synthesize a movie/trailer corpus")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=positive_int, default=200)
    p.add_argument("--split-counts", default=None, metavar="TRAIN,VAL,TEST")
    p.add_argument("--no-conditions", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--resume", default=None, metavar="CKPT")
    p.add_argument("--use-conditions", action="store_true",
                   help="condition the model: each pair's condition rows join the memory")
    p.add_argument("--no-trailerness-encoder", action="store_true",
                   help="ablation: drop the trailerness scoring branch")
    p.add_argument("--no-context-encoder", action="store_true",
                   help="ablation: decoder attends to fused embeddings directly")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--k", action="append", type=positive_int, metavar="K",
                   help="top-k values (repeatable; default 1,5,10)")
    p.add_argument("--max-len", type=positive_int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--baseline-trials", type=positive_int, default=200)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="decode a trailer for one movie file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--movie", required=True)
    p.add_argument("--condition", default=None)
    p.add_argument("--topk", type=positive_int, default=5)
    p.add_argument("--max-len", type=positive_int, default=None)
    p.add_argument("--out", required=True,
                   help="output sequence manifest path (.json)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seeds", type=positive_int, default=20)
    p.add_argument("--model-seeds", type=positive_int, default=3)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ConfigurationError, ShapeError, FileNotFoundError,
            KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NonFiniteError, TrainingDiverged) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
