"""The three workloads: inputs built from a seed, one operation, its checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The program sees only the generated
inputs.  Package defaults stay as they are (float32 working precision,
per-op finite checks on).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import trailergen as tg
import trailergen.cli  # noqa: F401  (the package does not import its CLI)
from trailergen import autodiff as ad
from trailergen.config import preset, with_overrides
from trailergen.synthetic import GeneratorConfig, PairExample, generate_pair
from trailergen.training import AdamW, TrainConfig

# Largest relative difference (max |a - b| / max |a|) allowed between a
# decode's predictions and a teacher-forced pass over the same fed-back
# prefix.  Both run at float32; at the time of writing they differ by about
# 1e-6, so 1e-4 leaves room for reordered float32 arithmetic (a cached or
# batched decoder) while still catching a wrong prefix or a wrong mask.
TF_RTOL = 1e-4

HISTORY_KEYS = ("step", "lr", "l_t", "l_rec", "l_kl", "total")

# TrainConfig seed of every train_desk job, whatever the benchmark seed
JOB_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` only exercises the code."""

    train_pairs: int = 32
    train_epochs: int = 3
    train_n_range: tuple[int, int] = (100, 200)
    train_m_range: tuple[int, int] = (12, 24)
    decode_preset: str = "paper"
    decode_n: int = 150
    decode_steps: int = 32
    decode_movies: int = 16
    eval_pairs: int = 30
    eval_n: int = 150
    eval_m: int = 18
    eval_max_len: int = 24
    checked_decodes: int = 2


FULL = Sizes()
TINY = Sizes(train_pairs=8, train_epochs=2, train_n_range=(16, 24), train_m_range=(4, 8),
             decode_preset="desk", decode_n=20, decode_steps=4, decode_movies=2,
             eval_pairs=3, eval_n=20, eval_m=6, eval_max_len=4,
             checked_decodes=1)


def median(values) -> float:
    return float(statistics.median(values))


def spread_lengths(bounds: tuple[int, int], count: int, order_seed: int) -> list[int]:
    """``count`` lengths spread evenly over ``bounds`` (inclusive), in an order
    fixed by ``order_seed``.  The same for every benchmark seed, so every
    seed's corpus has the same sizes and costs the same work."""
    lengths = np.linspace(*bounds, count).round().astype(int)
    return np.random.default_rng(order_seed).permutation(lengths).tolist()


def fixed_length_config(name: str):
    """A preset whose threshold EOS rule can never fire (cosines are <= 1),
    so every decode runs to its step cap and does the same work."""
    return with_overrides(preset(name), eos_rule="threshold", eos_threshold=1.0)


def teacher_forced_problems(model, movie: np.ndarray, decoded) -> list[str]:
    """Compare a decode with one teacher-forced pass over its fed-back prefix."""
    preds = decoded.all_predictions
    with ad.no_grad():
        memory = model.encode_single(movie).memory
        forced = model.decode_teacher_forced(memory, preds[:-1]).data
    rel = float(np.max(np.abs(forced - preds))) / float(np.max(np.abs(preds)))
    problems = []
    if not rel <= TF_RTOL:
        problems.append(f"teacher-forced predictions differ by {rel:.2e} "
                        f"(relative), above {TF_RTOL:.0e}")
    matched = [tg.decoder.match_nearest(p, movie, 1)[0] for p in forced]
    if matched != list(decoded.matched_indices):
        problems.append("teacher-forced matches differ from the decoded matches")
    return problems


def length_problems(indices, steps: int, n: int) -> list[str]:
    problems = []
    if len(indices) != steps:
        problems.append(f"decoded {len(indices)} shots, expected {steps}")
    if any(not 1 <= i <= n for i in indices):
        problems.append(f"matched index outside 1..{n}")
    return problems


class Workload:
    """One seeded workload.  ``setup`` builds the inputs, ``operate`` runs one
    operation and returns its record, ``check`` lists what is wrong with a
    record, and ``metrics`` turns records into end-to-end numbers."""

    name = ""
    op_name = ""       # the benchmark's top-level span around one operation
    unit = ""          # the unit of work per-layer metrics are divided by
    min_ops = 1

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self._serial = itertools.count()

    def _fresh_dir(self, stem: str) -> Path:
        return self.work / f"{stem}_{next(self._serial)}"

    def setup(self) -> None:
        raise NotImplementedError

    def operate(self) -> dict:
        raise NotImplementedError

    def check(self, record: dict, first: bool) -> list[str]:
        raise NotImplementedError

    def release(self, record: dict) -> None:
        """Drop what a checked record no longer needs: its scratch files
        (deleted before the page cache writes them back) and large objects.
        ``metrics`` and ``work_done`` must still work on what is left."""

    def metrics(self, records: list[dict]) -> dict:
        """End-to-end numbers: ``throughput`` (items/s), ``latency_p50_s``,
        and the same figures under the names a reader of this workload uses."""
        raise NotImplementedError

    def work_done(self, records: list[dict]) -> tuple[int, int]:
        """(units of work, shots predicted or decoded) over the records."""
        raise NotImplementedError


class TrainDesk(Workload):
    """``train()`` at the desk preset, batch 8, on a seeded in-memory corpus.

    One operation is a whole training job; its first epoch is cold (the
    trailerness targets are built through ``similarity_matrix``), the later
    ones hit the targets cache.

    The seed varies the shot contents only.  Pair i has the same movie and
    trailer length under every seed, and the job's own seed (initial weights
    and epoch order, hence the batches and their padding) is fixed, so every
    seed does the same work.
    """

    name = "train_desk"
    op_name = "bench.train_job"
    unit = "train step"
    min_ops = 2  # the determinism check compares two jobs

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.model_cfg = preset("desk")
        self.train_cfg = TrainConfig(epochs=sizes.train_epochs, batch_size=8, seed=JOB_SEED)
        self.steps_per_epoch = -(-sizes.train_pairs // self.train_cfg.batch_size)
        self.reference = None

    def setup(self):
        s = self.sizes
        lengths = zip(spread_lengths(s.train_n_range, s.train_pairs, 1),
                      spread_lengths(s.train_m_range, s.train_pairs, 2))
        self.pairs = []
        for i, (n, m) in enumerate(lengths):
            gen = GeneratorConfig(n_range=(n, n), m_range=(m, m), seed=self.seed)
            self.pairs.append(PairExample(f"pair_{i:05d}", *generate_pair(gen, gen.seed + i)))

    def operate(self):
        out = self._fresh_dir("train")
        marks = []
        start = perf_counter()
        result = tg.training.train(self.pairs, self.train_cfg, self.model_cfg, out_dir=out,
                                   on_epoch=lambda *_: marks.append(perf_counter()))
        return {"epoch_s": np.diff([start] + marks).tolist(), "result": result, "out": out}

    def check(self, record, first):
        result = record["result"]
        problems = []
        history = np.array([[row[k] for k in HISTORY_KEYS] for row in result.history],
                           dtype=np.float64)
        if history.shape[0] != self.sizes.train_epochs * self.steps_per_epoch:
            problems.append(f"{history.shape[0]} train steps recorded")
        if not np.all(np.isfinite(history)):
            problems.append("non-finite loss")
        if self.reference is None:
            self.reference = history.tobytes()
        elif history.tobytes() != self.reference:
            problems.append("loss history differs from the first job of the run")
        ck = tg.training.load_checkpoint(result.checkpoint_path)
        restored, _ = tg.training.restore_model_and_optimizer(ck)
        trained = list(result.model.named_parameters())
        loaded = list(restored.named_parameters())
        if [n for n, _ in trained] != [n for n, _ in loaded] or any(
                p.data.dtype != q.data.dtype or not np.array_equal(p.data, q.data)
                for (_, p), (_, q) in zip(trained, loaded)):
            problems.append("checkpoint parameters differ from the trained model")
        return problems

    def release(self, record):
        del record["result"]
        shutil.rmtree(record.pop("out"), ignore_errors=True)

    def metrics(self, records):
        first = [r["epoch_s"][0] for r in records]
        warm = [self.sizes.train_pairs / t for r in records for t in r["epoch_s"][1:]]
        pairs_per_s = median(warm)
        first_epoch_s = median(first)
        return {
            "throughput": pairs_per_s,
            "latency_p50_s": first_epoch_s,
            "named": [("train_pairs_per_s", pairs_per_s, "pairs/s", "higher", len(warm),
                       "warm epochs"),
                      ("train_first_epoch_s", first_epoch_s, "s", "lower", len(first),
                       "cold first epochs")],
            "latency_samples": first,
        }

    def work_done(self, records):
        steps = len(records) * self.sizes.train_epochs * self.steps_per_epoch
        rows = sum(len(p.trailer) + 1 for p in self.pairs)
        return steps, len(records) * self.sizes.train_epochs * rows


class DecodePaper(Workload):
    """``TrailerModel.generate`` at the paper preset, one seeded movie per request.

    Every movie has the same length and the threshold EOS rule cannot fire,
    so each request decodes exactly ``decode_steps`` shots and does the same
    work; the seed varies the weights and the movie contents.
    """

    name = "decode_paper"
    op_name = "bench.request"
    unit = "decoded shot"

    def setup(self):
        s = self.sizes
        self.model = None  # free the previous model before building the next
        cfg = fixed_length_config(s.decode_preset)
        self.model = tg.model.TrailerModel(cfg, seed=self.seed)
        # only the movie of each generated pair is used
        gen = GeneratorConfig(d=cfg.d_model, n_range=(s.decode_n, s.decode_n),
                              m_range=(1, 1), seed=self.seed)
        self.movies = [generate_pair(gen, gen.seed + i)[0].embeddings
                       for i in range(s.decode_movies)]
        self._requests = itertools.count()

    def operate(self):
        k = next(self._requests)
        movie = self.movies[k % len(self.movies)]
        start = perf_counter()
        decoded = self.model.generate(movie, max_len=self.sizes.decode_steps)
        return {"request_s": perf_counter() - start, "movie": movie, "decoded": decoded,
                "checked": k < self.sizes.checked_decodes}

    def check(self, record, first):
        decoded, movie = record["decoded"], record["movie"]
        problems = length_problems(decoded.matched_indices, self.sizes.decode_steps,
                                   movie.shape[0])
        if decoded.terminated_by != "max_len":
            problems.append(f"terminated by {decoded.terminated_by!r}, expected 'max_len'")
        if record["checked"] and not problems:
            problems += teacher_forced_problems(self.model, movie, decoded)
        return problems

    def metrics(self, records):
        latency = [r["request_s"] for r in records]
        shots_per_s = median([self.sizes.decode_steps / t for t in latency])
        p50 = median(latency)
        return {
            "throughput": shots_per_s,
            "latency_p50_s": p50,
            "named": [("decode_shots_per_s", shots_per_s, "shots/s", "higher",
                       len(latency), "requests"),
                      ("decode_request_s_p50", p50, "s", "lower", len(latency),
                       "requests")],
            "latency_samples": latency,
        }

    def work_done(self, records):
        shots = sum(len(r["decoded"].matched_indices) for r in records)
        return shots, shots


class EvalDesk(Workload):
    """``trailergen eval`` run in-process through ``cli.main`` against an
    untrained desk checkpoint and a generated test split whose movies and
    trailers all have the same length, so every seed does the same work.

    The checkpoint's threshold rule is set to 1.0 so every pair decodes
    exactly ``eval_max_len`` shots; the default k list (1, 5, 10) makes
    top-10 matching run at every step.
    """

    name = "eval_desk"
    op_name = "bench.eval_call"
    unit = "eval call"

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self._setup_roots: list[Path] = []

    def setup(self):
        s = self.sizes
        root = self._fresh_dir("eval_setup")
        data = root / "data"
        gen = GeneratorConfig(n_range=(s.eval_n, s.eval_n), m_range=(s.eval_m, s.eval_m),
                              seed=self.seed)
        # no condition sequences: eval runs without --use-conditions
        tg.synthetic.generate_dataset(gen, s.eval_pairs, data, splits={
            "train": [], "val": [], "test": list(range(s.eval_pairs))},
            include_conditions=False)
        cfg = fixed_length_config("desk")
        model = tg.model.TrailerModel(cfg, seed=self.seed)
        ckpt = root / "model.ckpt"
        tg.training.save_checkpoint(
            ckpt, model, AdamW(model.parameters()), TrainConfig(seed=self.seed), cfg, step=0,
            data_fingerprint=tg.synthetic.dataset_fingerprint(data),
            extras={"suggested_max_len": s.eval_max_len})
        self.data, self.ckpt = data, ckpt
        self._setup_roots.append(root)
        self._pairs = None

    def operate(self):
        out = self._fresh_dir("eval_out")
        argv = ["eval", "--checkpoint", str(self.ckpt), "--data", str(self.data),
                "--split", "test", "--max-len", str(self.sizes.eval_max_len),
                "--out", str(out)]
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = tg.cli.main(argv)
        return {"eval_s": perf_counter() - start, "exit_code": code, "out": out}

    def check(self, record, first):
        s = self.sizes
        if record["exit_code"] != 0:
            return [f"eval exited with {record['exit_code']}"]
        if self._pairs is None:
            self._pairs, _ = tg.synthetic.load_dataset(self.data, "test")
        payload = json.loads((record["out"] / "eval_test.json").read_text())
        per_pair = payload["model"]["per_pair"]
        problems = []
        if [e["id"] for e in per_pair] != [p.pair_id for p in self._pairs]:
            return [f"{len(per_pair)} per-pair entries for {len(self._pairs)} split pairs"]
        f1 = [v for e in per_pair for k, v in e.items() if k.startswith("f1@")]
        f1 += list(payload["model"]["f1"].values())
        if any(not 0.0 <= v <= 1.0 for v in f1):
            problems.append("F1 outside [0, 1]")
        for entry, pair in zip(per_pair, self._pairs):
            problems += length_problems(entry["predicted"], s.eval_max_len, len(pair.movie))
        if first and not problems:
            # decode a sample of the split again, outside the timed region, and
            # hold it against the eval's output and a teacher-forced pass
            ck = tg.training.load_checkpoint(self.ckpt)
            model, _ = tg.training.restore_model_and_optimizer(ck)
            for entry, pair in list(zip(per_pair, self._pairs))[:s.checked_decodes]:
                movie = pair.movie.embeddings
                decoded = model.generate(movie, max_len=s.eval_max_len,
                                         topk=max(payload["k_list"]))
                if decoded.matched_indices != entry["predicted"]:
                    problems.append(f"{pair.pair_id}: a fresh decode disagrees with eval")
                problems += teacher_forced_problems(model, movie, decoded)
        return problems

    def release(self, record):
        shutil.rmtree(record.pop("out"), ignore_errors=True)
        # set-ups since the last operation replaced each other; keep the newest
        while len(self._setup_roots) > 1:
            shutil.rmtree(self._setup_roots.pop(0), ignore_errors=True)

    def metrics(self, records):
        latency = [r["eval_s"] for r in records]
        pairs_per_s = median([self.sizes.eval_pairs / t for t in latency])
        p50 = median(latency)
        return {
            "throughput": pairs_per_s,
            "latency_p50_s": p50,
            "named": [("eval_pairs_per_s", pairs_per_s, "pairs/s", "higher", len(latency),
                       "eval calls"),
                      ("eval_call_s_p50", p50, "s", "lower", len(latency), "eval calls")],
            "latency_samples": latency,
        }

    def work_done(self, records):
        calls = len(records)
        return calls, calls * self.sizes.eval_pairs * self.sizes.eval_max_len


WORKLOADS = {w.name: w for w in (TrainDesk, DecodePaper, EvalDesk)}
