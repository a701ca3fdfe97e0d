"""The program names the benchmark under ``benchmarks/`` relies on.

The benchmark wraps program callables by name from outside
(``benchmarks/tracing.py``) and calls a few model methods and the training
and checkpoint functions directly (``benchmarks/workloads.py``).  Its own
tests are not part of this suite, so a refactor that renamed or deleted one
of those callables, or changed their arguments, would pass here and break
the benchmark; these tests catch that.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

import trailergen as tg
import trailergen.cli  # noqa: F401  (the tracer reads tg.cli; the package does not import it)
from trailergen import autodiff as ad
from trailergen.config import ModelConfig
from trailergen.model import TrailerModel
from trailergen.synthetic import (GeneratorConfig, PairExample, dataset_fingerprint,
                                  generate_dataset, generate_pair)
from trailergen.training import AdamW, TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    tracing = load_tracing()
    targets = [target[:3] for target in tracing.layer_targets(tg)]
    targets += tracing.count_targets(tg)
    assert len(targets) > 40
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_teacher_forced_check_of_a_decode_runs():
    # the decode_paper check: one teacher-forced pass over a decode's fed-back
    # prefix, through encode_single and decode_teacher_forced
    cfg = ModelConfig(d_model=8, num_heads=2, ff_dim=16, trailerness_layers=1,
                      context_layers=1, decoder_layers=1, max_len=16,
                      eos_rule="threshold", eos_threshold=1.0)
    model = TrailerModel(cfg, seed=0)
    movie = np.random.default_rng(1).normal(size=(6, 8))
    preds = model.generate(movie, max_len=4).all_predictions
    with ad.no_grad():
        memory = model.encode_single(movie).memory
        forced = model.decode_teacher_forced(memory, preds[:-1]).data
    assert forced.shape == preds.shape == (4, 8)
    assert np.max(np.abs(forced - preds)) <= 1e-4 * np.max(np.abs(preds))


TINY_CFG = ModelConfig(d_model=8, num_heads=2, ff_dim=16, trailerness_layers=1,
                       context_layers=1, decoder_layers=1, max_len=16)


def _same_parameters(a, b):
    return [n for n, _ in a.named_parameters()] == [n for n, _ in b.named_parameters()] and all(
        np.array_equal(p.data, q.data)
        for (_, p), (_, q) in zip(a.named_parameters(), b.named_parameters()))


def test_train_and_checkpoint_calls_of_the_workloads_run(tmp_path):
    # train_desk: train() with an epoch callback, the history columns it
    # reads, and its checkpoint restored
    gen = GeneratorConfig(d=8, n_range=(6, 6), m_range=(3, 3), seed=0)
    pairs = [PairExample(f"pair_{i:05d}", *generate_pair(gen, gen.seed + i)) for i in range(3)]
    epochs = []
    result = tg.training.train(pairs, TrainConfig(epochs=2, batch_size=2, seed=0), TINY_CFG,
                               out_dir=tmp_path / "train",
                               on_epoch=lambda *args: epochs.append(args[0]))
    assert epochs == [0, 1]
    history = np.array([[row[k] for k in ("step", "lr", "l_t", "l_rec", "l_kl", "total")]
                        for row in result.history], dtype=np.float64)
    assert history.shape == (2 * 2, 6) and np.all(np.isfinite(history))
    ck = tg.training.load_checkpoint(result.checkpoint_path)
    restored, _ = tg.training.restore_model_and_optimizer(ck)
    assert _same_parameters(restored, result.model)

    # eval_desk: an untrained model saved with a seed-only train config
    model = TrailerModel(TINY_CFG, seed=1)
    path = tmp_path / "model.ckpt"
    tg.training.save_checkpoint(path, model, AdamW(model.parameters()), TrainConfig(seed=1),
                                TINY_CFG, step=0, data_fingerprint="fingerprint",
                                extras={"suggested_max_len": 4})
    ck = tg.training.load_checkpoint(path)
    restored, _ = tg.training.restore_model_and_optimizer(ck)
    assert (ck.step, ck.data_fingerprint, ck.extras) == (0, "fingerprint",
                                                         {"suggested_max_len": 4})
    assert _same_parameters(restored, model)


def test_eval_call_of_the_workload_runs(tmp_path):
    # eval_desk: cli.main with the workload's argv on an unconditioned
    # checkpoint and a test split written without condition sequences
    gen = GeneratorConfig(d=8, n_range=(6, 6), m_range=(3, 3), seed=0)
    data = tmp_path / "data"
    generate_dataset(gen, 3, data, splits={"train": [], "val": [], "test": [0, 1, 2]},
                     include_conditions=False)
    model = TrailerModel(TINY_CFG, seed=1)
    ckpt = tmp_path / "model.ckpt"
    tg.training.save_checkpoint(ckpt, model, AdamW(model.parameters()), TrainConfig(seed=1),
                                TINY_CFG, step=0, data_fingerprint=dataset_fingerprint(data),
                                extras={"suggested_max_len": 4})
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data),
            "--split", "test", "--max-len", "4", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert tg.cli.main(argv) == 0
    assert (out / "eval_test.json").exists()
