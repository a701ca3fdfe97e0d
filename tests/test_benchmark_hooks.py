"""The program names the benchmark under ``benchmarks/`` relies on.

The benchmark wraps program callables by name from outside
(``benchmarks/tracing.py``) and calls a few model methods directly
(``benchmarks/workloads.py``).  Its own tests are not part of this suite, so
a refactor that renamed or deleted one of those callables would pass here
and break the benchmark; these tests catch that.
"""

import importlib.util
from pathlib import Path

import numpy as np

import trailergen as tg
import trailergen.cli  # noqa: F401  (the tracer reads tg.cli; the package does not import it)
from trailergen import autodiff as ad
from trailergen.config import ModelConfig
from trailergen.model import TrailerModel

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
