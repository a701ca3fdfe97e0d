"""Acceptance gate: ten system-level criteria, one test per criterion.

Each test emits a single PASS/FAIL verdict line.  Lines are registered with
conftest and replayed in the terminal summary so they survive pytest's fd
capture even for passing tests.  Tolerances and budgets are asserted inside
the tests; trend criteria that are specified as "flag, don't fail" announce
FLAGGED instead of failing.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
import oracles
from trailergen import autodiff as ad
from trailergen.cli import main as cli_main
from trailergen.config import ModelConfig, with_overrides
from trailergen.gradcheck import gradcheck_suite
from trailergen.metrics import (align_gt, levenshtein, precision_recall_f1,
                                random_baseline, score_pairs)
from trailergen.model import TrailerModel
from trailergen.synthetic import (GeneratorConfig, PairExample,
                                  condition_for_pair, generate_pair)
from trailergen.training import TrainConfig, suggested_decode_cap, train

pytestmark = pytest.mark.slow


def announce(criterion: int, verdict: str, detail: str) -> None:
    line = f"[criterion {criterion:2d}] {verdict:7s} {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def build_pairs(cfg: GeneratorConfig, count: int, with_conditions: bool = False):
    out = []
    for i in range(count):
        movie, trailer = generate_pair(cfg, cfg.seed + i)
        condition = (condition_for_pair(cfg, cfg.seed + i, movie, trailer)
                     if with_conditions else None)
        out.append(PairExample(pair_id=f"pair-{i}", movie=movie,
                               trailer=trailer, condition=condition))
    return out


def evaluate(model, examples, k_list=(1,), max_len=48):
    # each pair's condition goes along; only a conditioned model reads it
    records = []
    for ex in examples:
        cond = None if ex.condition is None else ex.condition.embeddings
        decoded = model.generate(ex.movie.embeddings, condition=cond,
                                 max_len=max_len, topk=max(k_list))
        records.append({"id": ex.pair_id,
                        "predicted": decoded.matched_indices,
                        "gt": align_gt(ex.trailer, ex.movie),
                        "topk": decoded.topk_indices})
    return score_pairs(records, k_list=k_list)


# --------------------------------------------------------------------------
# the expensive generalization run, shared by criteria 5 and 7
# --------------------------------------------------------------------------

# Decode policy: retrieval feedback keeps the trajectory on the shot
# manifold, no_repeat makes the decoder enumerate distinct cluster members,
# and the EOS-cosine threshold stops where the trained EOS affinity crosses
# its ground-truth-length knee (0.685 at GT length, saturating near 0.78).
# 20 epochs: free-running F1 peaks early and decays with further training.
GEN_DATA = GeneratorConfig(seed=21)
GEN_MODEL = ModelConfig(no_repeat=True, feedback="retrieved",
                        eos_rule="threshold", eos_threshold=0.7)
GEN_TRAIN = TrainConfig(epochs=20, batch_size=8, lr_peak=1e-3, seed=5)


@pytest.fixture(scope="module")
def generalization_run():
    t0 = time.perf_counter()
    pairs = build_pairs(GEN_DATA, 550)
    train_pairs, test_pairs = pairs[:500], pairs[500:]
    result = train(train_pairs, GEN_TRAIN, GEN_MODEL)
    max_len = suggested_decode_cap(train_pairs)
    report = evaluate(result.model, test_pairs, k_list=(1, 5, 10),
                      max_len=max_len)
    runtime = time.perf_counter() - t0
    return train_pairs, test_pairs, report, runtime, result.model


# --------------------------------------------------------------------------
# 1. gradient correctness
# --------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    report = gradcheck_suite(seeds=20, h=1e-5, tol=1e-4)
    runtime = time.perf_counter() - t0
    ok = report.ok and runtime < 120
    announce(1, "PASS" if ok else "FAIL",
             f"gradcheck max rel err {report.max_rel_error:.2e} "
             f"(tol 1e-4, 20 seeds, {runtime:.0f}s < 120s)")
    assert report.ok, report.table()
    assert runtime < 120


# --------------------------------------------------------------------------
# 2. metric oracles
# --------------------------------------------------------------------------

def test_criterion_2_metric_oracles():
    strings = []
    for length in range(0, 7):
        strings.extend(itertools.product(range(3), repeat=length))
    assert len(strings) == 1093

    mismatches = 0
    checked = 0
    for a in strings:
        for b in strings:
            if levenshtein(a, b) != oracles.levenshtein_recursive(a, b):
                mismatches += 1
            checked += 1

    rng = np.random.default_rng(2024)
    prf_bad = 0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, 12))
        p_len = int(rng.integers(0, 14))
        k = int(rng.choice([1, 5, 10]))
        gt = [int(i) for i in rng.integers(1, n + 1, size=m)]
        predicted = [int(i) for i in rng.integers(1, n + 1, size=p_len)]
        topk = [[int(i) for i in rng.choice(np.arange(1, n + 1),
                                            size=min(k, n), replace=False)]
                for _ in range(p_len)]
        if predicted:
            topk = [[predicted[j]] + topk[j][:-1] for j in range(p_len)]
        got = precision_recall_f1(predicted, gt, k=k, topk_lists=topk or None)
        want = oracles.greedy_topk_prf(predicted, gt, k, topk_lists=topk or None)
        if not np.allclose(got, want, atol=1e-12):
            prf_bad += 1

    ok = mismatches == 0 and prf_bad == 0
    announce(2, "PASS" if ok else "FAIL",
             f"levenshtein exact on all {checked} pairs of length <= 6 "
             f"({mismatches} mismatches); P/R/F1 oracle on 1000 instances "
             f"({prf_bad} mismatches)")
    assert mismatches == 0
    assert prf_bad == 0


# --------------------------------------------------------------------------
# 3. causal integrity
# --------------------------------------------------------------------------

def test_criterion_3_causal_integrity():
    rng = np.random.default_rng(7)
    violations = 0
    with ad.precision(np.float64):
        for trial in range(100):
            d = int(rng.choice([8, 16, 32]))
            heads = int(rng.choice([h for h in (1, 2, 4) if d % h == 0]))
            cfg = ModelConfig(d_model=d, num_heads=heads,
                              ff_dim=2 * d,
                              trailerness_layers=int(rng.integers(1, 3)),
                              context_layers=int(rng.integers(1, 3)),
                              decoder_layers=int(rng.integers(1, 3)),
                              max_len=32)
            model = TrailerModel(cfg, seed=trial)
            n = int(rng.integers(4, 10))
            m = int(rng.integers(2, 7))
            movie = rng.normal(0.0, 0.4, size=(n, d)) + 0.3
            trailer = rng.normal(0.0, 0.4, size=(m, d)) + 0.3

            enc = model.encode_single(movie)
            baseline = model.decode_teacher_forced(enc.memory, trailer).data

            j = int(rng.integers(1, m + 1))  # perturb target rows >= j (1-based)
            tampered = trailer.copy()
            tampered[j - 1:] += rng.normal(0.0, 1.0, size=tampered[j - 1:].shape)
            altered = model.decode_teacher_forced(enc.memory, tampered).data

            # output row i sees inputs [SOS, v_1..v_i]; rows < j are blind
            # to the tampering and must be bit-for-bit identical
            if not np.array_equal(baseline[:j], altered[:j]):
                violations += 1

    announce(3, "PASS" if violations == 0 else "FAIL",
             f"teacher-forced prefixes bitwise invariant at 64-bit on "
             f"100 random configurations ({violations} violations)")
    assert violations == 0


# --------------------------------------------------------------------------
# 4. overfit sanity
# --------------------------------------------------------------------------

def test_criterion_4_overfit_sanity():
    t0 = time.perf_counter()
    data_cfg = GeneratorConfig(d=32, n_range=(40, 60), m_range=(6, 10),
                               clusters=8, noise_sigma=0.0, insert_prob=0.0,
                               seed=11)
    pairs = build_pairs(data_cfg, 8)
    model_cfg = ModelConfig(d_model=32, num_heads=4, ff_dim=64,
                            trailerness_layers=1, context_layers=2,
                            decoder_layers=2, max_len=128)
    train_cfg = TrainConfig(epochs=2000, batch_size=8, lr_peak=3e-3, seed=3)
    result = train(pairs, train_cfg, model_cfg)
    assert len(result.history) <= 2000

    first = result.history[0]["total"]
    last = result.history[-1]["total"]
    loss_ok = last < 0.01 * first

    exact = 0
    for ex in pairs:
        decoded = result.model.generate(ex.movie.embeddings, max_len=64, topk=1)
        gt = align_gt(ex.trailer, ex.movie)
        _, _, f1 = precision_recall_f1(decoded.matched_indices, gt, k=1)
        if f1 == 1.0 and levenshtein(decoded.matched_indices, gt) == 0:
            exact += 1
    runtime = time.perf_counter() - t0

    ok = loss_ok and exact >= 7 and runtime < 600
    announce(4, "PASS" if ok else "FAIL",
             f"loss {first:.1f} -> {last:.4f} ({last / first:.3%} of initial, "
             f"need < 1%); {exact}/8 pairs reproduced exactly (need >= 7); "
             f"{runtime:.0f}s < 600s")
    assert loss_ok, f"final loss {last} not below 1% of initial {first}"
    assert exact >= 7, f"only {exact}/8 pairs reproduced exactly"
    assert runtime < 600


# --------------------------------------------------------------------------
# 5. generalization
# --------------------------------------------------------------------------

def test_criterion_5_generalization(generalization_run):
    train_pairs, test_pairs, report, runtime, _ = generalization_run
    mean_n = float(np.mean([len(ex.movie) for ex in test_pairs]))
    mean_m = float(np.mean([len(ex.trailer) for ex in test_pairs]))
    baseline = random_baseline(int(round(mean_n)), int(round(mean_m)),
                               trials=400, seed=0)

    f1 = report.f1[1]
    bar = 5.0 * baseline.f1[1]
    sld_frac = report.sld / mean_m
    ok = f1 >= bar and sld_frac <= 0.25 and runtime < 3600
    announce(5, "PASS" if ok else "FAIL",
             f"held-out F1@1 {f1:.3f} vs 5x random {bar:.3f}; "
             f"mean SLD {report.sld:.1f} = {sld_frac:.1%} of mean GT length "
             f"{mean_m:.1f} (need <= 25%); {runtime / 60:.1f} min < 60 min")
    assert f1 >= bar, f"F1@1 {f1:.3f} below 5x random baseline {bar:.3f}"
    assert sld_frac <= 0.25, f"SLD {sld_frac:.1%} above 25% of mean GT length"
    assert runtime < 3600


# --------------------------------------------------------------------------
# 6. ablation trends
# --------------------------------------------------------------------------

ABL_DATA = GeneratorConfig(d=32, n_range=(40, 60), m_range=(6, 10), clusters=8,
                           noise_sigma=0.05, insert_prob=0.0, seed=13)
ABL_MODEL = ModelConfig(d_model=32, num_heads=4, ff_dim=64,
                        trailerness_layers=1, context_layers=2,
                        decoder_layers=2, max_len=128,
                        no_repeat=True, feedback="retrieved")


def run_small(model_cfg, seed, pairs, loss_weights=(1.0, 1.0, 1.0)):
    train_pairs, test_pairs = pairs[:120], pairs[120:]
    cfg = TrainConfig(epochs=30, batch_size=8, lr_peak=3e-3, seed=seed,
                      loss_weights=loss_weights)
    result = train(train_pairs, cfg, model_cfg)
    report = evaluate(result.model, test_pairs, k_list=(1,),
                      max_len=suggested_decode_cap(train_pairs))
    return report.f1[1]


@pytest.fixture(scope="module")
def full_model_f1():
    """Held-out F1@1 of ``ABL_MODEL`` with every loss term, seeds 1/2/3:
    criterion 6's "full" runs and criterion 8's unconditioned ones.  An
    unconditioned model reads no condition rows, so it trains and decodes
    on criterion 8's corpus exactly as on criterion 6's."""
    pairs = build_pairs(ABL_DATA, 144)
    return [run_small(ABL_MODEL, seed, pairs) for seed in (1, 2, 3)]


def test_criterion_6_ablation_trends(full_model_f1):
    pairs = build_pairs(ABL_DATA, 144)
    variants = {
        "no_trailerness": (with_overrides(ABL_MODEL,
                                          use_trailerness_encoder=False),
                           (1.0, 1.0, 1.0)),
        "no_context": (with_overrides(ABL_MODEL, use_context_encoder=False),
                       (1.0, 1.0, 1.0)),
        "rec_only": (ABL_MODEL, (0.0, 1.0, 0.0)),
    }
    scores = {"full": full_model_f1}
    for name, (cfg, weights) in variants.items():
        scores[name] = [run_small(cfg, seed, pairs, loss_weights=weights)
                        for seed in (1, 2, 3)]
    means = {name: float(np.mean(f1)) for name, f1 in scores.items()}

    inversions = []
    if not means["full"] >= means["no_trailerness"]:
        inversions.append("full < no_trailerness")
    if not means["no_trailerness"] >= means["no_context"]:
        inversions.append("no_trailerness < no_context")
    if not means["full"] >= means["rec_only"]:
        inversions.append("combined-loss < rec-only")

    def shown(name):  # the mean, then each seed's F1@1, to set a gap against the spread
        return f"{means[name]:.3f} ({'/'.join(f'{v:.3f}' for v in scores[name])})"

    detail = (f"mean F1@1 over 3 seeds (seeds 1/2/3): full {shown('full')}, "
              f"w/o trailerness {shown('no_trailerness')}, "
              f"w/o context {shown('no_context')}, "
              f"rec-only loss {shown('rec_only')}")
    if inversions:
        announce(6, "FLAGGED", detail + "; inversions: " + "; ".join(inversions))
    else:
        announce(6, "PASS", detail)
    # the criterion pins reporting, not direction: inversions are surfaced
    # above but do not fail the build
    assert set(means) == {"full", *variants}


# --------------------------------------------------------------------------
# 7. top-k monotonicity
# --------------------------------------------------------------------------

def test_criterion_7_topk_monotonicity(generalization_run):
    _, _, report, _, _ = generalization_run
    f1 = report.f1
    monotone = f1[10] >= f1[5] >= f1[1]
    strict = f1[10] > f1[1]
    ok = monotone and strict
    announce(7, "PASS" if ok else "FAIL",
             f"F1@1 {f1[1]:.3f} <= F1@5 {f1[5]:.3f} <= F1@10 {f1[10]:.3f}, "
             f"strict somewhere: {strict}")
    assert monotone
    assert strict


def test_cached_decode_matches_reference_on_heldout_pairs(generalization_run):
    # the float32 gate of the cached decode: on the trained model's held-out
    # pairs, one-movie and batched decodes match the uncached reference in
    # every index and within the benchmark's 1e-4 relative bound
    train_pairs, test_pairs, _, _, model = generalization_run
    max_len = suggested_decode_cap(train_pairs)
    movies = [ex.movie.embeddings for ex in test_pairs]
    batched = model.generate_batch(movies, max_len=max_len, topk=10)
    for movie, dec in zip(movies, batched):
        ref = oracles.reference_generate(model, movie, max_len=max_len, topk=10)
        single = model.generate(movie, max_len=max_len, topk=10)
        for got in (single, dec):
            assert got.matched_indices == ref.matched_indices
            assert got.terminated_by == ref.terminated_by
            assert got.topk_indices == ref.topk_indices
            gap = np.max(np.abs(got.all_predictions - ref.all_predictions))
            assert gap <= 1e-4 * np.max(np.abs(ref.all_predictions))


# --------------------------------------------------------------------------
# 8. conditioning trend
# --------------------------------------------------------------------------

def test_criterion_8_conditioning_trend(full_model_f1):
    pairs = build_pairs(ABL_DATA, 144, with_conditions=True)
    conditioned_cfg = with_overrides(ABL_MODEL, condition_mode="encoded")
    plain = full_model_f1
    conditioned = [run_small(conditioned_cfg, seed, pairs) for seed in (1, 2, 3)]
    mean_plain = float(np.mean(plain))
    mean_cond = float(np.mean(conditioned))
    ok = mean_cond > mean_plain

    def shown(mean, scores):  # six decimals: the two means can agree at three
        return f"{mean:.6f} ({'/'.join(f'{v:.6f}' for v in scores)})"

    announce(8, "PASS" if ok else "FAIL",
             f"mean held-out F1@1 over 3 seeds (seeds 1/2/3): conditioned "
             f"{shown(mean_cond, conditioned)} vs unconditioned {shown(mean_plain, plain)}")
    assert ok, (f"conditioning did not help: {mean_cond:.3f} "
                f"vs {mean_plain:.3f}")


# --------------------------------------------------------------------------
# 9. end-to-end determinism
# --------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        run = root / "run"
        ev = root / "eval"
        args = ["--set", "data.d=16", "--set", "data.n_range=10,14",
                "--set", "data.m_range=3,5", "--set", "data.clusters=4",
                "--set", "data.noise_sigma=0.05", "--set", "data.insert_prob=0.0",
                "--set", "data.seed=7"]
        assert cli_main(["gen-data", "--out", str(data), "--count", "8",
                         "--split-counts", "6,1,1"] + args) == 0
        model = ["--set", "model.d_model=16", "--set", "model.num_heads=2",
                 "--set", "model.ff_dim=32",
                 "--set", "model.trailerness_layers=1",
                 "--set", "model.context_layers=1",
                 "--set", "model.decoder_layers=1", "--set", "model.max_len=64"]
        assert cli_main(["train", "--data", str(data), "--out", str(run),
                         "--set", "train.epochs=2",
                         "--set", "train.batch_size=4",
                         "--set", "train.lr_peak=1e-3",
                         "--set", "train.seed=0"] + model) == 0
        assert cli_main(["eval", "--checkpoint", str(run / "model.ckpt"),
                         "--data", str(data), "--split", "test", "--k", "1",
                         "--out", str(ev), "--baseline-trials", "50"]) == 0
        return {
            "corpus.json": (data / "corpus.json").read_bytes(),
            "loss_log.csv": (run / "loss_log.csv").read_bytes(),
            "model.ckpt": (run / "model.ckpt").read_bytes(),
            "eval_test.json": (ev / "eval_test.json").read_bytes(),
            "eval_test.txt": (ev / "eval_test.txt").read_bytes(),
        }

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    diffs = [name for name in first if first[name] != second[name]]
    announce(9, "PASS" if not diffs else "FAIL",
             "gen-data -> train -> eval reruns byte-identical "
             f"({len(first)} artifacts compared"
             + (f"; diffs: {diffs}" if diffs else "") + ")")
    assert not diffs


# --------------------------------------------------------------------------
# 10. random-baseline analytics
# --------------------------------------------------------------------------

def test_criterion_10_random_baseline():
    rng = np.random.default_rng(99)
    worst = 0.0
    failures = 0
    for trial in range(20):
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, max(2, n // 4)))
        report = random_baseline(n, m, trials=400, seed=trial)
        expected = report.flags["expected_precision"]
        sem = report.flags["precision_sem"]
        sigma = (abs(report.precision[1] - expected) / sem if sem > 0
                 else 0.0)
        worst = max(worst, sigma)
        if sigma > 3.0:
            failures += 1
    announce(10, "PASS" if failures == 0 else "FAIL",
             f"Monte-Carlo precision within 3 sigma of m/n on 20 "
             f"configurations (worst deviation {worst:.2f} sigma)")
    assert failures == 0
