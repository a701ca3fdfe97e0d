"""Full-model behavior: framing, encoding shapes, the autoregressive loop,
its batched form, and its consistency with the teacher-forced path."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from trailergen import autodiff as ad
from trailergen import model as model_module
from trailergen.autodiff import ConfigurationError, ShapeError, Tensor
from trailergen.config import RETIRED_MODEL_KEYS, ModelConfig, preset, with_overrides
from trailergen.decoder import (DecodeCache, DecoderStack, detect_eos, match_nearest,
                                match_similarities)
from trailergen.layers import Linear
from trailergen.model import TrailerModel
from trailergen.shots import ShotSequence
from trailergen.synthetic import RETIRED_GENERATOR_KEYS, GeneratorConfig
from trailergen.training import RETIRED_TRAIN_KEYS, TrainConfig


def small_cfg(**kw):
    base = dict(d_model=8, num_heads=2, ff_dim=16, trailerness_layers=1,
                context_layers=1, decoder_layers=1, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


def _movie(n=5, d=8, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, d))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# configuration and construction
# ---------------------------------------------------------------------------

def test_config_validation_catches_bad_shapes():
    with pytest.raises(ConfigurationError):
        ModelConfig(d_model=7).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(d_model=8, num_heads=3).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(eos_rule="sometimes").validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(condition_mode="late").validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(max_len=0).validate()


def test_config_round_trip_through_dict():
    cfg = small_cfg(no_repeat=True, feedback="retrieved")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict({"d_model": 8, "nonsense": 1})


@pytest.mark.parametrize("field, value, message", [
    pytest.param("num_heads", 0, "num_heads must be", id="num_heads-0"),
    pytest.param("num_heads", -4, "num_heads must be", id="num_heads--4"),
    pytest.param("ff_dim", 0, "ff_dim must be", id="ff_dim-0"),
    pytest.param("condition_dim", -1, "'condition_dim' was removed", id="condition_dim--1")])
def test_config_counts_checked_before_use(field, value, message):
    # num_heads=0 used to divide by zero, and -4 to fail in a square root;
    # condition_dim is retired, so a saved config may hold only 0
    with pytest.raises(ConfigurationError, match=message):
        ModelConfig.from_dict({field: value})
    if field not in RETIRED_MODEL_KEYS:
        with pytest.raises(ConfigurationError, match=message):
            ModelConfig(**{field: value}).validate()


def test_config_from_dict_retired_keys_and_types():
    old = {**small_cfg().to_dict(), "position_mode": "sinusoidal",
           "score_fusion": "broadcast", "stop_score_gradient": False,
           "layer_norm_eps": 1e-5, "pre_norm": False, "condition_dim": 0}
    assert ModelConfig.from_dict(old) == small_cfg()
    for key, value in (("position_mode", "learned"), ("score_fusion", "projected"),
                       ("stop_score_gradient", True), ("stop_score_gradient", 0),
                       ("layer_norm_eps", 1e-6), ("pre_norm", True),
                       ("condition_dim", -1), ("condition_dim", 8)):
        with pytest.raises(ConfigurationError, match=key):
            ModelConfig.from_dict({**old, key: value})
    for key, value in (("d_model", "abc"), ("d_model", 8.0), ("no_repeat", "yes"),
                       ("eos_threshold", "high"), ("eos_threshold", float("inf")),
                       ("eos_rule", 1)):
        with pytest.raises(ConfigurationError, match=key):
            ModelConfig.from_dict({key: value})
    assert ModelConfig.from_dict({"eos_threshold": 1}).eos_threshold == 1.0


@pytest.mark.parametrize("cls, retired", [
    (ModelConfig, RETIRED_MODEL_KEYS), (TrainConfig, RETIRED_TRAIN_KEYS),
    (GeneratorConfig, RETIRED_GENERATOR_KEYS)])
def test_retired_keys_are_not_fields(cls, retired):
    # a key both retired and a field could only ever be set to its retired value
    assert not set(retired) & {f.name for f in dataclasses.fields(cls)}


def test_presets_exist_and_validate():
    assert preset("desk").validate().d_model == 64
    assert preset("paper").d_model == 1024
    with pytest.raises(ConfigurationError):
        preset("pocket")


def test_with_overrides_revalidates():
    cfg = preset("desk")
    assert with_overrides(cfg, num_heads=8).num_heads == 8
    with pytest.raises(ConfigurationError):
        with_overrides(cfg, num_heads=7)


def test_same_seed_same_weights_different_seed_different():
    a = TrailerModel(small_cfg(), seed=5)
    b = TrailerModel(small_cfg(), seed=5)
    c = TrailerModel(small_cfg(), seed=6)
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)
    assert any(not np.array_equal(pa[k].data, p.data)
               for k, p in dict(c.named_parameters()).items())


def test_parameter_names_reflect_module_tree():
    model = TrailerModel(small_cfg(), seed=0)
    names = {name for name, _ in model.named_parameters()}
    assert "sos" in names and "eos" in names
    assert any(name.startswith("decoder.layers.0.") for name in names)
    assert any(name.startswith("trailerness.head.") for name in names)


# ---------------------------------------------------------------------------
# framing and encoding
# ---------------------------------------------------------------------------

def test_frame_one_brackets_with_sos_eos():
    model = TrailerModel(small_cfg(), seed=1)
    movie = _movie(n=3)
    framed = model.frame_one(movie)
    assert framed.shape == (5, 8)
    np.testing.assert_array_equal(framed.data[0], model.sos.data)
    np.testing.assert_array_equal(framed.data[-1], model.eos.data)


def test_frame_one_rejects_wrong_width():
    model = TrailerModel(small_cfg(), seed=1)
    with pytest.raises(ShapeError):
        model.frame_one(np.zeros((3, 9)))


@pytest.mark.parametrize("eos_rule", ["margin", "threshold"])
def test_movie_without_shots_rejected(eos_rule):
    # the threshold rule would otherwise decode 0 shots, ended by "pool"
    model = TrailerModel(small_cfg(eos_rule=eos_rule), seed=1)
    with pytest.raises(ShapeError, match="every movie needs at least one shot"):
        model.generate(np.zeros((0, 8)))
    with pytest.raises(ShapeError, match="every movie needs at least one shot"):
        model.encode_batch([_movie(n=3), np.zeros((0, 8))])


def test_positional_rows_capped_by_table():
    model = TrailerModel(small_cfg(max_len=4), seed=1)
    assert model.positional_rows(6).shape == (6, 8)
    with pytest.raises(ConfigurationError):
        model.positional_rows(7)


def test_frame_batch_pads_to_longest():
    model = TrailerModel(small_cfg(), seed=1)
    framed, valid = model.frame_batch([_movie(3), _movie(5, seed=2)])
    assert framed.shape == (2, 7, 8)
    assert valid.sum(axis=1).tolist() == [5, 7]
    assert valid[0].tolist() == [True] * 5 + [False] * 2
    np.testing.assert_array_equal(framed.data[0, 5:], 0.0)


def test_encode_batch_matches_encode_single_on_valid_rows():
    model = TrailerModel(small_cfg(), seed=3)
    movies = [_movie(3, seed=4), _movie(6, seed=5)]
    with ad.precision(np.float64):
        single = [model.encode_single(m).memory.data[0] for m in movies]
        batched = model.encode_batch(movies)
    for b, m in enumerate(movies):
        L = m.shape[0] + 2
        np.testing.assert_allclose(batched.memory.data[b, :L], single[b], atol=1e-9)


def test_accepts_shot_sequences_as_input():
    model = TrailerModel(small_cfg(), seed=3)
    seq = ShotSequence("m", _movie(4, seed=6), "movie")
    enc = model.encode_single(seq)
    assert enc.memory.shape == (1, 6, 8)


# ---------------------------------------------------------------------------
# the autoregressive loop
# ---------------------------------------------------------------------------

def test_generate_rejects_nonpositive_cap():
    model = TrailerModel(small_cfg(), seed=7)
    with pytest.raises(ValueError):
        model.generate(_movie(), max_len=0)


def test_generate_stops_at_cap_when_eos_cannot_fire():
    # threshold above 1 makes the EOS test unsatisfiable
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=7)
    dec = model.generate(_movie(6, seed=8), max_len=4)
    assert dec.terminated_by == "max_len"
    assert dec.embeddings.shape == (4, 8)
    assert len(dec.matched_indices) == 4
    assert all(1 <= i <= 6 for i in dec.matched_indices)


def test_generate_empty_when_eos_fires_immediately():
    # threshold below -1 is satisfied by any prediction
    cfg = small_cfg(eos_rule="threshold", eos_threshold=-2.0)
    model = TrailerModel(cfg, seed=7)
    dec = model.generate(_movie(5, seed=9), max_len=8)
    assert dec.terminated_by == "eos"
    assert dec.embeddings.shape == (0, 8)
    assert dec.matched_indices == []
    assert dec.all_predictions.shape == (1, 8)  # the EOS step itself is recorded


def test_generate_max_len_counts_kept_steps_not_eos_probe():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=10)
    dec = model.generate(_movie(4, seed=11), max_len=1)
    assert dec.embeddings.shape == (1, 8)
    assert dec.all_predictions.shape == (1, 8)


def test_generate_no_repeat_exhausts_pool():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1, no_repeat=True)
    model = TrailerModel(cfg, seed=12)
    n = 5
    dec = model.generate(_movie(n, seed=13), max_len=10)
    assert sorted(dec.matched_indices) == list(range(1, n + 1))


def test_generate_topk_fields_align():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=14)
    dec = model.generate(_movie(6, seed=15), max_len=3, topk=4)
    assert len(dec.topk_indices) == 3
    for ranked, sims in zip(dec.topk_indices, dec.topk_similarities):
        assert len(ranked) == 4 and len(sims) == 4
        assert ranked[0] == dec.matched_indices[dec.topk_indices.index(ranked)]
        assert sorted(sims, reverse=True) == sims


def test_generate_topk_clipped_to_movie_size():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=16)
    dec = model.generate(_movie(3, seed=17), max_len=2, topk=10)
    assert all(len(r) == 3 for r in dec.topk_indices)


def test_generate_consistent_with_full_prefix_rerun():
    # the loop's incremental predictions must match one full causal pass
    # (to rounding; bitwise equality is only contracted at 64-bit)
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=18)
    movie = _movie(5, seed=19)
    dec = model.generate(movie, max_len=4)
    with ad.no_grad():
        enc = model.encode_single(movie)
        rows = np.vstack([model.sos.data[None, :], dec.embeddings[:-1]])
        x = ad.add(Tensor(rows[None]), model.positional_rows(rows.shape[0]))
        out = model.decoder(x, enc.memory, ad.causal_mask(rows.shape[0]), None)
    np.testing.assert_allclose(np.asarray(out.data[0]), dec.embeddings, atol=1e-5)


def test_generate_feedback_mode_changes_later_steps():
    movie = _movie(6, seed=20)
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=21)
    dec_pred = model.generate(movie, max_len=3)
    model.cfg = dataclasses.replace(model.cfg, feedback="retrieved")
    dec_retr = model.generate(movie, max_len=3)
    # step 1 shares the SOS-only prefix in both modes
    np.testing.assert_array_equal(dec_pred.embeddings[0], dec_retr.embeddings[0])
    assert not np.array_equal(dec_pred.embeddings[1:], dec_retr.embeddings[1:])


def test_teacher_forced_predictions_shape():
    model = TrailerModel(small_cfg(), seed=22)
    movie = _movie(7, seed=23)
    trailer = _movie(3, seed=24)
    with ad.no_grad():
        enc = model.encode_single(movie)
        preds = model.decode_teacher_forced(enc.memory, trailer)
    assert preds.shape == (4, 8)  # m rows plus the EOS prediction


def test_teacher_forced_needs_nonempty_target():
    model = TrailerModel(small_cfg(), seed=22)
    with ad.no_grad():
        enc = model.encode_single(_movie(4, seed=25))
        with pytest.raises(ShapeError):
            model.decode_teacher_forced(enc.memory, np.zeros((0, 8)))


def test_batched_teacher_forcing_matches_unbatched():
    model = TrailerModel(small_cfg(), seed=26)
    movies = [_movie(4, seed=27), _movie(6, seed=28)]
    trailers = [_movie(2, seed=29), _movie(3, seed=30)]
    with ad.precision(np.float64):
        enc = model.encode_batch(movies)
        preds, targets, row_valid = model.decode_teacher_forced_batch(
            enc.memory, enc.valid, trailers)
        singles = []
        for m, t in zip(movies, trailers):
            e = model.encode_single(m)
            singles.append(model.decode_teacher_forced(e.memory, t).data)
    assert preds.shape[0] == 2
    for b, t in enumerate(trailers):
        rows = t.shape[0] + 1
        assert row_valid[b, :rows].all()
        np.testing.assert_allclose(preds.data[b, :rows], singles[b], atol=1e-9)
        np.testing.assert_allclose(targets.data[b, :t.shape[0]], t, atol=1e-12)
        np.testing.assert_array_equal(targets.data[b, t.shape[0]], model.eos.data)


# ---------------------------------------------------------------------------
# the batched loop against the one-movie reference loop
# ---------------------------------------------------------------------------

def _relative_gap(got, ref) -> float:
    """The benchmark's measure: largest absolute difference over the largest magnitude."""
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


def _assert_same_decode(got, ref, atol=None, rel=None):
    """Identical indices, stop reason and top-k; predictions and similarities
    equal, within ``atol``, or (float32) within ``rel`` of the largest magnitude."""
    assert got.matched_indices == ref.matched_indices
    assert got.terminated_by == ref.terminated_by
    assert got.topk_indices == ref.topk_indices
    if rel is not None:
        assert got.all_predictions.dtype == ref.all_predictions.dtype
        assert _relative_gap(got.all_predictions, ref.all_predictions) <= rel
        for a, b in zip(got.topk_similarities, ref.topk_similarities):
            np.testing.assert_allclose(a, b, rtol=0, atol=rel)
    elif atol is None:
        np.testing.assert_array_equal(got.all_predictions, ref.all_predictions)
        np.testing.assert_array_equal(got.embeddings, ref.embeddings)
        assert got.topk_similarities == ref.topk_similarities
    else:
        np.testing.assert_allclose(got.all_predictions, ref.all_predictions, rtol=0, atol=atol)
        np.testing.assert_allclose(got.embeddings, ref.embeddings, rtol=0, atol=atol)
        for a, b in zip(got.topk_similarities, ref.topk_similarities):
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)


def test_generate_batch_mixed_lengths_match_reference_float64():
    # movies of 4-12 shots with conditions of 0-3 rows pad the memories to
    # different lengths; margin EOS, no-repeat and retrieved feedback each
    # end or steer some sequences while the others keep decoding
    max_len = 8
    with ad.precision(np.float64):
        cfg = small_cfg(d_model=16, ff_dim=32, decoder_layers=2, condition_mode="encoded",
                        feedback="retrieved", no_repeat=True)
        model = TrailerModel(cfg, seed=2)
        rng = np.random.default_rng(8)
        movies = [rng.normal(size=(n, 16)) for n in rng.integers(4, 13, size=10)]
        conditions = [rng.normal(size=(c, 16)) for c in rng.integers(0, 4, size=10)]
        got = model.generate_batch(movies, conditions, max_len=max_len, topk=3)
        refs = [oracles.reference_generate(model, m, c, max_len=max_len, topk=3)
                for m, c in zip(movies, conditions)]
    assert len({m.shape[0] + c.shape[0] for m, c in zip(movies, conditions)}) > 1
    kept = [len(r.matched_indices) for r in refs]
    eos_steps = {k for k, r in zip(kept, refs) if r.terminated_by == "eos"}
    assert len(eos_steps) >= 2                       # EOS fires at different steps
    assert max_len in kept                           # some hit the cap
    assert any(r.terminated_by == "pool" and k == m.shape[0] < max_len
               for k, r, m in zip(kept, refs, movies))  # a no-repeat pool runs out
    for g, r in zip(got, refs):
        _assert_same_decode(g, r, atol=1e-12)


# The cached decode sums float32 products in another order than the
# uncached reference, so float32 decodes agree in every index and within the
# benchmark's 1e-4 relative bound on the predictions, not bit for bit.
F32_REL = 1e-4


def test_generate_batch_equal_lengths_float32_match_reference():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=31)
    movies = [_movie(7, seed=40 + i) for i in range(5)]
    got = model.generate_batch(movies, max_len=6, topk=3)
    for g, m in zip(got, movies):
        assert g.all_predictions.dtype == np.float32
        _assert_same_decode(g, oracles.reference_generate(model, m, max_len=6, topk=3),
                            rel=F32_REL)
        # equal-length movies decode bit for bit as they would alone
        _assert_same_decode(g, model.generate(m, max_len=6, topk=3))


def test_generate_is_a_batch_of_one_float32():
    model = TrailerModel(small_cfg(), seed=32)
    movie = _movie(9, seed=33)
    ref = oracles.reference_generate(model, movie, max_len=12, topk=2)
    single = model.generate(movie, max_len=12, topk=2)
    _assert_same_decode(single, ref, rel=F32_REL)
    batched = model.generate_batch([movie], max_len=12, topk=2)[0]
    np.testing.assert_array_equal(batched.all_predictions, single.all_predictions)
    assert batched.topk_similarities == single.topk_similarities


def _replay_greedy_steps(model, movie, predictions, k):
    """The stop reason, matches, top-k lists and similarities that per-step
    calls of the public retrieval functions give on a decode's predictions."""
    cfg, n = model.cfg, movie.shape[0]
    chosen, matched, ranks, sims, stop = set(), [], [], [], "max_len"
    for pred in predictions:
        if detect_eos(pred, model.eos.data, movie, rule=cfg.eos_rule,
                      threshold=cfg.eos_threshold):
            stop = "eos"
            break
        pool = n - len(chosen) if cfg.no_repeat else n
        if pool < 1:
            stop = "pool"
            break
        ranked = match_nearest(pred, movie, k=min(k, pool),
                               exclude=chosen if cfg.no_repeat else None)
        matched.append(ranked[0])
        ranks.append(ranked)
        sims.append(match_similarities(pred, movie, ranked))
        chosen.add(ranked[0])
    return stop, matched, ranks, sims


@pytest.mark.parametrize("no_repeat", [False, True])
@pytest.mark.parametrize("eos_rule", ["margin", "threshold"])
def test_generate_batch_reuses_one_cosine_row_per_step(eos_rule, no_repeat):
    # each step ranks, scores and tests EOS from one cosine row; the results
    # must be what separate calls of the public functions give
    cfg = small_cfg(d_model=16, ff_dim=32, decoder_layers=2, eos_rule=eos_rule,
                    eos_threshold=0.3, no_repeat=no_repeat)
    model = TrailerModel(cfg, seed=1)  # margin EOS ends one decode at step 4
    rng = np.random.default_rng(8)
    movies = [rng.normal(size=(n, 16)) for n in rng.integers(4, 13, size=10)]
    movies.append(np.repeat(movies[0][:3], 2, axis=0))  # every shot has an equal twin
    decoded = model.generate_batch(movies, max_len=8, topk=3)
    for movie, dec in zip(movies, decoded):
        stop, matched, ranks, sims = _replay_greedy_steps(model, movie,
                                                          dec.all_predictions, 3)
        assert (dec.terminated_by, dec.matched_indices) == (stop, matched)
        assert dec.topk_indices == ranks
        assert dec.topk_similarities == sims
    # the first step's best shot ties with its twin, and the tie goes to the lower index
    first_sims, first_ranked = decoded[-1].topk_similarities[0], decoded[-1].topk_indices[0]
    assert first_sims[0] == first_sims[1]
    assert first_ranked[0] % 2 == 1 and first_ranked[1] == first_ranked[0] + 1
    if eos_rule == "margin":
        assert any(d.terminated_by == "eos" and d.matched_indices for d in decoded)


def test_generate_batch_rejects_bad_input():
    model = TrailerModel(small_cfg(condition_mode="encoded"), seed=34)
    with pytest.raises(ValueError):
        model.generate_batch([])
    with pytest.raises(ShapeError):
        model.generate_batch([_movie(4), _movie(5)], conditions=[_movie(2)])
    with pytest.raises(ShapeError):
        model.generate_batch([_movie(4), _movie(5, d=6)], conditions=[_movie(2)] * 2)
    with pytest.raises(ValueError):
        model.generate_batch([_movie(4)], max_len=0)


def test_generate_batch_groups_stay_within_byte_budget(monkeypatch):
    # the budget counts each group's padded memory and the cross-attention
    # K/V the cache holds for it: 1 + 2 * decoder_layers copies
    rng = np.random.default_rng(36)
    movies = [_movie(int(n), seed=100 + i) for i, n in enumerate(rng.integers(3, 15, size=200))]
    # about a dozen padded float64 memories and their two layers' K/V per group
    budget = 5 * 12 * 16 * 8 * 8
    monkeypatch.setattr(model_module, "_GROUP_BYTES", budget)
    group_bytes, batch_sizes = [], []
    original = DecoderStack.__call__

    def recording(self, x, memory, self_mask, cross_mask, cache):
        first = cache.length == 0
        out = original(self, x, memory, self_mask, cross_mask, cache)
        if first:
            cross = cache.cross_keys + cache.cross_values
            group_bytes.append(memory.data.nbytes + sum(a.nbytes for a in cross))
            batch_sizes.append(memory.shape[0])
        return out

    with ad.precision(np.float64):
        model = TrailerModel(small_cfg(decoder_layers=2, eos_rule="threshold",
                                       eos_threshold=1.1), seed=35)
        monkeypatch.setattr(DecoderStack, "__call__", recording)
        got = model.generate_batch(movies, max_len=3)
        monkeypatch.setattr(DecoderStack, "__call__", original)
        refs = [oracles.reference_generate(model, m, max_len=3) for m in movies]
    assert max(group_bytes) <= budget
    assert batch_sizes.count(max(batch_sizes)) > 1 and max(batch_sizes) > 1
    for g, r in zip(got, refs):
        _assert_same_decode(g, r, atol=1e-12)


# ---------------------------------------------------------------------------
# the cached decode step
# ---------------------------------------------------------------------------

def test_cached_decode_matches_reference_on_criterion_3_configurations():
    # criterion 3's 100 random configurations, decoded by the cached loop and
    # by the uncached reference at float64.  The draws criterion 3 makes for
    # its trailer tampering are made too, so trial i is its trial i; the trial
    # number adds retrieved feedback, no-repeat, conditions and the threshold
    # rule in turn, with condition rows from a separate stream.
    rng = np.random.default_rng(7)
    extra = np.random.default_rng(70)
    steps = []
    with ad.precision(np.float64):
        for trial in range(100):
            d = int(rng.choice([8, 16, 32]))
            heads = int(rng.choice([h for h in (1, 2, 4) if d % h == 0]))
            depths = [int(rng.integers(1, 3)) for _ in range(3)]
            n = int(rng.integers(4, 10))
            m = int(rng.integers(2, 7))
            movie = rng.normal(0.0, 0.4, size=(n, d)) + 0.3
            rng.normal(0.0, 0.4, size=(m, d))             # criterion 3's trailer
            j = int(rng.integers(1, m + 1))
            rng.normal(0.0, 1.0, size=(m - j + 1, d))     # and its tampering
            mode = ("none", "encoded", "encoded")[trial % 3]
            cfg = ModelConfig(d_model=d, num_heads=heads, ff_dim=2 * d,
                              trailerness_layers=depths[0], context_layers=depths[1],
                              decoder_layers=depths[2], max_len=32,
                              feedback="retrieved" if trial % 4 >= 2 else "predicted",
                              no_repeat=trial % 8 >= 4, condition_mode=mode,
                              eos_rule="threshold" if trial % 5 < 3 else "margin",
                              eos_threshold=1.1)
            model = TrailerModel(cfg, seed=trial)
            condition = None
            if mode != "none":
                condition = extra.normal(0.0, 0.4, size=(int(extra.integers(1, 4)), d))
            got = model.generate(movie, condition, max_len=8, topk=3)
            ref = oracles.reference_generate(model, movie, condition, max_len=8, topk=3)
            _assert_same_decode(got, ref, atol=1e-12)
            steps.append(len(got.all_predictions))
    assert min(steps) == 1 and max(steps) == 8 and sum(steps) > 300


def test_cached_decode_feeds_one_row_per_sequence_per_step(monkeypatch):
    # no-repeat pools of 2 and 3 shots run out at steps 3 and 4, the 6-shot
    # movie hits the cap at step 5
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1, no_repeat=True)
    model = TrailerModel(cfg, seed=37)
    movies = [_movie(n, seed=50 + n) for n in (2, 6, 3)]
    calls = []
    original = DecoderStack.__call__

    def recording(self, x, memory, *rest):
        calls.append((x.shape, np.array(memory.data)))
        return original(self, x, memory, *rest)

    monkeypatch.setattr(DecoderStack, "__call__", recording)
    got = model.generate_batch(movies, max_len=5)
    monkeypatch.setattr(DecoderStack, "__call__", original)
    steps = [len(g.all_predictions) for g in got]
    assert steps == [3, 5, 4]
    assert len(calls) == max(steps)                      # one decoder call per step
    with ad.no_grad():
        memories = [model.encode_single(m).memory.data[0] for m in movies]
    for step, (shape, memory) in enumerate(calls, start=1):
        active = [i for i, s in enumerate(steps) if s >= step]
        assert shape == (len(active), 1, cfg.d_model)    # one new row per active sequence
        width = max(memories[i].shape[0] for i in active)
        assert memory.shape == (len(active), width, cfg.d_model)
        for row, i in zip(memory, active):
            rows = memories[i].shape[0]
            np.testing.assert_array_equal(row[:rows], memories[i])
            assert not row[rows:].any()


def test_cross_attention_projects_memory_once_per_group(monkeypatch):
    # every layer's cross-attention wk and wv run once per decode group,
    # however many steps the group takes
    movies = [_movie(n, seed=70 + n) for n in (4, 7, 5, 6, 9)]
    cfg = small_cfg(decoder_layers=2, eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=45)
    cross = {id(lin): (i, name) for i, layer in enumerate(model.decoder.layers)
             for name, lin in (("wk", layer.cross_attn.wk), ("wv", layer.cross_attn.wv))}
    calls, groups = [], []
    original_linear, original_stack = Linear.__call__, DecoderStack.__call__

    def counting(self, x):
        if id(self) in cross:
            calls.append(cross[id(self)])
        return original_linear(self, x)

    def stack(self, x, memory, self_mask, cross_mask, cache):
        groups.append(cache.length == 0)
        return original_stack(self, x, memory, self_mask, cross_mask, cache)

    # two float32 memories of up to 11 rows and their K/V fit a group: the
    # five movies (6, 9, 7, 8 and 11 rows) make groups of two, two and one
    monkeypatch.setattr(model_module, "_GROUP_BYTES", 5 * 2 * 11 * 8 * 4)
    monkeypatch.setattr(Linear, "__call__", counting)
    monkeypatch.setattr(DecoderStack, "__call__", stack)
    got = model.generate_batch(movies, max_len=6)
    assert [len(g.all_predictions) for g in got] == [6] * 5
    assert sum(groups) == 3 and len(groups) == 3 * 6   # three groups of six steps
    assert sorted(calls) == sorted([(i, name) for i in range(2) for name in ("wk", "wv")] * 3)


def test_cached_decode_cuts_cross_cache_when_longest_memory_finishes_first(monkeypatch):
    # the first movie has the longest memory (2 shots, 9 condition rows) and
    # the smallest no-repeat pool, so it leaves first; the remaining steps
    # attend over the cut cache and still match the uncached reference
    cfg = small_cfg(decoder_layers=2, eos_rule="threshold", eos_threshold=1.1,
                    no_repeat=True, condition_mode="encoded")
    rng = np.random.default_rng(46)
    movies = [_movie(n, seed=80 + n) for n in (2, 6, 4)]
    conditions = [rng.normal(size=(c, 8)) for c in (9, 1, 2)]
    widths = [m.shape[0] + 2 + c.shape[0] for m, c in zip(movies, conditions)]
    assert widths == [13, 9, 8]
    steps = []
    original = DecoderStack.__call__

    def recording(self, x, memory, self_mask, cross_mask, cache):
        out = original(self, x, memory, self_mask, cross_mask, cache)
        steps.append([(k.shape, v.shape) for k, v in zip(cache.cross_keys, cache.cross_values)])
        return out

    with ad.precision(np.float64):
        model = TrailerModel(cfg, seed=47)
        monkeypatch.setattr(DecoderStack, "__call__", recording)
        got = model.generate_batch(movies, conditions, max_len=5, topk=2)
        monkeypatch.setattr(DecoderStack, "__call__", original)
        refs = [oracles.reference_generate(model, m, c, max_len=5, topk=2)
                for m, c in zip(movies, conditions)]
    assert [len(g.all_predictions) for g in got] == [3, 5, 5]
    expected = [(3, 13)] * 3 + [(2, 9)] * 2
    assert [{k[:2] for kv in step for k in kv} for step in steps] == [{e} for e in expected]
    for g, r in zip(got, refs):
        _assert_same_decode(g, r, atol=1e-12)


def test_decode_group_holds_its_cached_bytes_and_little_more():
    # eight 150-shot desk movies share one group.  A decode that stops at
    # step 1 peaks at the padded memory, every layer's cross-attention K/V
    # and self-attention rows, plus at most five more [B, L, d] arrays: the
    # per-movie memories and one cross-attention's projection and head-split
    # temporaries
    cfg = with_overrides(preset("desk"), eos_rule="threshold", eos_threshold=-2.0)
    model = TrailerModel(cfg, seed=48)
    movies = [_movie(150, d=cfg.d_model, seed=90 + i) for i in range(8)]
    max_len = 8
    one = len(movies) * 152 * cfg.d_model * 4                 # one float32 [B, L, d] array
    cached = (1 + 2 * cfg.decoder_layers) * one
    assert cached <= model_module._GROUP_BYTES                 # one group
    self_kv = 2 * cfg.decoder_layers * len(movies) * max_len * cfg.d_model * 4
    tracemalloc.start()
    try:
        got = model.generate_batch(movies, max_len=max_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(g.terminated_by, len(g.all_predictions)) for g in got] == [("eos", 1)] * 8
    assert cached <= peak <= cached + self_kv + 5 * one


def test_cache_refuses_gradients_multi_row_steps_and_overflow():
    model = TrailerModel(small_cfg(), seed=38)
    memory = Tensor(np.ones((2, 5, 8)))
    x = Tensor(np.ones((2, 1, 8)))
    cache = DecodeCache(len(model.decoder.layers), 3)
    with pytest.raises(ConfigurationError):
        model.decoder(x, memory, None, None, cache)      # gradients are on
    with ad.no_grad():
        with pytest.raises(ShapeError):
            model.decoder(Tensor(np.ones((2, 2, 8))), memory, None, None, cache)
        assert cache.length == 0
        for _ in range(3):
            model.decoder(x, memory, None, None, cache)
        assert cache.length == 3
        with pytest.raises(ConfigurationError):
            model.decoder(x, memory, None, None, cache)


def test_kept_embeddings_are_a_view_of_all_predictions():
    cfg = small_cfg(eos_rule="threshold", eos_threshold=1.1)
    dec = TrailerModel(cfg, seed=40).generate(_movie(6, seed=41), max_len=4)
    assert np.shares_memory(dec.embeddings, dec.all_predictions)
    np.testing.assert_array_equal(dec.embeddings, dec.all_predictions[:4])


def test_generate_cap_beyond_position_table_allocates_by_decoded_rows():
    # a cap of 1e8 steps sizes no buffer (a 1e8-row buffer would be 95 GiB
    # at the desk preset, the whole position table 514 rows): a decode that
    # stops at step 1 holds the cache's first rows only
    cfg = with_overrides(preset("desk"), eos_rule="threshold", eos_threshold=-2.0)
    model = TrailerModel(cfg, seed=39)
    movies = [_movie(10, d=cfg.d_model, seed=60 + i) for i in range(4)]
    tracemalloc.start()
    try:
        got = model.generate_batch(movies, max_len=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(g.terminated_by, len(g.all_predictions)) for g in got] == [("eos", 1)] * 4
    kv_bytes = 2 * cfg.decoder_layers * len(movies) * DecodeCache.FIRST_ROWS * cfg.d_model * 4
    assert DecodeCache.FIRST_ROWS < cfg.max_len + 2
    assert peak <= kv_bytes + (1 << 20)


def test_cache_buffers_double_up_to_capacity_and_keep_their_rows():
    rng = np.random.default_rng(44)
    first = DecodeCache.FIRST_ROWS
    cache = DecodeCache(2, 2 * first + 5)
    written, sizes = [], []
    for t in range(cache.capacity):
        k, v = rng.normal(size=(2, 3, 1, 4))
        for layer in range(2):
            keys, values = cache.extend(layer, k, v)
            assert keys.shape == values.shape == (3, t + 1, 4)
        cache.length += 1
        written.append((k[:, 0], v[:, 0]))
        sizes.append(cache.keys[0].shape[1])
    assert sorted(set(sizes)) == [first, 2 * first, 2 * first + 5]
    assert sizes.index(2 * first) == first            # grown on the first row past a full buffer
    for layer in range(2):
        np.testing.assert_array_equal(cache.keys[layer], np.stack([k for k, _ in written], 1))
        np.testing.assert_array_equal(cache.values[layer], np.stack([v for _, v in written], 1))
    with pytest.raises(ConfigurationError):
        cache.extend(0, k, v)


def test_generate_past_position_table_still_raises():
    cfg = small_cfg(max_len=4, eos_rule="threshold", eos_threshold=1.1)
    model = TrailerModel(cfg, seed=42)
    movie = _movie(3, seed=43)
    assert len(model.generate(movie, max_len=6).matched_indices) == 6
    with pytest.raises(ConfigurationError):
        model.generate(movie, max_len=7)
