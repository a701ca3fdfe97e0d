"""Synthetic corpus: determinism, solvability guarantees, trailer order,
dataset files, and split handling."""

import json

import numpy as np
import pytest

from trailergen.autodiff import ConfigurationError
from trailergen.shots import INSERT_INDEX, cosine_similarity
from trailergen.synthetic import (GeneratorConfig, appeal_of, condition_for_pair,
                                  corpus_constants, dataset_fingerprint,
                                  default_splits, generate_dataset, generate_pair,
                                  load_dataset)


def clean_cfg(**kw):
    """Small, noise-free, insert-free config where trailers copy movie shots."""
    base = dict(d=16, n_range=(20, 30), m_range=(4, 6), clusters=4,
                noise_sigma=0.0, insert_prob=0.0, seed=7)
    base.update(kw)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_generator_config_validation():
    with pytest.raises(ConfigurationError):
        GeneratorConfig(d=15).validate()
    with pytest.raises(ConfigurationError):
        GeneratorConfig(n_range=(10, 5)).validate()
    with pytest.raises(ConfigurationError):
        GeneratorConfig(n_range=(10, 20), m_range=(12, 15)).validate()  # m_hi > n_lo
    with pytest.raises(ConfigurationError):
        GeneratorConfig(insert_prob=0.5).validate()
    with pytest.raises(ConfigurationError):
        GeneratorConfig(noise_sigma=-0.1).validate()


def test_generator_config_dict_round_trip():
    cfg = clean_cfg()
    assert GeneratorConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigurationError):
        GeneratorConfig.from_dict({"d": 8, "mystery": 1})


def test_retired_order_rule_loads_only_at_appeal_sorted():
    # a config written before the key was removed may carry it
    old = {**clean_cfg().to_dict(), "order_rule": "appeal_sorted"}
    assert GeneratorConfig.from_dict(old) == clean_cfg()
    with pytest.raises(ConfigurationError, match="order_rule"):
        GeneratorConfig.from_dict({**old, "order_rule": "cluster_interleave"})


# ---------------------------------------------------------------------------
# pair generation
# ---------------------------------------------------------------------------

def test_pair_is_deterministic():
    cfg = clean_cfg()
    m1, t1 = generate_pair(cfg, 3)
    m2, t2 = generate_pair(cfg, 3)
    np.testing.assert_array_equal(m1.embeddings, m2.embeddings)
    np.testing.assert_array_equal(t1.embeddings, t2.embeddings)
    np.testing.assert_array_equal(t1.source_indices, t2.source_indices)


def test_different_pair_seeds_differ():
    cfg = clean_cfg()
    m1, _ = generate_pair(cfg, 0)
    m2, _ = generate_pair(cfg, 1)
    assert m1.embeddings.shape != m2.embeddings.shape or \
        not np.array_equal(m1.embeddings, m2.embeddings)


def test_lengths_respect_configured_ranges():
    cfg = clean_cfg()
    for seed in range(30):
        movie, trailer = generate_pair(cfg, seed)
        assert 20 <= len(movie) <= 30
        assert 4 <= len(trailer) <= 6


def test_norms_inside_promised_band():
    cfg = clean_cfg(noise_sigma=0.1, insert_prob=0.3)
    for seed in range(10):
        movie, trailer = generate_pair(cfg, seed)
        for seq in (movie, trailer):
            norms = np.linalg.norm(seq.embeddings, axis=1)
            assert np.all(norms >= 0.5) and np.all(norms <= 2.0)


def test_noise_free_trailer_copies_movie_shots_exactly():
    cfg = clean_cfg()
    movie, trailer = generate_pair(cfg, 11)
    assert np.all(trailer.source_indices >= 1)
    np.testing.assert_array_equal(
        trailer.embeddings, movie.embeddings[trailer.source_indices - 1])


def test_selection_is_top_m_by_recomputed_appeal():
    cfg = clean_cfg()
    movie, trailer = generate_pair(cfg, 5)
    appeal = appeal_of(movie.embeddings, cfg)
    m = len(trailer)
    want = set(np.argsort(-appeal)[:m] + 1)
    assert set(int(i) for i in trailer.source_indices) == want


def test_appeal_sorted_order_is_descending():
    cfg = clean_cfg()
    for seed in (0, 4, 9):
        movie, trailer = generate_pair(cfg, seed)
        appeal = appeal_of(movie.embeddings, cfg)
        got = appeal[trailer.source_indices - 1]
        assert np.all(np.diff(got) <= 1e-12)


def test_ground_truth_scores_one_at_sources_when_noise_free():
    cfg = clean_cfg()
    movie, trailer = generate_pair(cfg, 6)
    from trailergen.shots import trailerness_ground_truth
    gt = trailerness_ground_truth(movie.embeddings, trailer.embeddings)
    for idx in trailer.source_indices:
        assert gt[int(idx)] == pytest.approx(1.0, abs=1e-12)


def test_inserts_marked_and_out_of_movie():
    cfg = clean_cfg(insert_prob=0.45, m_range=(6, 6), n_range=(20, 30))
    found = False
    for seed in range(20):
        movie, trailer = generate_pair(cfg, seed)
        for j, src in enumerate(trailer.source_indices):
            if src != INSERT_INDEX:
                continue
            found = True
            sims = [cosine_similarity(trailer.embeddings[j], movie.embeddings[i])
                    for i in range(len(movie))]
            assert max(sims) < 0.999  # inserts are not copies of movie shots
    assert found


def test_insert_prob_zero_never_inserts():
    cfg = clean_cfg(noise_sigma=0.05)
    for seed in range(20):
        _, trailer = generate_pair(cfg, seed)
        assert np.all(trailer.source_indices != INSERT_INDEX)


def test_appeal_is_a_function_of_embeddings_alone():
    cfg = clean_cfg()
    movie, _ = generate_pair(cfg, 8)
    a1 = appeal_of(movie.embeddings, cfg)
    a2 = appeal_of(movie.embeddings.copy(), cfg)
    np.testing.assert_array_equal(a1, a2)
    # permuting rows permutes appeal (to rounding; gemm results are layout-sensitive)
    perm = np.random.default_rng(0).permutation(len(movie))
    np.testing.assert_allclose(appeal_of(movie.embeddings[perm], cfg), a1[perm],
                               atol=1e-9)


def test_corpus_constants_fixed_by_seed():
    c1 = corpus_constants(clean_cfg())
    c2 = corpus_constants(clean_cfg())
    c3 = corpus_constants(clean_cfg(seed=8))
    for a, b in zip(c1, c2):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(c1[1], c3[1])


def test_condition_summarizes_sources_not_answers():
    cfg = clean_cfg()
    movie, trailer = generate_pair(cfg, 9)
    cond = condition_for_pair(cfg, 9, movie, trailer)
    assert cond.role == "condition"
    assert cond.embeddings.shape == (1, cfg.d)
    mean_src = movie.embeddings[trailer.source_indices - 1].mean(axis=0)
    assert cosine_similarity(cond.embeddings[0], mean_src) > 0.9


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def test_default_splits_partition_and_tail():
    splits = default_splits(20)
    assert splits["train"] == list(range(16))
    assert splits["val"] == [16, 17]
    assert splits["test"] == [18, 19]
    all_ids = sorted(i for ids in splits.values() for i in ids)
    assert all_ids == list(range(20))


def test_default_splits_tiny_counts():
    assert default_splits(2)["train"] == [0, 1]
    assert default_splits(3)["test"] == [2]


def test_generate_dataset_round_trip(tmp_path):
    cfg = clean_cfg()
    manifest = generate_dataset(cfg, 6, tmp_path)
    assert manifest["count"] == 6
    examples, loaded = load_dataset(tmp_path)
    assert len(examples) == 6
    assert loaded["config"]["d"] == 16
    ex = examples[0]
    movie, trailer = generate_pair(cfg, cfg.seed + 0)
    np.testing.assert_allclose(ex.movie.embeddings, movie.embeddings, atol=1e-6)
    np.testing.assert_array_equal(ex.trailer.source_indices, trailer.source_indices)
    assert ex.condition is not None


def test_generate_dataset_split_loading(tmp_path):
    generate_dataset(clean_cfg(), 10, tmp_path)
    train, _ = load_dataset(tmp_path, split="train")
    val, _ = load_dataset(tmp_path, split="val")
    test, _ = load_dataset(tmp_path, split="test")
    assert len(train) == 8 and len(val) == 1 and len(test) == 1
    ids = {e.pair_id for e in train} | {e.pair_id for e in val} | {e.pair_id for e in test}
    assert len(ids) == 10


def test_load_dataset_unknown_split_raises(tmp_path):
    generate_dataset(clean_cfg(), 3, tmp_path)
    with pytest.raises(KeyError):
        load_dataset(tmp_path, split="holdout")


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_generate_dataset_rejects_bad_splits(tmp_path):
    with pytest.raises(ConfigurationError):
        generate_dataset(clean_cfg(), 4, tmp_path, splits={"train": [0, 1], "test": [3]})
    with pytest.raises(ConfigurationError):
        generate_dataset(clean_cfg(), 0, tmp_path)


def test_regeneration_is_byte_identical(tmp_path):
    cfg = clean_cfg(insert_prob=0.2, noise_sigma=0.02)
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(cfg, 5, a)
    generate_dataset(cfg, 5, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert dataset_fingerprint(a) == dataset_fingerprint(b)


def test_fingerprint_sensitive_to_content(tmp_path):
    generate_dataset(clean_cfg(), 4, tmp_path)
    before = dataset_fingerprint(tmp_path)
    blob = sorted(tmp_path.glob("*.f32"))[0]
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0x01
    blob.write_bytes(bytes(raw))
    assert dataset_fingerprint(tmp_path) != before


def test_without_conditions_no_condition_files(tmp_path):
    generate_dataset(clean_cfg(), 3, tmp_path, include_conditions=False)
    assert not list(tmp_path.glob("*.condition.json"))
    examples, _ = load_dataset(tmp_path)
    assert all(e.condition is None for e in examples)


def test_manifest_is_compact_sorted_json(tmp_path):
    generate_dataset(clean_cfg(), 3, tmp_path)
    text = (tmp_path / "corpus.json").read_text()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"


def test_length_ratio_statistic():
    # trailers stay an order of magnitude shorter than movies
    cfg = GeneratorConfig(seed=1)
    ratios = []
    for seed in range(10):
        movie, trailer = generate_pair(cfg, seed)
        ratios.append(len(trailer) / len(movie))
    assert 0.05 <= float(np.mean(ratios)) <= 0.2
