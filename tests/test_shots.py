"""Shot-sequence layer: cosine utilities, trailerness targets, the positional
table, validation rules, and the on-disk sequence format."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trailergen import shots
from trailergen.autodiff import ConfigurationError, DomainError, ShapeError
from trailergen.shots import (INSERT_INDEX, ShotSequence, cosine_similarity,
                              positional_encoding, read_sequence, similarity_matrix,
                              trailerness_ground_truth, write_sequence)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def test_cosine_parallel_is_one():
    assert cosine_similarity([2.0, 0.0], [5.0, 0.0]) == 1.0


def test_cosine_antiparallel_is_minus_one():
    assert cosine_similarity([1.0, 1.0], [-3.0, -3.0]) == -1.0


def test_cosine_orthogonal_is_zero():
    assert cosine_similarity([1.0, 0.0], [0.0, 7.0]) == 0.0


def test_cosine_scale_invariant():
    rng = np.random.default_rng(0)
    u = rng.normal(size=16)
    v = rng.normal(size=16)
    assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(3.5 * u, 0.01 * v),
                                                    abs=1e-12)


def test_cosine_zero_norm_raises():
    with pytest.raises(DomainError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        cosine_similarity(np.eye(2), np.eye(2))


def test_cosine_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 20))
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        assert cosine_similarity(u, v) == pytest.approx(
            oracles.cosine_scalar(u.tolist(), v.tolist()), abs=1e-12)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cosine_bounded(d, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    c = cosine_similarity(u, v)
    assert -1.0 <= c <= 1.0


# ---------------------------------------------------------------------------
# similarity matrix
# ---------------------------------------------------------------------------

def test_similarity_matrix_entries_equal_scalar_calls():
    # each entry must be bit-identical to the scalar routine on that pair
    rng = np.random.default_rng(2)
    movie = rng.normal(size=(7, 12))
    trailer = rng.normal(size=(4, 12))
    sims = similarity_matrix(movie, trailer)
    assert sims.shape == (7, 4)
    assert sims.dtype == np.float64
    for i in range(7):
        for j in range(4):
            assert sims[i, j] == cosine_similarity(movie[i], trailer[j])


def test_similarity_matrix_against_oracle():
    rng = np.random.default_rng(3)
    movie = rng.normal(size=(5, 9))
    trailer = rng.normal(size=(6, 9))
    sims = similarity_matrix(movie, trailer)
    table = oracles.similarity_table(movie.tolist(), trailer.tolist())
    np.testing.assert_allclose(sims, np.array(table), atol=1e-12)


def test_similarity_matrix_float32_inputs_promoted():
    movie = np.array([[1.0, 0.0]], dtype=np.float32)
    trailer = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    sims = similarity_matrix(movie, trailer)
    assert sims.dtype == np.float64
    assert sims[0, 0] == 1.0 and sims[0, 1] == 0.0


def test_similarity_matrix_shape_errors():
    with pytest.raises(ShapeError):
        similarity_matrix(np.ones((3, 4)), np.ones((2, 5)))
    with pytest.raises(ShapeError):
        similarity_matrix(np.ones(4), np.ones((2, 4)))


def test_similarity_matrix_zero_row_raises():
    movie = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        similarity_matrix(movie, np.array([[1.0, 1.0]]))


# ---------------------------------------------------------------------------
# cosine kernel: row blocks, exact agreement with the scalar routine
# ---------------------------------------------------------------------------

def _assert_entries_equal_scalar(movie, trailer):
    sims = similarity_matrix(movie, trailer)
    assert sims.shape == (movie.shape[0], trailer.shape[0])
    for i in range(movie.shape[0]):
        for j in range(trailer.shape[0]):
            assert sims[i, j] == cosine_similarity(movie[i], trailer[j]), (i, j)


def test_kernel_entries_equal_scalar_calls_across_row_blocks():
    rng = np.random.default_rng(11)
    n, m, d = 2049, 3, 1024
    assert n * m * d * 8 > 4 * shots._BLOCK_BYTES  # several row blocks
    _assert_entries_equal_scalar(rng.normal(size=(n, d)), rng.normal(size=(m, d)))


def test_kernel_entries_equal_scalar_calls_float32():
    rng = np.random.default_rng(12)
    movie = rng.normal(size=(150, 64)).astype(np.float32)
    trailer = rng.normal(size=(20, 64)).astype(np.float32)
    _assert_entries_equal_scalar(movie, trailer)


def test_kernel_zero_row_in_later_block_raises():
    rng = np.random.default_rng(13)
    movie = rng.normal(size=(2049, 1024))
    movie[2000] = 0.0
    with pytest.raises(DomainError):
        similarity_matrix(movie, rng.normal(size=(3, 1024)))


def test_kernel_zero_trailer_row_raises():
    movie = np.ones((4, 3))
    with pytest.raises(DomainError):
        similarity_matrix(movie, np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))


def test_kernel_peak_temporary_bounded_by_block():
    rng = np.random.default_rng(14)
    n, m, d = 1000, 40, 128
    movie = rng.normal(size=(n, d))
    trailer = rng.normal(size=(m, d))
    assert n * m * d * 8 > 4 * shots._BLOCK_BYTES  # unblocked would be far over
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        similarity_matrix(movie, trailer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # block product + the [n, m] output + at most one norm per input row,
    # plus numpy's ufunc iterator buffers (one of getbufsize() per operand)
    buffers = 3 * np.getbufsize() * 8
    assert peak <= shots._BLOCK_BYTES + n * m * 8 + (n + m) * 8 + buffers


@pytest.mark.parametrize("d", [3, 64, 129, 1024])
def test_scalar_cosine_equals_kernel_one_by_one(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        assert cosine_similarity(u, v) == similarity_matrix(u[None], v[None])[0, 0]


# ---------------------------------------------------------------------------
# trailerness ground truth
# ---------------------------------------------------------------------------

def test_trailerness_gt_hand_example():
    movie = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    trailer = np.array([[2.0, 0.0]])
    gt = trailerness_ground_truth(movie, trailer)
    # framed layout: SOS, three movie shots, EOS; negative cosine clamps to 0
    np.testing.assert_array_equal(gt, [0.0, 1.0, 0.0, 0.0, 0.0])


def test_trailerness_gt_takes_best_trailer_shot():
    movie = np.array([[1.0, 0.0]])
    trailer = np.array([[0.0, 1.0], [1.0, 1.0]])
    gt = trailerness_ground_truth(movie, trailer)
    assert gt[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_trailerness_gt_matches_oracle():
    rng = np.random.default_rng(4)
    movie = rng.normal(size=(8, 6))
    trailer = rng.normal(size=(3, 6))
    gt = trailerness_ground_truth(movie, trailer)
    ref = oracles.trailerness_targets(movie.tolist(), trailer.tolist())
    assert gt.shape == (10,)
    np.testing.assert_allclose(gt, np.array(ref), atol=1e-12)


@given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_trailerness_gt_range_and_frame(n, m, seed):
    rng = np.random.default_rng(seed)
    movie = rng.normal(size=(n, 4)) + 0.1
    trailer = rng.normal(size=(m, 4)) + 0.1
    if np.any(np.linalg.norm(movie, axis=1) == 0) or np.any(np.linalg.norm(trailer, axis=1) == 0):
        return
    gt = trailerness_ground_truth(movie, trailer)
    assert gt.shape == (n + 2,)
    assert gt[0] == 0.0 and gt[-1] == 0.0
    assert np.all(gt >= 0.0) and np.all(gt <= 1.0)


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------

def test_positional_row_zero_alternates_zero_one():
    table = positional_encoding(5, 8)
    np.testing.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positional_shape_covers_frame():
    table = positional_encoding(10, 6)
    assert table.shape == (12, 6)


def test_positional_formula_spot_checks():
    d = 8
    table = positional_encoding(20, d)
    for p in (1, 2, 7, 19):
        for k in range(d // 2):
            angle = p / (10000.0 ** (2 * k / d))
            assert table[p, 2 * k] == pytest.approx(math.sin(angle), abs=1e-12)
            assert table[p, 2 * k + 1] == pytest.approx(math.cos(angle), abs=1e-12)


def test_positional_first_dimension_is_plain_sine():
    table = positional_encoding(30, 4)
    np.testing.assert_allclose(table[:, 0], np.sin(np.arange(32.0)), atol=1e-12)


def test_positional_values_bounded():
    table = positional_encoding(100, 16)
    assert np.all(np.abs(table) <= 1.0)


def test_positional_odd_width_rejected():
    with pytest.raises(ConfigurationError):
        positional_encoding(5, 7)


def test_positional_negative_length_rejected():
    with pytest.raises(ConfigurationError):
        positional_encoding(-1, 4)


def test_positional_zero_length_still_frames():
    # an empty sequence still gets SOS and EOS rows
    assert positional_encoding(0, 4).shape == (2, 4)


# ---------------------------------------------------------------------------
# ShotSequence validation
# ---------------------------------------------------------------------------

def _movie(n=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) + 0.2


def test_sequence_basic_properties():
    seq = ShotSequence("m1", _movie(), "movie")
    assert len(seq) == 3
    assert seq.dim == 4


def test_sequence_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        ShotSequence("x", np.ones(5), "movie")


def test_sequence_rejects_unknown_role():
    with pytest.raises(ValueError):
        ShotSequence("x", _movie(), "screenplay")


def test_empty_movie_rejected_empty_condition_allowed():
    with pytest.raises(ShapeError):
        ShotSequence("x", np.zeros((0, 4)), "movie")
    cond = ShotSequence("c", np.zeros((0, 4)), "condition")
    assert len(cond) == 0


def test_sequence_rejects_nonfinite():
    emb = _movie()
    emb[1, 2] = np.nan
    with pytest.raises(DomainError):
        ShotSequence("x", emb, "movie")


def test_sequence_rejects_zero_norm_shot():
    emb = _movie()
    emb[0] = 0.0
    with pytest.raises(DomainError):
        ShotSequence("x", emb, "trailer")


def test_source_indices_validation():
    emb = _movie(n=2)
    seq = ShotSequence("t", emb, "trailer", source_indices=[3, INSERT_INDEX])
    assert seq.source_indices.dtype == np.int64
    with pytest.raises(ShapeError):
        ShotSequence("t", emb, "trailer", source_indices=[1])
    with pytest.raises(ValueError):
        ShotSequence("t", emb, "trailer", source_indices=[0, 1])  # indices are 1-based
    with pytest.raises(ValueError):
        ShotSequence("t", emb, "trailer", source_indices=[1, -2])


# ---------------------------------------------------------------------------
# sequence files
# ---------------------------------------------------------------------------

def test_sequence_file_round_trip(tmp_path):
    emb = np.asarray(_movie(n=4, d=6), dtype=np.float32)
    seq = ShotSequence("pair7_trailer", emb, "trailer", source_indices=[2, 9, INSERT_INDEX, 1])
    path = tmp_path / "t.json"
    write_sequence(path, seq)
    back = read_sequence(path)
    assert back.seq_id == "pair7_trailer"
    assert back.role == "trailer"
    # float32 in, float32 blob out: bit-exact round trip
    np.testing.assert_array_equal(back.embeddings, emb)
    np.testing.assert_array_equal(back.source_indices, [2, 9, -1, 1])


def test_sequence_file_round_trip_without_indices(tmp_path):
    seq = ShotSequence("m", _movie(), "movie")
    path = tmp_path / "m.json"
    write_sequence(path, seq)
    back = read_sequence(path)
    assert back.source_indices is None
    np.testing.assert_array_equal(back.embeddings,
                                  np.asarray(seq.embeddings, dtype=np.float32))


def test_sequence_rewrite_is_byte_identical(tmp_path):
    seq = ShotSequence("m", _movie(seed=5), "movie")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_sequence(p1, seq)
    write_sequence(p2, seq)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()


def test_sequence_blob_is_little_endian_rows(tmp_path):
    emb = np.array([[1.5, -2.0]], dtype=np.float32)
    write_sequence(tmp_path / "s.json", ShotSequence("s", emb, "movie"))
    raw = (tmp_path / "s.f32").read_bytes()
    assert raw == struct.pack("<2f", 1.5, -2.0)


def test_sequence_manifest_is_json_with_counts(tmp_path):
    seq = ShotSequence("m9", _movie(n=2, d=3), "movie")
    path = tmp_path / "m9.json"
    write_sequence(path, seq)
    manifest = json.loads(path.read_text())
    assert manifest["id"] == "m9"
    assert manifest["n"] == 2
    assert manifest["d"] == 3
    assert manifest["role"] == "movie"


def test_read_rejects_truncated_blob(tmp_path):
    seq = ShotSequence("m", _movie(), "movie")
    path = tmp_path / "m.json"
    write_sequence(path, seq)
    blob = tmp_path / "m.f32"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ValueError):
        read_sequence(path)


def test_read_rejects_missing_manifest_field(tmp_path):
    seq = ShotSequence("m", _movie(), "movie")
    path = tmp_path / "m.json"
    write_sequence(path, seq)
    manifest = json.loads(path.read_text())
    del manifest["role"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        read_sequence(path)


def test_write_requires_json_suffix(tmp_path):
    seq = ShotSequence("m", _movie(), "movie")
    with pytest.raises(ValueError):
        write_sequence(tmp_path / "m.bin", seq)
