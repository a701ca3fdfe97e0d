"""Metric suite: edit distance vs an exhaustive oracle, multiset top-k
matching, alignment, aggregation, and the random baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trailergen.metrics import (MetricsReport, align_gt, levenshtein, levenshtein_rows,
                                precision_recall_f1, random_baseline, score_pairs,
                                sld)
from trailergen.shots import ShotSequence

short_seq = st.lists(st.integers(0, 2), max_size=6)


# ---------------------------------------------------------------------------
# levenshtein
# ---------------------------------------------------------------------------

def test_levenshtein_identity():
    assert levenshtein([4, 9, 2], [4, 9, 2]) == 0
    assert levenshtein([], []) == 0


def test_levenshtein_pure_insertions():
    assert levenshtein([], [1, 2, 3]) == 3
    assert levenshtein([1, 2, 3], []) == 3


def test_levenshtein_single_deletion():
    assert levenshtein(["A", "B", "C"], ["A", "C"]) == 1


def test_levenshtein_substitution():
    assert levenshtein([1, 2, 3], [1, 7, 3]) == 1


def test_levenshtein_accepts_any_tokens():
    assert levenshtein("kitten", "sitting") == 3


@given(short_seq, short_seq)
@settings(max_examples=200, deadline=None)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein(a, b) == oracles.levenshtein_recursive(a, b)


@given(short_seq, short_seq, short_seq)
@settings(max_examples=100, deadline=None)
def test_levenshtein_is_a_metric(a, b, c):
    d_ab = levenshtein(a, b)
    assert d_ab >= 0
    assert d_ab == levenshtein(b, a)
    assert (d_ab == 0) == (a == b)
    assert d_ab <= levenshtein(a, c) + levenshtein(c, b)


@given(short_seq, short_seq)
@settings(max_examples=100, deadline=None)
def test_levenshtein_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@pytest.mark.parametrize("n,m,vocab", [(1, 1, 2), (1, 4, 3), (4, 1, 3), (6, 6, 6),
                                        (5, 7, 3), (0, 3, 3), (3, 0, 3)])
def test_levenshtein_rows_match_scalar_and_recursive_oracle(n, m, vocab):
    rng = np.random.default_rng(n * 10 + m)
    rows = rng.integers(1, vocab + 1, size=(40, n))
    target = rng.integers(1, vocab + 1, size=m)
    got = levenshtein_rows(rows, target).tolist()
    assert got == [levenshtein(row, target) for row in rows]
    assert got == [oracles.levenshtein_recursive(row.tolist(), target.tolist())
                   for row in rows]


@pytest.mark.parametrize("movie_n,gt_m", [(1, 1), (6, 1), (6, 6), (150, 18)])
def test_random_baseline_distances_equal_the_scalar_path(movie_n, gt_m):
    # the trials' edit distances come from one DP; score_pairs' per-pair
    # levenshtein on the same draws must give the same report
    rep = random_baseline(movie_n, gt_m, trials=60, seed=3)
    rng = np.random.default_rng(3)
    gt = list(range(1, gt_m + 1))
    records = [{"predicted": [int(i) for i in rng.permutation(movie_n)[:gt_m] + 1], "gt": gt}
               for _ in range(60)]
    scalar = score_pairs(records, k_list=(1,))
    assert [e["ld"] for e in scalar.per_pair] == [
        oracles.levenshtein_recursive(r["predicted"], gt) for r in records]
    assert (rep.ld, rep.sld, rep.precision, rep.recall, rep.f1) == (
        scalar.ld, scalar.sld, scalar.precision, scalar.recall, scalar.f1)


# ---------------------------------------------------------------------------
# sld
# ---------------------------------------------------------------------------

def test_sld_examples():
    assert sld([1, 2, 3], [9, 9, 9]) == 0
    assert sld(list(range(7)), list(range(10))) == 3
    assert sld(list(range(10)), list(range(7))) == 3


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------

def test_prf_hand_example():
    p, r, f1 = precision_recall_f1([2, 3, 4], [1, 2, 3], k=1)
    assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))


def test_prf_perfect_and_disjoint():
    assert precision_recall_f1([5, 1], [5, 1], k=1) == pytest.approx((1.0, 1.0, 1.0))
    assert precision_recall_f1([1, 2], [3, 4], k=1) == (0.0, 0.0, 0.0)


def test_prf_multiset_consumption():
    # one GT occurrence satisfies at most one prediction
    p, r, f1 = precision_recall_f1([1, 1], [1], k=1)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(1.0)
    p, r, _ = precision_recall_f1([1, 1], [1, 1], k=1)
    assert (p, r) == (1.0, 1.0)


def test_prf_empty_prediction_reports_zero():
    assert precision_recall_f1([], [1, 2], k=1) == (0.0, 0.0, 0.0)


def test_prf_topk_credit():
    # top-1 candidate misses, the k=2 candidate hits
    topk = [[9, 1]]
    assert precision_recall_f1([9], [1], k=1, topk_lists=topk)[0] == 0.0
    assert precision_recall_f1([9], [1], k=2, topk_lists=topk)[0] == 1.0


def test_prf_topk_consumes_at_most_one_per_prediction():
    # both candidates of one prediction are in GT; only one is consumed
    topk = [[1, 2], [2, 9]]
    p, r, _ = precision_recall_f1([1, 2], [1, 2], k=2, topk_lists=topk)
    assert (p, r) == (1.0, 1.0)


def test_prf_validation():
    with pytest.raises(ValueError):
        precision_recall_f1([1], [1], k=0)
    with pytest.raises(ValueError):
        precision_recall_f1([1, 2], [1], k=1, topk_lists=[[1]])


def test_prf_matches_greedy_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 10))
        steps = int(rng.integers(1, 12))
        k = int(rng.integers(1, 4))
        gt = [int(x) for x in rng.integers(1, n + 1, size=m)]
        topk = [[int(x) for x in rng.choice(n, size=min(k, n), replace=False) + 1]
                for _ in range(steps)]
        predicted = [t[0] for t in topk]
        got = precision_recall_f1(predicted, gt, k=k, topk_lists=topk)
        want = oracles.greedy_topk_prf(predicted, gt, k, topk_lists=topk)
        assert got == pytest.approx(want)


@given(st.lists(st.integers(1, 8), min_size=1, max_size=8),
       st.lists(st.integers(1, 8), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prf_monotone_in_k(predicted, gt, seed):
    rng = np.random.default_rng(seed)
    topk = [[p] + [int(x) for x in rng.integers(1, 9, size=4)] for p in predicted]
    prev_p, prev_r = 0.0, 0.0
    for k in (1, 2, 3, 5):
        p, r, _ = precision_recall_f1(predicted, gt, k=k, topk_lists=topk)
        assert p >= prev_p - 1e-12
        assert r >= prev_r - 1e-12
        prev_p, prev_r = p, r


def test_f1_zero_iff_no_hits():
    p, r, f1 = precision_recall_f1([1], [2], k=1)
    assert f1 == 0.0
    p, r, f1 = precision_recall_f1([2, 9], [2], k=1)
    assert f1 > 0.0


# ---------------------------------------------------------------------------
# GT alignment
# ---------------------------------------------------------------------------

def _unit_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_align_gt_uses_stored_indices():
    movie = ShotSequence("m", _unit_rows([[1, 0], [0, 1], [1, 1]]), "movie")
    trailer = ShotSequence("t", _unit_rows([[1, 0], [0, 1]]), "trailer",
                           source_indices=[3, 1])
    assert align_gt(trailer, movie) == [3, 1]


def test_align_gt_insert_symbol_passes_through():
    movie = ShotSequence("m", _unit_rows([[1, 0]]), "movie")
    trailer = ShotSequence("t", _unit_rows([[1, 0]]), "trailer", source_indices=[-1])
    assert align_gt(trailer, movie) == [-1]


def test_align_gt_falls_back_to_argmax_cosine():
    movie = ShotSequence("m", _unit_rows([[1, 0], [0, 1], [-1, 0]]), "movie")
    trailer = ShotSequence("t", _unit_rows([[0.1, 1.0], [0.9, -0.1]]), "trailer")
    assert align_gt(trailer, movie) == [2, 1]


def test_align_gt_fallback_ties_to_lower_index():
    movie = ShotSequence("m", _unit_rows([[1, 0], [2, 0]]), "movie")  # parallel rows
    trailer = ShotSequence("t", _unit_rows([[3, 0]]), "trailer")
    assert align_gt(trailer, movie) == [1]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_score_pairs_aggregates_means():
    records = [
        {"id": "a", "predicted": [1, 2], "gt": [1, 2]},
        {"id": "b", "predicted": [3], "gt": [4, 5]},
    ]
    rep = score_pairs(records, k_list=(1,))
    assert rep.f1[1] == pytest.approx((1.0 + 0.0) / 2)
    assert rep.ld == pytest.approx((0 + 2) / 2)
    assert rep.sld == pytest.approx((0 + 1) / 2)
    assert rep.per_pair[0]["f1@1"] == 1.0
    assert not rep.flags["any_empty_prediction"]


def test_score_pairs_flags_empty_predictions():
    rep = score_pairs([{"id": "x", "predicted": [], "gt": [1]}], k_list=(1,))
    assert rep.flags["any_empty_prediction"]
    assert rep.f1[1] == 0.0


def test_score_pairs_empty_rate_is_share_of_empty_decodes():
    records = [{"id": "a", "predicted": [], "gt": [1]},
               {"id": "b", "predicted": [2], "gt": [2]},
               {"id": "c", "predicted": [], "gt": [3]},
               {"id": "d", "predicted": [1, 4], "gt": [4]}]
    rep = score_pairs(records, k_list=(1,))
    assert rep.empty_rate == 0.5
    assert rep.to_json_dict()["empty_rate"] == 0.5
    assert rep.table("model").splitlines()[-1].split() == ["model", "empty", "0.5000"]
    full = score_pairs(records[1:2], k_list=(1,))
    assert full.empty_rate == 0.0 and not full.flags["any_empty_prediction"]


def test_score_pairs_k_list_deduplicated_and_sorted():
    records = [{"id": "a", "predicted": [1], "gt": [1]}]
    rep = score_pairs(records, k_list=(5, 1, 5))
    assert sorted(rep.f1) == [1, 5]


def test_score_pairs_requires_records():
    with pytest.raises(ValueError):
        score_pairs([])


def test_report_json_dict_shape():
    rep = score_pairs([{"id": "a", "predicted": [1], "gt": [1]}], k_list=(1, 5))
    d = rep.to_json_dict()
    assert set(d["f1"]) == {"1", "5"}
    assert "per_pair" in d and "flags" in d


def test_report_table_column_order_and_labels():
    rep = score_pairs([{"id": "a", "predicted": [1], "gt": [1]}], k_list=(1, 10))
    text = rep.table(label="model")
    header, *rows = text.splitlines()
    assert header.split() == ["Precision", "Recall", "F1-score", "LD", "SLD"]
    assert rows[0].startswith("model@1")
    assert rows[1].startswith("model@10")


# ---------------------------------------------------------------------------
# random baseline
# ---------------------------------------------------------------------------

def test_random_baseline_full_selection_is_perfect():
    rep = random_baseline(movie_n=6, gt_m=6, trials=20, seed=0)
    assert rep.precision[1] == 1.0
    assert rep.recall[1] == 1.0
    assert rep.sld == 0.0


def test_random_baseline_precision_tracks_m_over_n():
    rep = random_baseline(movie_n=40, gt_m=8, trials=400, seed=1)
    sem = rep.flags["precision_sem"]
    assert rep.flags["expected_precision"] == pytest.approx(0.2)
    assert abs(rep.precision[1] - 0.2) <= 3 * sem + 1e-9


def test_random_baseline_precision_equals_recall():
    rep = random_baseline(movie_n=25, gt_m=5, trials=100, seed=2)
    assert rep.precision[1] == pytest.approx(rep.recall[1])


def test_random_baseline_is_seed_deterministic():
    a = random_baseline(10, 3, 50, seed=7)
    b = random_baseline(10, 3, 50, seed=7)
    assert a.precision[1] == b.precision[1]
    assert a.ld == b.ld


def test_random_baseline_validation():
    with pytest.raises(ValueError):
        random_baseline(5, 6, 10)
    with pytest.raises(ValueError):
        random_baseline(5, 2, 0)
