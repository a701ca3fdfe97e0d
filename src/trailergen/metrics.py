"""Evaluation metrics: precision/recall/F1 at top-k, edit distance, length
difference, random baseline, and per-pair/aggregate reporting."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .shots import ShotSequence, similarity_matrix


def align_gt(trailer: ShotSequence, movie: ShotSequence) -> list[int]:
    """Ground-truth movie index per trailer shot (1-based; -1 for inserts).

    Synthetic trailers carry exact source indices; otherwise each shot maps
    to its argmax-cosine movie shot (ties to the lower index), which is an
    approximation and is flagged as such in reports.
    """
    if trailer.source_indices is not None:
        return [int(i) for i in trailer.source_indices]
    sims = similarity_matrix(movie.embeddings, trailer.embeddings)
    return [int(np.argmax(sims[:, j])) + 1 for j in range(sims.shape[1])]


def precision_recall_f1(predicted: list[int], gt: list[int], k: int = 1,
                        topk_lists: list[list[int]] | None = None):
    """Set-style scores with top-k credit.

    A prediction hits if any of its k highest-ranked candidates is still
    available in the ground-truth multiset; each hit consumes one occurrence
    so one popular GT shot cannot satisfy many predictions.  Candidate lists
    default to the top-1 matches themselves.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if topk_lists is not None and len(topk_lists) != len(predicted):
        raise ValueError("need one candidate list per prediction")
    if not predicted:
        return 0.0, 0.0, 0.0
    candidates = ([list(t)[:k] for t in topk_lists] if topk_lists is not None
                  else [[p] for p in predicted])
    remaining = Counter(gt)
    hits = 0
    for cands in candidates:
        for c in cands:
            if remaining[c] > 0:
                remaining[c] -= 1
                hits += 1
                break
    precision = hits / len(predicted)
    recall = hits / len(gt) if gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def levenshtein(a, b) -> int:
    """Unit-cost edit distance over index tokens, O(min(len)) memory."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, token in enumerate(a, start=1):
        current = [i]
        for j, other in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,          # delete
                current[j - 1] + 1,       # insert
                previous[j - 1] + (token != other),  # substitute / keep
            ))
        previous = current
    return previous[-1]


def levenshtein_rows(rows, target) -> np.ndarray:
    """``levenshtein`` from each row of integer tokens ``rows`` [T, n] to
    ``target`` [m], as one DP over a [T, m+1] array.

    Row i of the DP takes deletions and substitutions from row i-1 in one
    elementwise minimum; insertions chain along the row, and
    ``cur[j] = min(cur[j], cur[j-1] + 1)`` for every j is the running minimum
    of ``cur - j``, plus j.
    """
    rows, target = np.asarray(rows), np.asarray(target)
    cols = np.arange(target.size + 1)
    previous = np.tile(cols, (rows.shape[0], 1))
    for i in range(rows.shape[1]):
        current = np.empty_like(previous)
        current[:, 0] = i + 1
        np.minimum(previous[:, 1:] + 1, previous[:, :-1] + (rows[:, i, None] != target),
                   out=current[:, 1:])
        previous = np.minimum.accumulate(current - cols, axis=1) + cols
    return previous[:, -1]


def sld(a, b) -> int:
    """Absolute difference in sequence lengths."""
    return abs(len(a) - len(b))


@dataclass
class MetricsReport:
    """Aggregate metrics; precision/recall/f1 keyed by k, LD/SLD from top-1 strings."""

    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    ld: float
    sld: float
    empty_rate: float           # share of pairs whose decode kept no shot
    per_pair: list[dict] = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "precision": {str(k): v for k, v in sorted(self.precision.items())},
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "f1": {str(k): v for k, v in sorted(self.f1.items())},
            "ld": self.ld,
            "sld": self.sld,
            "empty_rate": self.empty_rate,
            "per_pair": self.per_pair,
            "flags": self.flags,
        }

    def table(self, label: str = "model") -> str:
        """Aligned rows in the conventional column order, then the empty-decode rate."""
        header = f"{'':14s}{'Precision':>11s}{'Recall':>11s}{'F1-score':>11s}{'LD':>9s}{'SLD':>9s}"
        lines = [header]
        for k in sorted(self.precision):
            lines.append(
                f"{label + '@' + str(k):14s}"
                f"{self.precision[k]:>11.4f}{self.recall[k]:>11.4f}{self.f1[k]:>11.4f}"
                f"{self.ld:>9.2f}{self.sld:>9.2f}")
        lines.append(f"{label + ' empty':14s}{self.empty_rate:>11.4f}")
        return "\n".join(lines)


def score_pairs(records: list[dict], k_list=(1, 5, 10)) -> MetricsReport:
    """Aggregate per-pair decode records.

    Each record needs ``predicted`` (top-1 index list), ``gt`` (aligned GT
    indices), and optionally ``topk`` (ranked candidate lists per step) and
    ``ld``, the pair's edit distance when the caller has computed it.
    """
    if not records:
        raise ValueError("no pairs to score")
    k_list = sorted(set(int(k) for k in k_list))
    per_pair = []
    for rec in records:
        predicted, gt = rec["predicted"], rec["gt"]
        topk = rec.get("topk")
        entry = {
            "id": rec.get("id", ""),
            "predicted": list(predicted),
            "gt": list(gt),
            "ld": rec["ld"] if "ld" in rec else levenshtein(predicted, gt),
            "sld": sld(predicted, gt),
            "empty_predicted": not predicted,
        }
        for k in k_list:
            p, r, f1 = precision_recall_f1(predicted, gt, k=k, topk_lists=topk)
            entry[f"precision@{k}"] = p
            entry[f"recall@{k}"] = r
            entry[f"f1@{k}"] = f1
        per_pair.append(entry)

    def mean(key):
        return float(np.mean([e[key] for e in per_pair]))

    return MetricsReport(
        precision={k: mean(f"precision@{k}") for k in k_list},
        recall={k: mean(f"recall@{k}") for k in k_list},
        f1={k: mean(f"f1@{k}") for k in k_list},
        ld=mean("ld"),
        sld=mean("sld"),
        empty_rate=mean("empty_predicted"),
        per_pair=per_pair,
        flags={"any_empty_prediction": any(e["empty_predicted"] for e in per_pair)},
    )


def random_baseline(movie_n: int, gt_m: int, trials: int, seed: int = 0) -> MetricsReport:
    """Monte-Carlo baseline: uniformly sample gt_m of movie_n shots, in random order.

    By symmetry the ground truth can be taken as [1..m]; expected top-1
    precision is m/n.  The flags carry the standard error of the mean so
    analytic comparisons can use proper confidence bounds.
    """
    if not 1 <= gt_m <= movie_n:
        raise ValueError(f"need 1 <= gt_m <= movie_n, got m={gt_m}, n={movie_n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    gt = list(range(1, gt_m + 1))
    picked = np.stack([rng.permutation(movie_n)[:gt_m] + 1 for _ in range(trials)])
    # every trial has the same lengths, so one DP gives all their edit distances
    records = [{"id": f"trial_{t}", "predicted": row.tolist(), "gt": gt, "ld": int(ld)}
               for t, (row, ld) in enumerate(zip(picked, levenshtein_rows(picked, gt)))]
    report = score_pairs(records, k_list=(1,))
    samples = np.array([e["precision@1"] for e in report.per_pair])
    report.flags["precision_sem"] = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    report.flags["expected_precision"] = gt_m / movie_n
    report.per_pair = []  # trial records are not pair records; drop to keep reports small
    return report
