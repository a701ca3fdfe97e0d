"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style possible (recursion,
double loops, explicit candidate scans) so that agreement with the package's
vectorized/DP implementations is meaningful evidence of correctness.
"""

from __future__ import annotations

import math

import numpy as np

from trailergen import autodiff as ad
from trailergen.autodiff import Tensor
from trailergen.decoder import DecodedTrailer, detect_eos, match_nearest, match_similarities


def levenshtein_recursive(a, b) -> int:
    """Exhaustive-recursion edit distance with memoization on suffixes."""
    a, b = tuple(a), tuple(b)
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        key = (i, j)
        if key in memo:
            return memo[key]
        if a[i] == b[j]:
            best = go(i + 1, j + 1)
        else:
            best = 1 + min(go(i + 1, j),      # delete from a
                           go(i, j + 1),      # insert into a
                           go(i + 1, j + 1))  # substitute
        memo[key] = best
        return best

    return go(0, 0)


def cosine_scalar(u, v) -> float:
    """Cosine from explicit loops; no numpy, clipped like the implementation."""
    dot = 0.0
    nu = 0.0
    nv = 0.0
    for x, y in zip(u, v):
        dot += float(x) * float(y)
        nu += float(x) * float(x)
        nv += float(y) * float(y)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero vector")
    c = dot / (math.sqrt(nu) * math.sqrt(nv))
    return min(1.0, max(-1.0, c))


def similarity_table(movie_rows, trailer_rows):
    """Nested-list cosine table: entry [i][j] = cos(movie i, trailer j)."""
    return [[cosine_scalar(u, v) for v in trailer_rows] for u in movie_rows]


def greedy_topk_prf(predicted, gt, k, topk_lists=None):
    """Literal transcription of the matching rule: walk predictions in order,
    scan each one's top-k candidates by rank, consume the first candidate
    still available in the ground-truth multiset."""
    if not predicted:
        return 0.0, 0.0, 0.0
    remaining = list(gt)
    if topk_lists is None:
        candidate_lists = [[p] for p in predicted]
    else:
        candidate_lists = [list(c)[:k] for c in topk_lists]
    hits = 0
    for candidates in candidate_lists:
        for c in candidates:
            if c in remaining:
                remaining.remove(c)
                hits += 1
                break
    precision = hits / len(predicted)
    recall = hits / len(gt) if gt else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def nearest_shot_index(embedding, movie_rows) -> int:
    """1-based argmax-cosine with ties to the lower index, by linear scan."""
    best_idx = 1
    best = -2.0
    for i, row in enumerate(movie_rows):
        c = cosine_scalar(embedding, row)
        if c > best:
            best = c
            best_idx = i + 1
    return best_idx


def trailerness_targets(movie_rows, trailer_rows):
    """Framed ground-truth scores: zero at both frame slots, max-cosine inside."""
    inner = []
    for u in movie_rows:
        best = max(cosine_scalar(u, v) for v in trailer_rows)
        inner.append(min(1.0, max(0.0, best)))
    return [0.0] + inner + [0.0]


def softmax_list(xs):
    hi = max(xs)
    es = [math.exp(x - hi) for x in xs]
    z = sum(es)
    return [e / z for e in es]


def kl_between_rows(target_row, pred_row) -> float:
    """KL(softmax(target) || softmax(pred)) summed over dimensions."""
    p = softmax_list(list(target_row))
    q = softmax_list(list(pred_row))
    return sum(pi * (math.log(pi) - math.log(qi)) for pi, qi in zip(p, q))


def reference_attention(q, k, v, num_heads, mask=None):
    """Multi-head attention as a chain of separate autodiff ops: split heads
    with reshape + transpose, scale QK^T with mul, masked softmax, weights
    times V, merge heads.  Works for any number of leading axes."""
    *lead, lq, d = q.shape
    dk = d // num_heads
    nl = len(lead)
    swap_lh = tuple(range(nl)) + (nl + 1, nl, nl + 2)  # [.., L, H, dk] <-> [.., H, L, dk]

    def split(x):
        return ad.transpose(ad.reshape(x, (*lead, x.shape[-2], num_heads, dk)), swap_lh)

    qh, kh, vh = split(q), split(k), split(v)
    kt = ad.transpose(kh, tuple(range(nl + 1)) + (nl + 2, nl + 1))
    scores = ad.mul(ad.matmul(qh, kt), 1.0 / math.sqrt(dk))
    weights = ad.softmax(scores, axis=-1, mask=mask)
    return ad.reshape(ad.transpose(ad.matmul(weights, vh), swap_lh), (*lead, lq, d))


def reference_generate(model, movie, condition=None, max_len: int = 32,
                       topk: int = 1) -> DecodedTrailer:
    """Greedy decode of one movie, one step at a time: re-run the decoder over
    the whole [t, d] prefix, stop on EOS, an exhausted no-repeat pool or the
    cap, and feed back the raw prediction or the matched shot."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    movie_arr = np.asarray(movie)
    cfg = model.cfg
    n = movie_arr.shape[0]
    k = min(max(1, topk), n)
    with ad.no_grad():
        enc = model.encode_single(movie_arr)
        memory, _ = model.attach_condition(enc, [condition])
        memory = memory[0]
        rows = [ad.reshape(model.sos, (1, cfg.d_model))]
        kept, all_preds, matched = [], [], []
        topk_idx, topk_sims = [], []
        chosen: set[int] = set()
        terminated = "max_len"
        while True:
            x = rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)
            t = x.shape[0]
            x = ad.add(x, model.positional_rows(t))
            out = model.decoder(x, memory, ad.causal_mask(t), None)
            pred = np.array(out.data[-1])
            all_preds.append(pred)
            if detect_eos(pred, model.eos.data, movie_arr,
                          rule=cfg.eos_rule, threshold=cfg.eos_threshold):
                terminated = "eos"
                break
            exclude = chosen if cfg.no_repeat else None
            pool = n - len(chosen) if cfg.no_repeat else n
            if pool < 1:
                terminated = "pool"
                break
            ranked = match_nearest(pred, movie_arr, k=min(k, pool), exclude=exclude)
            sims = match_similarities(pred, movie_arr, ranked)
            matched.append(ranked[0])
            topk_idx.append(ranked)
            topk_sims.append(sims)
            if cfg.no_repeat:
                chosen.add(ranked[0])
            kept.append(pred)
            if len(kept) >= max_len:
                break
            feedback = movie_arr[ranked[0] - 1] if cfg.feedback == "retrieved" else pred
            rows.append(Tensor(np.asarray(feedback)[None, :]))
    embeddings = np.stack(kept) if kept else np.zeros((0, cfg.d_model))
    return DecodedTrailer(
        embeddings=embeddings,
        matched_indices=matched,
        terminated_by=terminated,
        topk_indices=topk_idx,
        topk_similarities=topk_sims,
        all_predictions=np.stack(all_preds),
    )
