"""Seeded generator of solvable movie -> trailer pairs.

Movies are clouds of cluster-structured unit-ish embeddings.  Each shot has
a latent "appeal" that is a pure function of its embedding (affinity to a
corpus-wide style direction plus a per-cluster bonus), trailers take the
top-m shots in descending order of appeal (not chronologically), and a
configurable fraction of trailer slots is replaced by out-of-movie insert
shots.  Everything is reproducible from (config, pair index) alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .autodiff import ConfigurationError
from .config import config_from_dict
from .shots import ShotSequence, read_sequence, write_sequence

# removed keys, at the value that selects what the code still does
RETIRED_GENERATOR_KEYS = {"order_rule": "appeal_sorted"}

# sub-stream tags so corpus constants, pair draws, and condition draws never collide
_CONSTANTS_TAG = 0
_PAIR_TAG = 1
_CONDITION_TAG = 2


@dataclass(frozen=True)
class GeneratorConfig:
    d: int = 64
    n_range: tuple[int, int] = (100, 200)   # movie length bounds, inclusive
    m_range: tuple[int, int] = (12, 24)     # trailer length bounds, inclusive
    clusters: int = 12
    noise_sigma: float = 0.05               # per-dim noise on selected trailer shots
    insert_prob: float = 0.05
    seed: int = 0

    def validate(self) -> "GeneratorConfig":
        n_lo, n_hi = self.n_range
        m_lo, m_hi = self.m_range
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigurationError(f"embedding width must be even and >= 2, got {self.d}")
        if not (1 <= n_lo <= n_hi):
            raise ConfigurationError(f"bad movie length range {self.n_range}")
        if not (1 <= m_lo <= m_hi):
            raise ConfigurationError(f"bad trailer length range {self.m_range}")
        if m_hi > n_lo:
            raise ConfigurationError(
                f"trailer upper bound {m_hi} exceeds movie lower bound {n_lo}")
        if not 0.0 <= self.insert_prob < 0.5:
            raise ConfigurationError(f"insert_prob must be in [0, 0.5), got {self.insert_prob}")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be nonnegative")
        if self.clusters < 1:
            raise ConfigurationError("clusters must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "GeneratorConfig":
        return config_from_dict(cls, values, "generator", RETIRED_GENERATOR_KEYS).validate()


def corpus_constants(cfg: GeneratorConfig):
    """Style direction, cluster centroids, and cluster bonuses shared by every pair."""
    rng = np.random.default_rng([cfg.seed, _CONSTANTS_TAG])
    centroids = rng.normal(size=(cfg.clusters, cfg.d))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    style = rng.normal(size=cfg.d)
    style /= np.linalg.norm(style)
    bonus = rng.uniform(0.0, 0.5, size=cfg.clusters)
    return centroids, style, bonus


def appeal_of(embeddings: np.ndarray, cfg: GeneratorConfig) -> np.ndarray:
    """Latent appeal recomputed from the embeddings alone (so it is learnable)."""
    centroids, style, bonus = corpus_constants(cfg)
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    nearest = np.argmax(unit @ centroids.T, axis=1)
    return unit @ style + bonus[nearest]


def generate_pair(cfg: GeneratorConfig, pair_seed: int) -> tuple[ShotSequence, ShotSequence]:
    """One deterministic (movie, trailer-with-source-indices) pair."""
    cfg.validate()
    centroids, _, _ = corpus_constants(cfg)
    rng = np.random.default_rng([cfg.seed, _PAIR_TAG, pair_seed])
    n_lo, n_hi = cfg.n_range
    m_lo, m_hi = cfg.m_range
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))

    assignment = rng.integers(0, cfg.clusters, size=n)
    raw = centroids[assignment] + rng.normal(size=(n, cfg.d)) * (0.8 / np.sqrt(cfg.d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    scales = rng.uniform(0.8, 1.25, size=n)
    movie_emb = raw * scales[:, None]

    appeal = appeal_of(movie_emb, cfg)
    by_appeal = np.lexsort((np.arange(n), -appeal))  # desc appeal, ties to lower index
    selected = by_appeal[:m]

    trailer_emb = movie_emb[selected] + rng.normal(size=(m, cfg.d)) * cfg.noise_sigma
    source = selected.astype(np.int64) + 1  # 1-based

    # inserts: draws are fixed-size so the stream shape never depends on outcomes
    insert_mask = rng.random(m) < cfg.insert_prob
    insert_dirs = rng.normal(size=(m, cfg.d))
    insert_scales = rng.uniform(0.8, 1.25, size=m)
    for j in np.flatnonzero(insert_mask):
        direction = insert_dirs[j] / np.linalg.norm(insert_dirs[j])
        trailer_emb[j] = direction * insert_scales[j]
        source[j] = -1

    # keep norms inside the promised band even for unlucky noise draws;
    # ratio-first so untouched rows are multiplied by exactly 1.0
    norms = np.linalg.norm(trailer_emb, axis=1, keepdims=True)
    trailer_emb = trailer_emb * (np.clip(norms, 0.55, 1.95) / norms)

    movie = ShotSequence(f"movie_{pair_seed:06d}", movie_emb, "movie")
    trailer = ShotSequence(f"trailer_{pair_seed:06d}", trailer_emb, "trailer",
                           source_indices=source)
    return movie, trailer


def condition_for_pair(cfg: GeneratorConfig, pair_seed: int,
                       movie: ShotSequence, trailer: ShotSequence) -> ShotSequence:
    """Synthetic stand-in for an embedded plot summary: noisy mean of the
    trailer's source shots (information-bearing, but not the answer itself)."""
    rng = np.random.default_rng([cfg.seed, _CONDITION_TAG, pair_seed])
    src = trailer.source_indices
    real = src[src > 0] if src is not None else np.array([], dtype=np.int64)
    if real.size:
        base = movie.embeddings[real - 1].mean(axis=0)
    else:
        base = trailer.embeddings.mean(axis=0)
    vec = base + rng.normal(size=cfg.d) * 0.05
    return ShotSequence(f"condition_{pair_seed:06d}", vec[None, :], "condition")


@dataclass
class PairExample:
    pair_id: str
    movie: ShotSequence
    trailer: ShotSequence
    condition: ShotSequence | None = None


def default_splits(count: int) -> dict[str, list[int]]:
    """80/10/10 by index, held-out sets drawn from the tail, never empty for count >= 3."""
    hold = max(1, round(count * 0.1)) if count >= 3 else 0
    train_end = count - 2 * hold
    return {
        "train": list(range(0, train_end)),
        "val": list(range(train_end, count - hold)),
        "test": list(range(count - hold, count)),
    }


def generate_dataset(cfg: GeneratorConfig, count: int, out_dir,
                     splits: dict[str, list[int]] | None = None,
                     include_conditions: bool = True) -> dict:
    """Write ``count`` pairs (seeds seed+0..count-1) plus the corpus manifest.

    Returns the manifest dict.  All emitted bytes are pure functions of
    (cfg, count, splits), so regeneration is byte-identical.
    """
    cfg.validate()
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if splits is None:
        splits = default_splits(count)
    claimed = sorted(i for ids in splits.values() for i in ids)
    if claimed != list(range(count)):
        raise ConfigurationError("splits must partition 0..count-1 exactly")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(count):
        pair_seed = cfg.seed + i
        movie, trailer = generate_pair(cfg, pair_seed)
        pair_id = f"pair_{i:05d}"
        entry = {"id": pair_id, "movie": f"{pair_id}.movie.json",
                 "trailer": f"{pair_id}.trailer.json"}
        write_sequence(out / entry["movie"], movie)
        write_sequence(out / entry["trailer"], trailer)
        if include_conditions:
            condition = condition_for_pair(cfg, pair_seed, movie, trailer)
            entry["condition"] = f"{pair_id}.condition.json"
            write_sequence(out / entry["condition"], condition)
        pairs.append(entry)

    manifest = {
        "version": 1,
        "config": cfg.to_dict(),
        "count": count,
        "pairs": pairs,
        "splits": {name: [f"pair_{i:05d}" for i in sorted(ids)]
                   for name, ids in splits.items()},
    }
    (out / "corpus.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    return manifest


def load_dataset(data_dir, split: str | None = None) -> tuple[list[PairExample], dict]:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "corpus.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no corpus manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    wanted = None
    if split is not None:
        if split not in manifest["splits"]:
            raise KeyError(f"split {split!r} not in manifest "
                           f"(have {sorted(manifest['splits'])})")
        wanted = set(manifest["splits"][split])
    examples = []
    for entry in manifest["pairs"]:
        if wanted is not None and entry["id"] not in wanted:
            continue
        condition = None
        if "condition" in entry:
            condition = read_sequence(data_dir / entry["condition"])
        examples.append(PairExample(
            pair_id=entry["id"],
            movie=read_sequence(data_dir / entry["movie"]),
            trailer=read_sequence(data_dir / entry["trailer"]),
            condition=condition,
        ))
    return examples, manifest


def dataset_fingerprint(data_dir) -> str:
    """Stable content hash over the manifest and every referenced file."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "corpus.json"
    digest = hashlib.sha256(manifest_path.read_bytes())
    manifest = json.loads(manifest_path.read_text())
    names = []
    for entry in manifest["pairs"]:
        for key in ("movie", "trailer", "condition"):
            if key in entry:
                names.append(entry[key])
                names.append(str(Path(entry[key]).with_suffix(".f32")))
    for name in sorted(names):
        digest.update(name.encode())
        digest.update((data_dir / name).read_bytes())
    return digest.hexdigest()
