"""Shot-sequence data model.

Movies, trailers, and condition inputs are all sequences of fixed-width
embedding rows ("shots").  This module owns the in-memory representation,
cosine-similarity utilities, the ground-truth trailerness targets, the
sinusoidal positional table, and the on-disk sequence format (a small JSON
manifest next to a raw little-endian float32 blob).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ConfigurationError, DomainError, ShapeError

ROLES = ("movie", "trailer", "condition")

# trailer source index marking a shot with no movie counterpart (title cards etc.)
INSERT_INDEX = -1


@dataclass
class ShotSequence:
    """An ordered list of shot embeddings plus bookkeeping.

    ``source_indices`` only applies to trailers: entry j is the 1-based movie
    shot the trailer shot was taken from, or ``INSERT_INDEX`` for shots with
    no movie counterpart.
    """

    seq_id: str
    embeddings: np.ndarray
    role: str
    source_indices: np.ndarray | None = None

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings)
        if self.embeddings.ndim != 2:
            raise ShapeError(f"embeddings must be [length, d], got {self.embeddings.shape}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role != "condition" and len(self) < 1:
            raise ShapeError(f"{self.role} sequence must contain at least one shot")
        if not np.all(np.isfinite(self.embeddings)):
            raise DomainError(f"sequence {self.seq_id!r} contains non-finite values")
        if self.role != "condition" and len(self) > 0:
            norms = np.linalg.norm(self.embeddings, axis=1)
            if np.any(norms == 0):
                raise DomainError(f"sequence {self.seq_id!r} contains zero-norm shots")
        if self.source_indices is not None:
            self.source_indices = np.asarray(self.source_indices, dtype=np.int64)
            if self.source_indices.shape != (len(self),):
                raise ShapeError("source_indices length must match the sequence length")
            bad = (self.source_indices == 0) | (self.source_indices < INSERT_INDEX)
            if np.any(bad):
                raise ValueError("source_indices must be 1-based or INSERT_INDEX")

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def as_embedding_array(seq) -> np.ndarray:
    """The embedding rows of a ``ShotSequence``, or any other rows as an array."""
    return seq.embeddings if isinstance(seq, ShotSequence) else np.asarray(seq)


# Bound on the [rows, m, d] float64 product one block of the cosine kernel
# holds at a time.  A single row may exceed it when m * d * 8 alone does.
_BLOCK_BYTES = 8 * 2**20


def _dot(x, y, out=None):
    """Dot products along the last axis, broadcasting the leading ones.

    Both the scalar and the matrix cosine reduce through this one expression:
    an elementwise product summed over d contiguous values, so every pair is
    summed in the same (pairwise) order whatever the leading shape.  BLAS
    ``ddot`` and ``dgemm`` each use their own order and would not agree.
    """
    return np.add.reduce(x * y, axis=-1, out=out)


def _norm(x):
    return np.sqrt(_dot(x, x))


def _zero_norm():
    return DomainError("cosine similarity undefined for zero-norm vectors")


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two embedding vectors, clipped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"cosine_similarity needs equal-length vectors, got {u.shape}, {v.shape}")
    nu = _norm(u)
    nv = _norm(v)
    if nu == 0.0 or nv == 0.0:
        raise _zero_norm()
    return float(min(1.0, max(-1.0, _dot(u, v) / (nu * nv))))


def _cosine_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[n, m] cosines between float64 rows ``a [n, d]`` and ``b [m, d]``.

    Works over row blocks of ``a`` so the product temporary stays under
    ``_BLOCK_BYTES``; each entry is the same arithmetic as
    :func:`cosine_similarity` on that pair.
    """
    nb = _norm(b)
    if np.any(nb == 0.0):
        raise _zero_norm()
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, m * a.shape[1])))
    for lo in range(0, n, rows):
        blk = a[lo:lo + rows]
        na = _norm(blk)
        if np.any(na == 0.0):
            raise _zero_norm()
        dots = out[lo:lo + rows]
        _dot(blk[:, None, :], b, out=dots)
        dots /= na[:, None] * nb
    return np.clip(out, -1.0, 1.0, out=out)


def similarity_matrix(movie_embeddings, trailer_embeddings) -> np.ndarray:
    """[n, m] matrix of pairwise cosines, entry (i, j) = cos(movie_i, trailer_j).

    Evaluated at 64-bit so each entry is exactly what
    :func:`cosine_similarity` returns on the corresponding pair.
    """
    a = np.asarray(movie_embeddings, dtype=np.float64)
    b = np.asarray(trailer_embeddings, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"incompatible shapes {a.shape}, {b.shape}")
    return _cosine_kernel(a, b)


def trailerness_ground_truth(movie_embeddings, trailer_embeddings) -> np.ndarray:
    """Target trailerness over the framed movie: [n+2] with 0 at the SOS/EOS slots.

    Interior position i holds the best cosine between movie shot i and any
    trailer shot, clamped to [0, 1] so the targets stay inside the sigmoid
    range of the predicted scores.
    """
    sims = similarity_matrix(movie_embeddings, trailer_embeddings)
    n = sims.shape[0]
    scores = np.zeros(n + 2, dtype=np.float64)
    scores[1:n + 1] = np.clip(sims.max(axis=1), 0.0, 1.0)
    return scores


def positional_encoding(max_len: int, d: int) -> np.ndarray:
    """Sinusoidal position table covering a framed sequence: [(max_len + 2), d].

    Row p holds sin(p / 10000^(2k/d)) at dimension 2k and the matching cosine
    at 2k+1, so row 0 is (0, 1, 0, 1, ...).
    """
    if d % 2 != 0:
        raise ConfigurationError(f"positional encoding needs an even width, got d={d}")
    if max_len < 0:
        raise ConfigurationError(f"max_len must be nonnegative, got {max_len}")
    positions = np.arange(max_len + 2, dtype=np.float64)[:, None]
    inv_freq = 10000.0 ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = positions * inv_freq[None, :]
    table = np.empty((max_len + 2, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


# --------------------------------------------------------------------------
# sequence file format: <stem>.json manifest + <stem>.f32 blob
# --------------------------------------------------------------------------

_BLOB_DTYPE = np.dtype("<f4")


def _blob_path(manifest_path: Path) -> Path:
    return manifest_path.with_suffix(".f32")


def write_sequence(manifest_path, seq: ShotSequence) -> None:
    """Write a sequence as a JSON manifest plus a float32 little-endian blob.

    Output bytes are a pure function of the sequence contents, so rewriting
    the same data is byte-identical.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.suffix != ".json":
        raise ValueError(f"manifest path must end in .json, got {manifest_path}")
    manifest = {
        "id": seq.seq_id,
        "n": len(seq),
        "d": seq.dim,
        "role": seq.role,
    }
    if seq.source_indices is not None:
        manifest["source_indices"] = [int(i) for i in seq.source_indices]
    blob = np.ascontiguousarray(seq.embeddings, dtype=_BLOB_DTYPE).tobytes()
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    _blob_path(manifest_path).write_bytes(blob)


def read_sequence(manifest_path) -> ShotSequence:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    for key in ("id", "n", "d", "role"):
        if key not in manifest:
            raise ValueError(f"sequence manifest {manifest_path} missing field {key!r}")
    n, d = int(manifest["n"]), int(manifest["d"])
    raw = _blob_path(manifest_path).read_bytes()
    if len(raw) != n * d * _BLOB_DTYPE.itemsize:
        raise ValueError(f"blob size {len(raw)} does not match {n}x{d} float32 rows")
    embeddings = np.frombuffer(raw, dtype=_BLOB_DTYPE).reshape(n, d).copy()
    indices = manifest.get("source_indices")
    return ShotSequence(
        seq_id=str(manifest["id"]),
        embeddings=embeddings,
        role=str(manifest["role"]),
        source_indices=None if indices is None else np.asarray(indices, dtype=np.int64),
    )
