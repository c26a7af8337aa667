"""Exact top-k Tanimoto neighbor search over a fingerprint store.

Brute force over packed u64 words, vectorized per chunk of query rows; one
kernel serves the index build and `batch_tanimoto`. Results are exact and
fully deterministic: neighbors sort by descending similarity with ties broken
by ascending id, and the thread count changes wall time only, never a single
output byte. Self-similarity is always excluded; duplicate fingerprints are
legal neighbors.

The index is two (n, min(k, n-1)) arrays, neighbor ids and similarities, best
neighbor first; the `.amix` file holds the same rows and is read and written
in one call.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chem import BitWidthMismatchError, Fingerprint

AMIX_MAGIC = b"AMIX"
AMIX_VERSION = 1


class EmptyStoreError(ValueError):
    """Raised when asked to index zero fingerprints."""


@dataclass
class SimilarityIndex:
    k: int
    ids: np.ndarray  # (n, min(k, n-1)) int64, best neighbor first
    sims: np.ndarray  # (n, min(k, n-1)) float64, matching ids

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def neighbors(self) -> list[list[tuple[int, float]]]:
        """Row i as (neighbor id, similarity) pairs: a view for comparisons, built once."""
        return [list(zip(ids, sims)) for ids, sims in zip(self.ids.tolist(), self.sims.tolist())]

    def neighbor_ids(self, i: int) -> list[int]:
        return self.ids[i].tolist()


def _pack(fingerprints: list[Fingerprint], nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked words and popcounts; every fingerprint must be nbits wide."""
    if any(fp.nbits != nbits for fp in fingerprints):
        raise BitWidthMismatchError("fingerprint widths differ")
    words = np.stack([fp.words for fp in fingerprints])
    return words, np.bitwise_count(words).sum(axis=1).astype(np.int64)


def _tanimoto(a: np.ndarray, pa: np.ndarray, b: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """S[i, j] = tanimoto(a[i], b[j]) from packed words and popcounts."""
    inter = np.bitwise_count(a[:, None, :] & b[None, :, :]).sum(axis=2)
    union = pa[:, None] + pb[None, :] - inter
    return np.divide(inter, union, out=np.ones_like(union, dtype=np.float64), where=union > 0)


def build_topk(fingerprints: list[Fingerprint], k: int, threads: int = 1) -> SimilarityIndex:
    """Exact top-k neighbor rows for every fingerprint in the store."""
    if not fingerprints:
        raise EmptyStoreError("cannot build an index over zero fingerprints")
    if k < 1:
        raise ValueError("k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    words, pops = _pack(fingerprints, fingerprints[0].nbits)
    n = len(fingerprints)
    take = min(k, n - 1)
    chunk = 64  # keeps the (chunk, n, words) intermediate small

    def topk_chunk(lo: int) -> tuple[np.ndarray, np.ndarray]:
        hi = min(lo + chunk, n)
        sims = _tanimoto(words[lo:hi], pops[lo:hi], words, pops)
        sims[np.arange(hi - lo), np.arange(lo, hi)] = -1.0  # self never counts
        # a stable sort keeps tied ids ascending; the copy frees the (chunk, n) order
        order = np.argsort(-sims, axis=1, kind="stable")[:, :take].copy()
        return order, np.take_along_axis(sims, order, axis=1)

    starts = range(0, n, chunk)
    if threads == 1 or len(starts) == 1:
        parts = [topk_chunk(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(topk_chunk, starts))
    ids, sims = zip(*parts)
    return SimilarityIndex(k=k, ids=np.concatenate(ids), sims=np.concatenate(sims))


def batch_tanimoto(source: list[Fingerprint], batch: list[Fingerprint]) -> np.ndarray:
    """Matrix S with S[i, j] = tanimoto(source[i], batch[j])."""
    if not source or not batch:
        raise EmptyStoreError("batch_tanimoto needs non-empty fingerprint lists")
    nbits = source[0].nbits
    return _tanimoto(*_pack(source, nbits), *_pack(batch, nbits))


# ---------------------------------------------------------------------------
# Index file format: magic "AMIX", u32 version, u32 k, u64 n, then per
# molecule a u32 entry count followed by count x (u64 neighbor id, f64
# similarity). Every row holds exactly min(k, n-1) entries.

_HEADER = struct.Struct("<4sIIQ")


def _row_dtype(take: int) -> np.dtype:
    return np.dtype([("count", "<u4"), ("pairs", [("id", "<u8"), ("sim", "<f8")], (take,))])


def write_index(path: str, index: SimilarityIndex) -> None:
    take = index.ids.shape[1]
    rows = np.empty(index.n, dtype=_row_dtype(take))
    rows["count"] = take
    rows["pairs"]["id"] = index.ids
    rows["pairs"]["sim"] = index.sims
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(AMIX_MAGIC, AMIX_VERSION, index.k, index.n))
        fh.write(rows.tobytes())


def read_index(path: str) -> SimilarityIndex:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated index header")
        magic, version, k, n = _HEADER.unpack(header)
        if magic != AMIX_MAGIC:
            raise ValueError(f"{path}: not an index file (bad magic {magic!r})")
        if version != AMIX_VERSION:
            raise ValueError(f"{path}: unsupported index version {version}")
        if k < 1 or n < 1:
            raise ValueError(f"{path}: corrupt header, k={k} n={n}")
        take = min(k, n - 1)
        row_bytes = 4 + 16 * take
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != n * row_bytes:
            raise ValueError(f"{path}: expected {n} rows of {row_bytes} bytes, found {body} payload bytes")
        rows = np.frombuffer(fh.read(body), dtype=_row_dtype(take))
    bad = np.flatnonzero(rows["count"] != take)
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{path}: molecule {i} has {rows['count'][i]} neighbors, expected {take}")
    ids = rows["pairs"]["id"]
    bad = np.flatnonzero((ids >= n).any(axis=1))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{path}: molecule {i} lists a neighbor id >= {n}")
    return SimilarityIndex(k=k, ids=ids.astype(np.int64), sims=rows["pairs"]["sim"].astype(np.float64))
