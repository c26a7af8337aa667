"""Exact top-k Tanimoto neighbor search over a fingerprint store.

Brute force, one chunk of query rows at a time; one kernel serves the index
build and `batch_tanimoto`. The fingerprints are unpacked once into an
(n, nbits) float32 0/1 matrix, and a chunk's intersection counts are one BLAS
product `bits[lo:hi] @ bits.T`. Those counts are exact: every partial sum is
an integer below 2**24, which float32 represents exactly, so neither the
summation order nor the BLAS or `threads` count can change them. Wider
fingerprints are refused. Similarities are the float64 quotient inter / union,
1.0 when the union is empty.

Each row keeps its best min(k, n-1) neighbors: a partition finds the cut-off
similarity, and only the candidates at or above it are sorted by descending
similarity, ties by ascending id, exactly the order of a full stable sort.
Chunk rows come from a fixed byte budget, so memory does not grow with the
chunk's row count. Results are fully deterministic: the thread count changes
wall time only, never a single output byte. Self-similarity is always
excluded; duplicate fingerprints are legal neighbors.

The index is two (n, min(k, n-1)) arrays, neighbor ids and similarities, best
neighbor first; the `.amix` file holds the same rows, is read and written in
one call, and is written atomically. Reading checks every row: ids in range,
never the molecule itself, no id twice, similarities in [0, 1] and
non-increasing.
"""
from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chem import EXACT_NBITS, BitWidthMismatchError, Fingerprint, write_atomic

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


# Bytes of one chunk's (rows, n) float64 similarity block; rows follow from n.
# Each of the `threads` chunks in flight holds about twice this at its peak.
CHUNK_BYTES = 16 << 20


def _unpack(fingerprints: list[Fingerprint], nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, nbits) float32 0/1 bit matrix and float32 popcounts; every fingerprint must be nbits wide."""
    if any(fp.nbits != nbits for fp in fingerprints):
        raise BitWidthMismatchError("fingerprint widths differ")
    if nbits >= EXACT_NBITS:
        raise ValueError(f"{nbits}-bit fingerprints: intersection counts are exact only below {EXACT_NBITS} bits")
    words = np.stack([fp.words for fp in fingerprints]).astype("<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1).astype(np.float32)
    return bits, np.bitwise_count(words).sum(axis=1).astype(np.float32)


def _tanimoto(a: np.ndarray, pa: np.ndarray, b: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """S[i, j] = tanimoto(a[i], b[j]) in float64 from unpacked bits and popcounts.

    Every count here is an integer below EXACT_NBITS, exact in float32: the
    BLAS product cannot depend on summation order or thread count, and the
    union is built as pb - inter + pa so no partial sum exceeds it. The
    division runs in float64; union 0 gives 1.0.
    """
    inter = a @ b.T
    union = pb[None, :] - inter
    union += pa[:, None]
    return np.divide(inter, union, out=np.ones(inter.shape), where=union > 0, dtype=np.float64)


def _top(sims: np.ndarray, take: int) -> tuple[np.ndarray, np.ndarray]:
    """The best `take` (id, similarity) per row: descending similarity, ties by ascending id.

    A partition finds each row's take-th largest value; only the candidates at
    or above it are sorted, so ties across that boundary still resolve by id.
    """
    rows, n = sims.shape
    kth = np.partition(sims, n - take, axis=1)[:, n - take]
    row, col = np.nonzero(sims >= kth[:, None])
    val = sims[row, col]
    order = np.lexsort((col, -val, row))
    counts = np.bincount(row, minlength=rows)
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(take)]
    return col[pick], val[pick]


def build_topk(fingerprints: list[Fingerprint], k: int, threads: int = 1) -> SimilarityIndex:
    """Exact top-k neighbor rows for every fingerprint in the store."""
    if not fingerprints:
        raise EmptyStoreError("cannot build an index over zero fingerprints")
    if k < 1:
        raise ValueError("k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    bits, pops = _unpack(fingerprints, fingerprints[0].nbits)
    n = len(fingerprints)
    take = min(k, n - 1)
    if take == 0:
        return SimilarityIndex(k=k, ids=np.empty((n, 0), dtype=np.int64), sims=np.empty((n, 0)))
    chunk = max(1, CHUNK_BYTES // (8 * n))

    def topk_chunk(lo: int) -> tuple[np.ndarray, np.ndarray]:
        hi = min(lo + chunk, n)
        sims = _tanimoto(bits[lo:hi], pops[lo:hi], bits, pops)
        sims[np.arange(hi - lo), np.arange(lo, hi)] = -1.0  # self never counts
        return _top(sims, take)

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
    return _tanimoto(*_unpack(source, nbits), *_unpack(batch, nbits))


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
    write_atomic(path, _HEADER.pack(AMIX_MAGIC, AMIX_VERSION, index.k, index.n), rows.tobytes())


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
    ids = rows["pairs"]["id"].astype(np.int64)  # ids >= 2**63 wrap negative and fail the range check
    sims = rows["pairs"]["sim"].astype(np.float64)
    ascending = np.sort(ids, axis=1)
    for bad, what in (
        (rows["count"] != take, f"has a neighbor count other than {take}"),
        (((ids < 0) | (ids >= n)).any(axis=1), f"lists a neighbor id outside 0..{n - 1}"),
        ((ids == np.arange(n)[:, None]).any(axis=1), "lists itself as a neighbor"),
        ((ascending[:, 1:] == ascending[:, :-1]).any(axis=1), "lists a neighbor twice"),
        (~((sims >= 0.0) & (sims <= 1.0)).all(axis=1), "has a similarity that is NaN or outside [0, 1]"),
        ((sims[:, 1:] > sims[:, :-1]).any(axis=1), "has similarities that increase along its row"),
    ):
        hit = np.flatnonzero(bad)
        if len(hit):
            raise ValueError(f"{path}: molecule {int(hit[0])} {what}")
    return SimilarityIndex(k=k, ids=ids, sims=sims)
