"""Exact top-k Tanimoto neighbor search over a fingerprint store.

Brute force over square tiles of the all-pairs similarity matrix; one kernel
serves the index build and `batch_tanimoto`. The store stays packed as
(n, nbits/64) uint64 words. A block of rows is unpacked on demand into a
float32 0/1 matrix of the occupied bit columns only, those set in at least
one fingerprint, since an all-zero column adds nothing to any count. A tile's
intersection counts are one BLAS product `bits_I @ bits_J.T`. Those counts
are exact: every partial sum is an integer below 2**24, which float32
represents exactly, so neither the summation order, the columns kept nor the
BLAS thread count can change them. Wider fingerprints are refused.
Similarities are the float64 quotient inter / union, 1.0 when the union is
empty.

The build visits each block pair I <= J once: one tile serves rows I and,
through its transpose, rows J, so every pair is computed once. Each row keeps
a running best min(k, n-1) under one total order, descending similarity then
ascending id, which is the order of a full stable sort. Under a total order
the best of a union is the best of the parts' bests, so each tile only adds
its own best columns to the rows it touches: a partition finds a row's cut-off
similarity, and only the candidates at or above it are sorted. The tile side
is about sqrt(CHUNK_BYTES / 8), so memory is a few tiles plus O(n (k +
nbits/64)), whatever n is. Results are fully deterministic, and the `threads`
argument changes nothing. Self-similarity is always excluded; duplicate
fingerprints are legal neighbors.

The index is two (n, min(k, n-1)) arrays, neighbor ids and similarities, best
neighbor first; the `.amix` file holds the same rows, is read and written in
one call, and is written atomically. Reading checks every row: ids in range,
never the molecule itself, no id twice, similarities in [0, 1] and
non-increasing.
"""
from __future__ import annotations

import math
import os
import struct
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


# Bytes of one tile's (side, side) float64 similarity block. A build holds a
# few blocks this size at its peak, whatever the store's size.
CHUNK_BYTES = 16 << 20


def _words(fingerprints: list[Fingerprint], nbits: int) -> np.ndarray:
    """(n, nbits/64) packed little-endian words; every fingerprint must be nbits wide."""
    if any(fp.nbits != nbits for fp in fingerprints):
        raise BitWidthMismatchError("fingerprint widths differ")
    if nbits >= EXACT_NBITS:
        raise ValueError(f"{nbits}-bit fingerprints: intersection counts are exact only below {EXACT_NBITS} bits")
    return np.stack([fp.words for fp in fingerprints]).astype("<u8")


def _unpack(words: np.ndarray, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """float32 0/1 matrix of the `cols` bit columns of packed rows, and float32 popcounts."""
    bits = np.unpackbits(words.view(np.uint8), axis=1)[:, cols].astype(np.float32)
    return bits, np.bitwise_count(words).sum(axis=1).astype(np.float32)


def _tanimoto(a: np.ndarray, pa: np.ndarray, b: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """S[i, j] = tanimoto(a[i], b[j]) in float64 from unpacked bits and popcounts.

    Every count here is an integer below EXACT_NBITS, exact in float32: the
    BLAS product cannot depend on summation order or thread count, and the
    union is built as pb - inter + pa so no partial sum exceeds it. The
    division runs in float64; union 0, two empty fingerprints, gives 1.0.
    """
    inter = a @ b.T
    union = pb[None, :] - inter
    union += pa[:, None]
    with np.errstate(invalid="ignore"):
        sims = np.divide(inter, union, dtype=np.float64)
    sims[np.ix_(pa == 0, pb == 0)] = 1.0
    return sims


def _top(sims: np.ndarray, take: int) -> tuple[np.ndarray, np.ndarray]:
    """The best `take` (column, similarity) per row: descending similarity, ties by ascending column.

    A partition finds each row's take-th largest value; only the candidates at
    or above it are sorted, so ties across that boundary still resolve by
    column. The candidates come out in (row, column) order and the sort is
    stable, so sorting by (row, -similarity) keeps tied columns ascending.
    """
    rows, n = sims.shape
    kth = np.partition(sims, n - take, axis=1)[:, n - take]
    row, col = np.divmod(np.flatnonzero(sims >= kth[:, None]), n)
    val = sims[row, col]
    order = np.lexsort((-val, row))
    counts = np.bincount(row, minlength=rows)
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(take)]
    return col[pick], val[pick]


def build_topk(fingerprints: list[Fingerprint], k: int, threads: int = 1) -> SimilarityIndex:
    """Exact top-k neighbor rows for every fingerprint in the store.

    `threads` is checked and otherwise unused: the build is one sequence of
    BLAS tiles, and BLAS already spreads each product over every core.
    """
    if not fingerprints:
        raise EmptyStoreError("cannot build an index over zero fingerprints")
    if k < 1:
        raise ValueError("k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    words = _words(fingerprints, fingerprints[0].nbits)
    n = len(words)
    take = min(k, n - 1)
    if take == 0:
        return SimilarityIndex(k=k, ids=np.empty((n, 0), dtype=np.int64), sims=np.empty((n, 0)))
    cols = np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(words).view(np.uint8)))
    # Running top rows; the sentinels (similarity -inf, id n) lose to any real
    # entry, and every row meets n - 1 >= take real ones.
    ids = np.full((n, take), n, dtype=np.int64)
    sims = np.full((n, take), -np.inf)

    def merge(rows: slice, first: int, tile: np.ndarray) -> None:
        """Fold the tile's best columns (ids from `first` on) into the running rows."""
        top_ids, top_sims = _top(tile, min(take, tile.shape[1]))
        cand_ids = np.hstack([ids[rows], top_ids + first])
        cand_sims = np.hstack([sims[rows], top_sims])
        order = np.lexsort((cand_ids, -cand_sims))[:, :take]
        ids[rows] = np.take_along_axis(cand_ids, order, axis=1)
        sims[rows] = np.take_along_axis(cand_sims, order, axis=1)

    side = max(1, math.isqrt(CHUNK_BYTES // 8))
    blocks = [slice(lo, min(lo + side, n)) for lo in range(0, n, side)]
    for i, rows in enumerate(blocks):
        a, pa = _unpack(words[rows], cols)
        tile = _tanimoto(a, pa, a, pa)
        np.fill_diagonal(tile, -1.0)  # self never counts
        merge(rows, rows.start, tile)
        for other in blocks[i + 1 :]:
            tile = _tanimoto(a, pa, *_unpack(words[other], cols))
            merge(rows, other.start, tile)
            merge(other, rows.start, np.ascontiguousarray(tile.T))  # contiguous rows partition faster
    return SimilarityIndex(k=k, ids=ids, sims=sims)


def batch_tanimoto(source: list[Fingerprint], batch: list[Fingerprint]) -> np.ndarray:
    """Matrix S with S[i, j] = tanimoto(source[i], batch[j])."""
    if not source or not batch:
        raise EmptyStoreError("batch_tanimoto needs non-empty fingerprint lists")
    nbits = source[0].nbits
    return _tanimoto(*_unpack(_words(source, nbits)), *_unpack(_words(batch, nbits)))


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
