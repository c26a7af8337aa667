"""Exact top-k Tanimoto neighbor search over a fingerprint store.

Brute force over square tiles of the all-pairs similarity matrix; one counting
kernel, `_counts`, serves the index build and `batch_tanimoto`. Both take a
store as chem's packed (n, nbits/64) uint64 array, used as it is, or as a list
of same-width `Fingerprint`s, which `pack_fingerprints` stacks into one. The
store stays packed throughout. Intersection counts come in two parts. A bit
column set in c of the n fingerprints is frequent when c * c > n: a tile's
counts over those columns are one float32 BLAS product `bits_I @ bits_J.T`,
with column block J's frequent columns unpacked once for all its tiles. Every
other set bit is kept as a (column, row) incidence list, and each pair of rows
in a tile that shares such a rare column adds one to its count directly. A
rare column costs about c * c pairs instead of n * n / 2 multiply-adds, so the
BLAS work is O(n**2 * frequent columns) and the rest is near-linear. Every
count is an exact integer: every partial sum is below 2**24, which float32
represents exactly, so neither the summation order, the column split nor the
BLAS thread count can change it. Wider fingerprints are refused. Similarities
are the float64 quotient inter / union; `_counts` counts two empty
fingerprints as 1 / 1, for the build and `batch_tanimoto`.

The build visits each block pair I <= J once: one tile serves rows I and,
through its transpose, rows J, so every pair is computed once. Each row keeps
a running best min(k, n-1) under one total order, descending similarity then
ascending id, which is the order of a full stable sort. Tiles go in ascending
column-block order (J outer, I <= J inner), so every row meets its column
blocks in ascending id order. Every tile, and through its transpose every
tile's column side, goes through one merge: the candidates beating a row's
cut-off are sorted together with the entries the row holds, over just the rows
that got any, as in chemfp's threshold top-k search (Dalke, J. Cheminform.
2019). In a row's first block the cut-off is the row's min(k, width)-th best
in that block, found by a partition, and entries equal to it are candidates.
Later, an entry is a candidate only if it is strictly above the row's current
k-th: on a tie it loses, since its id is larger than every id the row holds. A
tile and a piece of unpacked bits take about CHUNK_BYTES. The tile arrays
(counts, union, float32 quotient and a first block's partition copy) are
allocated once per build and every tile is written into their front, so no
tile faults in fresh pages, and memory is those four tiles plus
O(n (k + nbits/64)) plus the rare incidence lists, O(n * popcount), whatever n
and the width. Results are fully deterministic, and the `threads` argument
changes nothing. Self-similarity is always excluded; duplicate
fingerprints are legal neighbors.

The cut-offs run on a float32 tile, and only the cells that pass get their
float64 similarity. Both quotients are correct roundings of one fraction of
exact counts, so x > y gives fl32(x) >= fl32(y), and different fractions of
counts below 2**24 differ by more than a float64 step: equal float64
similarities are equal fractions. So the float32 cut-offs, a first block's
min(k, width)-th best float32 value and later the row's k-th rounded to
float32, ties passing (above 4,096 bits different similarities can share a
float32 value), admit every float64 candidate. A later block's survivors
are then held to the strict rule in float64, and a first block's extra
candidates lose the merge, so every `.amix` byte is that of a float64 tile.

The index is two (n, min(k, n-1)) arrays, neighbor ids and similarities, best
neighbor first; the `.amix` file holds the same rows, is read and written in
one call, and is written atomically. Reading checks every row: ids in range,
never the molecule itself, no id twice, similarities in [0, 1] and
non-increasing.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chem import EXACT_NBITS, BitWidthMismatchError, pack_fingerprints, read_framed, write_atomic

AMIX_MAGIC = b"AMIX"
AMIX_VERSION = 1
AMIX_MAX_K = 2**32 - 1  # the header stores k as a u32


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


# Sets the tile side, sqrt(CHUNK_BYTES / 8) = 724, so one float32 tile array
# fits a core's L2 cache; tile arrays and bit pieces unpacked at once stay
# within a few times CHUNK_BYTES, whatever the store's size and width.
CHUNK_BYTES = 4 << 20


def _exact(fingerprints) -> np.ndarray:
    """The packed store, refused when it is too wide for exact intersection counts."""
    words = pack_fingerprints(fingerprints)
    nbits = 64 * words.shape[1]
    if nbits >= EXACT_NBITS:
        raise ValueError(f"{nbits}-bit fingerprints: intersection counts are exact only below {EXACT_NBITS} bits")
    return words


def _bits(words: np.ndarray):
    """(first row, bool bit matrix) pieces of packed rows: as many rows as fit CHUNK_BYTES, at least one."""
    step = max(1, CHUNK_BYTES // (64 * words.shape[1]))
    for lo in range(0, len(words), step):
        yield lo, np.unpackbits(words[lo : lo + step].view(np.uint8), axis=1).view(bool)


def _frequent(counts: np.ndarray, n: int) -> np.ndarray:
    """Which bit columns go through BLAS, given each column's set count over n rows.

    A column set in c rows costs a BLAS product n * n / 2 multiply-adds but
    only about c * c / 2 when its member rows are paired directly, so it goes
    through BLAS only when c * c > n.
    """
    return counts * counts > n


def _block(words: np.ndarray, frequent=slice(None), rare: np.ndarray = np.empty(0, dtype=np.intp)) -> tuple:
    """Packed rows as `_counts` takes them: the `frequent` bit columns packed
    as bits, float32 popcounts, and the set bits of the `rare` columns as
    (position in `rare`, row) pairs sorted by column, then row. By default
    every column is frequent."""
    pieces = [(np.packbits(bits[:, frequent], axis=1), np.flatnonzero(bits[:, rare]) + lo * len(rare))
              for lo, bits in _bits(words)]
    packed, at = map(np.concatenate, zip(*pieces))
    row, col = np.divmod(at, len(rare))
    order = np.argsort(col, kind="stable")
    pop = np.bitwise_count(words).sum(axis=1).astype(np.float32)
    return packed, pop, col[order], row[order]


def _open(block: tuple) -> tuple:
    """A `_block` as `_counts` takes it: the packed frequent columns unpacked to a float32 0/1 matrix."""
    return np.unpackbits(block[0], axis=1).astype(np.float32), *block[1:]


def _counts(
    a: tuple, b: tuple, inter: np.ndarray | None = None, union: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """inter[i, j] and union[i, j] of a[i] and b[j], float32, for two `_open` blocks with the same frequent columns.

    When given, `inter` and `union` are C-contiguous float32 arrays of that
    shape, and the counts are written into them.

    Intersections are the BLAS product of the frequent columns plus one count
    for every pair of rows that share a rare column. Every count here is an
    integer below EXACT_NBITS, exact in float32: the result cannot depend on
    summation order, thread count or which columns were frequent, and the
    union is built as pb - inter + pa so no partial sum exceeds it. Two empty
    fingerprints get inter = union = 1, as `chem.tanimoto` scores them 1.0.
    """
    bits_a, pa, col_a, row_a = a
    bits_b, pb, col_b, row_b = b
    inter = np.matmul(bits_a, bits_b.T, out=inter)
    if len(col_a) and len(col_b):
        # each rare entry of a pairs with b's entries in its column: the run lo:lo+width
        lo = np.searchsorted(col_b, col_a, "left")
        width = np.searchsorted(col_b, col_a, "right") - lo
        # in pieces of about one tile of pairs, however the rare bits cluster
        cuts = [0, *np.searchsorted(np.cumsum(width), np.arange(inter.size, width.sum(), inter.size)), len(col_a)]
        for start, stop in zip(cuts, cuts[1:]):
            run = width[start:stop]
            at = np.repeat(lo[start:stop] - (np.cumsum(run) - run), run) + np.arange(run.sum())
            shared, times = np.unique(np.repeat(row_a[start:stop], run) * len(pb) + row_b[at], return_counts=True)
            inter.reshape(-1)[shared] += times
    union = np.subtract(pb[None, :], inter, out=union)
    union += pa[:, None]
    empty = np.ix_(pa == 0, pb == 0)
    inter[empty] = union[empty] = 1.0
    return inter, union


def _front(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The first shape[0] * shape[1] items of a flat array, as a C-contiguous view of that shape."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def build_topk(fingerprints, k: int, threads: int = 1) -> SimilarityIndex:
    """Exact top-k neighbor rows for every fingerprint in the store, packed or a `Fingerprint` list.

    `threads` is checked and otherwise unused: the build is one sequence of
    BLAS tiles, and BLAS already spreads each product over every core.
    """
    if not len(fingerprints):
        raise EmptyStoreError("cannot build an index over zero fingerprints")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > AMIX_MAX_K:
        raise ValueError(f"k must be <= {AMIX_MAX_K}, the largest an index file can record")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    words = _exact(fingerprints)
    n = len(words)
    take = min(k, n - 1)
    if take == 0:
        return SimilarityIndex(k=k, ids=np.empty((n, 0), dtype=np.int64), sims=np.empty((n, 0)))
    side = max(1, math.isqrt(CHUNK_BYTES // 8))
    blocks = [slice(lo, min(lo + side, n)) for lo in range(0, n, side)]
    counts = sum(bits.sum(axis=0, dtype=np.int64) for _, bits in _bits(words))  # column set counts
    frequent = _frequent(counts, n)
    split = np.flatnonzero(frequent), np.flatnonzero(~frequent & (counts > 0))
    parts = [_block(words[rows], *split) for rows in blocks]
    # The tile arrays, allocated once: a tile, ragged edge ones too, is a
    # contiguous view of each one's front, so no tile allocates pages afresh.
    cells = (blocks[0].stop - blocks[0].start) ** 2
    inter_buf, union_buf, tile_buf, best_buf = (np.empty(cells, dtype=np.float32) for _ in range(4))
    # Running top rows; the sentinels (similarity -inf, id n) lose to any real
    # entry, and every row meets n - 1 >= take real ones.
    ids = np.full((n, take), n, dtype=np.int64)
    sims = np.full((n, take), -np.inf)

    def merge(
        rows: slice, cols: slice, tile: np.ndarray, inter: np.ndarray, union: np.ndarray, flip: bool = False
    ) -> None:
        """Fold row rows.start + r against id cols.start + c into the running
        rows, given float32 tile[r, c] over counts inter[r, c] and union[r, c],
        or all three at [c, r] when flipped. The candidates are, in float64,
        the entries at or above the row's min(take, width)-th best in its
        first column block, then those strictly above its current k-th."""
        if cols.start == 0:
            cut = max(0, cols.stop - cols.start - take)
            best = _front(best_buf, tile.T.shape if flip else tile.shape)
            np.copyto(best, tile.T if flip else tile)  # contiguous rows partition faster
            best.partition(cut, axis=1)
            cutoff = best[:, cut]
        else:
            cutoff = sims[rows, -1].astype(np.float32)
        # a float32 pass over the tile in its own layout; the lexsort below groups rows
        at = np.flatnonzero(tile >= (cutoff if flip else cutoff[:, None]))
        major, minor = np.divmod(at, tile.shape[1])
        row, col = (minor, major) if flip else (major, minor)
        row += rows.start
        val = np.divide(inter.take(at), union.take(at), dtype=np.float64)
        keep = val > sims[row, -1]  # in a later block, a tie with the k-th loses on id
        if not keep.any():  # a later tile often changes no row
            return
        row, col, val = row[keep], col[keep], val[keep]
        hit, fresh = np.unique(row, return_counts=True)
        cand_rows = np.concatenate([np.repeat(hit, take), row])
        cand_ids = np.concatenate([ids[hit].ravel(), col + cols.start])
        cand_sims = np.concatenate([sims[hit].ravel(), val])
        # stable: a tie keeps the held entries first, then the new ones by id
        order = np.lexsort((-cand_sims, cand_rows))
        sizes = fresh + take
        pick = order[(np.cumsum(sizes) - sizes)[:, None] + np.arange(take)]
        ids[hit] = cand_ids[pick]
        sims[hit] = cand_sims[pick]

    # Column blocks J in ascending order, and row blocks I <= J within each,
    # so every row meets its column blocks in ascending id order: after the
    # first, an entry that only ties a row's k-th loses to it on id.
    for j, right in enumerate(blocks):
        column = _open(parts[j])  # unpacked once for all its tiles
        for i, left in enumerate(blocks[: j + 1]):
            shape = (left.stop - left.start, right.stop - right.start)
            inter, union, tile = (_front(buf, shape) for buf in (inter_buf, union_buf, tile_buf))
            _counts(column if i == j else _open(parts[i]), column, inter, union)
            if i == j:  # self never counts: -1 / 1
                np.fill_diagonal(inter, -1.0)
                np.fill_diagonal(union, 1.0)
            np.divide(inter, union, out=tile)
            merge(left, right, tile, inter, union)  # rows I meet column block J
            if i < j:
                merge(right, left, tile, inter, union, flip=True)  # rows J meet column block I
    return SimilarityIndex(k=k, ids=ids, sims=sims)


def batch_tanimoto(source, batch) -> np.ndarray:
    """Matrix S with S[i, j] = tanimoto(source[i], batch[j]); each side packed or a `Fingerprint` list."""
    if not len(source) or not len(batch):
        raise EmptyStoreError("batch_tanimoto needs non-empty fingerprint stores")
    a, b = _exact(source), _exact(batch)
    if a.shape[1] != b.shape[1]:
        raise BitWidthMismatchError(f"fingerprint widths differ: {64 * a.shape[1]} vs {64 * b.shape[1]}")
    return np.divide(*_counts(_open(_block(a)), _open(_block(b))), dtype=np.float64)


# ---------------------------------------------------------------------------
# Index file format: magic "AMIX", u32 version, u32 k, u64 n, then per
# molecule a u32 entry count followed by count x (u64 neighbor id, f64
# similarity). Every row holds exactly min(k, n-1) entries.

_AMIX_HEADER = struct.Struct("<4sIIQ")


def _row_dtype(take: int) -> np.dtype:
    return np.dtype([("count", "<u4"), ("pairs", [("id", "<u8"), ("sim", "<f8")], (take,))])


def write_index(path: str, index: SimilarityIndex) -> None:
    take = index.ids.shape[1]
    rows = np.empty(index.n, dtype=_row_dtype(take))
    rows["count"] = take
    rows["pairs"]["id"] = index.ids
    rows["pairs"]["sim"] = index.sims
    write_atomic(path, _AMIX_HEADER.pack(AMIX_MAGIC, AMIX_VERSION, index.k, index.n), rows.data)


def read_index(path: str) -> SimilarityIndex:
    (k, n), body = read_framed(path, _AMIX_HEADER, AMIX_MAGIC, AMIX_VERSION, "index file")
    if k < 1 or n < 1:
        raise ValueError(f"{path}: corrupt header, k={k} n={n}")
    take = min(k, n - 1)
    row_bytes = 4 + 16 * take
    if len(body) != n * row_bytes:
        raise ValueError(f"{path}: expected {n} rows of {row_bytes} bytes, found {len(body)} payload bytes")
    rows = np.frombuffer(body, dtype=_row_dtype(take))
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
