"""Top-k index checks against a brute-force per-pair oracle."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltext import chem, simindex, toydata
from moltext.chem import (
    BitWidthMismatchError,
    Fingerprint,
    compute_fingerprint,
    compute_fingerprints,
    pack_fingerprints,
    parse_smiles,
    tanimoto,
    write_fingerprints,
)
from moltext.simindex import EmptyStoreError, SimilarityIndex, batch_tanimoto, build_topk, read_index, write_index
from test_chem import fail_writes


def random_fps(rng, n, nbits=256, density=0.1):
    out = []
    for _ in range(n):
        count = rng.integers(1, max(2, int(nbits * density)))
        out.append(Fingerprint.from_bits(nbits, set(map(int, rng.integers(0, nbits, count)))))
    return out


def oracle_topk(fps, k):
    """Full sort per row with the documented tie rule, pair-at-a-time tanimoto."""
    n = len(fps)
    result = []
    for i in range(n):
        sims = [(tanimoto(fps[i], fps[j]), j) for j in range(n) if j != i]
        sims.sort(key=lambda t: (-t[0], t[1]))
        result.append([(j, s) for s, j in sims[: min(k, n - 1)]])
    return result


class TestBuildTopk:
    def test_three_identical(self):
        fps = [Fingerprint.from_bits(64, [1, 5])] * 3
        idx = build_topk(fps, k=2)
        assert idx.neighbors[0] == [(1, 1.0), (2, 1.0)]
        assert idx.neighbors[1] == [(0, 1.0), (2, 1.0)]
        assert idx.neighbors[2] == [(0, 1.0), (1, 1.0)]

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        fps = random_fps(rng, 200)
        idx = build_topk(fps, k=10)
        assert idx.neighbors == oracle_topk(fps, 10)

    def test_k_clamped_to_store(self):
        rng = np.random.default_rng(3)
        fps = random_fps(rng, 5)
        idx = build_topk(fps, k=10)
        assert all(len(entries) == 4 for entries in idx.neighbors)
        assert idx.neighbors == oracle_topk(fps, 10)

    def test_self_never_included(self):
        rng = np.random.default_rng(5)
        fps = random_fps(rng, 50)
        idx = build_topk(fps, k=49)
        for i, entries in enumerate(idx.neighbors):
            assert i not in [nid for nid, _ in entries]

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(17)
        fps = random_fps(rng, 150)
        base = build_topk(fps, k=7, threads=1)
        for threads in (2, 8):
            assert build_topk(fps, k=7, threads=threads).neighbors == base.neighbors

    def test_descending_similarity_ascending_id(self):
        rng = np.random.default_rng(23)
        fps = random_fps(rng, 80)
        idx = build_topk(fps, k=20)
        for entries in idx.neighbors:
            sims = [s for _, s in entries]
            assert sims == sorted(sims, reverse=True)
            for (id1, s1), (id2, s2) in zip(entries, entries[1:]):
                if s1 == s2:
                    assert id1 < id2

    def test_errors(self):
        with pytest.raises(EmptyStoreError):
            build_topk([], k=5)
        fp = Fingerprint.from_bits(64, [0])
        with pytest.raises(ValueError):
            build_topk([fp], k=0)
        with pytest.raises(ValueError, match=r"^threads must be >= 1$"):
            build_topk([fp], k=1, threads=0)
        with pytest.raises(BitWidthMismatchError):
            build_topk([fp, Fingerprint.from_bits(128, [0])], k=1)


def argsort_topk(fps, k):
    """Plain reference: full rows of pairwise tanimoto, one stable argsort per row."""
    sims = np.array([[tanimoto(a, b) for b in fps] for a in fps])
    np.fill_diagonal(sims, -1.0)
    order = np.argsort(-sims, axis=1, kind="stable")[:, : min(k, len(fps) - 1)]
    return order, np.take_along_axis(sims, order, axis=1)


def _duplicates():
    rng = np.random.default_rng(4)
    base = random_fps(rng, 4, nbits=128, density=0.05)
    return [base[i] for i in rng.integers(0, 4, size=23)]


def _with_zeros():
    rng = np.random.default_rng(6)
    zero = Fingerprint.from_bits(128, [])
    return [zero if i % 3 == 0 else fp for i, fp in enumerate(random_fps(rng, 20, nbits=128))]


TIE_STORES = {
    "duplicates": (_duplicates, 5),
    "all-zero": (lambda: [Fingerprint.from_bits(64, [])] * 9, 4),
    "some-zero": (_with_zeros, 6),
    "k-at-n-minus-1": (lambda: random_fps(np.random.default_rng(8), 7, nbits=64, density=0.3), 6),
    "k-above-n": (lambda: random_fps(np.random.default_rng(9), 7, nbits=64, density=0.3), 50),
    "n-1": (lambda: [Fingerprint.from_bits(64, [2])], 3),
    "n-2": (lambda: [Fingerprint.from_bits(64, [2]), Fingerprint.from_bits(64, [])], 3),
    "n-2-equal": (lambda: [Fingerprint.from_bits(64, [2])] * 2, 1),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rows_per_chunk", [1, 3, None])
@pytest.mark.parametrize("store", sorted(TIE_STORES))
def test_ties_match_stable_argsort(monkeypatch, store, rows_per_chunk, threads):
    make, k = TIE_STORES[store]
    fps = make()
    if rows_per_chunk:
        monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * len(fps) * rows_per_chunk)
    idx = build_topk(fps, k=k, threads=threads)
    ids, sims = argsort_topk(fps, k)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)
    assert idx.ids.dtype == np.int64 and idx.sims.dtype == np.float64


def _every_column():
    """Every one of the 64 columns occupied; "all-zero" is the store with none."""
    fps = random_fps(np.random.default_rng(12), 17, nbits=64, density=0.4) + [Fingerprint.from_bits(64, range(64))]
    return fps[::-1]


def _split_duplicates():
    """Copies of three fingerprints spread over every tile size tested."""
    rng = np.random.default_rng(14)
    base = random_fps(rng, 3, nbits=128, density=0.05)
    return [base[i] for i in (0, 1, 2, 0, 1, 2, 2, 0, 1, 0, 2)]


def _narrow_first_block():
    """k = 8 over 12 rows: at tile sides 1, 2 and 3 a row's first blocks cannot fill it."""
    return random_fps(np.random.default_rng(15), 12, nbits=64, density=0.2)


def _rare_breaks_ties():
    """Columns 0-7 are set in all 16 rows and so frequent; on them alone every
    pair ties at 1.0. Only the rare columns, set in 2 or 4 rows (c * c <= n),
    separate the neighbors, with ties left inside each group of four."""
    return [Fingerprint.from_bits(64, [*range(8), 8 + i // 2, 40 + i % 4]) for i in range(16)]


TILE_STORES = {
    **TIE_STORES,
    "every-column": (_every_column, 5),
    "split-duplicates": (_split_duplicates, 4),
    "narrow-first-block": (_narrow_first_block, 8),
    "rare-breaks-ties": (_rare_breaks_ties, 3),
}


@pytest.mark.parametrize("side", [1, 2, 3])
@pytest.mark.parametrize("store", sorted(TILE_STORES))
def test_tiles_match_stable_argsort(monkeypatch, store, side):
    """Tiles of side 1, 2, 3: uneven last tiles, tiles narrower than k, pairs split across tiles."""
    make, k = TILE_STORES[store]
    fps = make()
    monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * side * side)
    idx = build_topk(fps, k=k)
    ids, sims = argsort_topk(fps, k)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)


SPLITS = {
    "all-frequent": lambda counts, n: counts > 0,
    "all-rare": lambda counts, n: np.zeros(len(counts), dtype=bool),
}


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("side", [1, 2, 3, None])
@pytest.mark.parametrize("store", sorted(TILE_STORES))
def test_column_split_matches_stable_argsort(monkeypatch, store, side, split):
    """Counts through BLAS only, or through rare-column pairs only, give the same rows."""
    make, k = TILE_STORES[store]
    fps = make()
    if side:
        monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * side * side)
    monkeypatch.setattr(simindex, "_frequent", SPLITS[split])
    idx = build_topk(fps, k=k)
    ids, sims = argsort_topk(fps, k)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)


def test_store_rule_splits_the_tie_breaking_store():
    words = np.stack([fp.words for fp in _rare_breaks_ties()])
    counts = np.unpackbits(words.view(np.uint8), axis=1).sum(axis=0)
    assert np.flatnonzero(simindex._frequent(counts, len(words))).tolist() == list(range(8))


def test_rare_pairs_come_in_pieces_of_about_one_tile(monkeypatch):
    """Many rare pairs in one 2 x 2 tile go through in pieces and still count exactly."""
    fps = [Fingerprint.from_bits(64, range(i % 3, 64, 3)) for i in range(9)]
    monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * 2 * 2)
    monkeypatch.setattr(simindex, "_frequent", SPLITS["all-rare"])
    a = simindex._open(simindex._block(np.stack([fp.words for fp in fps]), np.empty(0, dtype=np.intp), np.arange(64)))
    np.testing.assert_array_equal(np.divide(*simindex._counts(a, a), dtype=np.float64), batch_tanimoto(fps, fps))
    ids, sims = argsort_topk(fps, 4)
    idx = build_topk(fps, k=4)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)


def test_build_memory_does_not_grow_with_the_store(monkeypatch):
    """Going from 2,000 to 4,000 fingerprints adds only the O(n) words and top rows."""
    monkeypatch.setattr(simindex, "CHUNK_BYTES", 1 << 20)
    rng = np.random.default_rng(21)
    words = rng.integers(0, 2**64, size=(4000, 32), dtype=np.uint64, endpoint=False)
    peaks = []
    for n in (2000, 4000):
        fps = [Fingerprint(nbits=2048, words=row) for row in words[:n]]
        tracemalloc.start()
        try:
            build_topk(fps, k=10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 << 20, peaks


def test_sparse_build_memory_does_not_grow_with_the_store(monkeypatch):
    """The same bound on a low-density store, where nearly every column is rare."""
    monkeypatch.setattr(simindex, "CHUNK_BYTES", 1 << 20)
    rng = np.random.default_rng(22)
    bits = [rng.choice(2048, size=8, replace=False) for _ in range(4000)]
    peaks = []
    for n in (2000, 4000):
        fps = [Fingerprint.from_bits(2048, map(int, row)) for row in bits[:n]]
        counts = np.bincount(np.concatenate(bits[:n]), minlength=2048)
        assert simindex._frequent(counts, n).mean() < 0.01
        tracemalloc.start()
        try:
            build_topk(fps, k=10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 << 20, peaks


def test_refuses_widths_beyond_exact_counts():
    wide = [Fingerprint(nbits=1 << 24, words=np.zeros(1 << 18, dtype=np.uint64))] * 2
    with pytest.raises(ValueError, match="exact"):
        build_topk(wide, k=1)
    with pytest.raises(ValueError, match="exact"):
        batch_tanimoto(wide, wide)


class TestBatchTanimoto:
    def test_diagonal_ones_for_same_lists(self):
        rng = np.random.default_rng(2)
        fps = random_fps(rng, 8)
        mat = batch_tanimoto(fps, fps)
        np.testing.assert_allclose(np.diag(mat), 1.0)
        np.testing.assert_allclose(mat, mat.T)

    def test_single_pair(self):
        a = Fingerprint.from_bits(64, [1, 2, 3])
        b = Fingerprint.from_bits(64, [2, 3, 4])
        mat = batch_tanimoto([a], [b])
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(0.5)

    def test_matches_pairwise(self):
        rng = np.random.default_rng(9)
        src = random_fps(rng, 6)
        bat = random_fps(rng, 9)
        mat = batch_tanimoto(src, bat)
        for i in range(6):
            for j in range(9):
                assert mat[i, j] == tanimoto(src[i], bat[j])

    def test_empty_lists_rejected(self):
        with pytest.raises(EmptyStoreError):
            batch_tanimoto([], [Fingerprint.from_bits(64, [0])])

    def test_all_zero_rows_match_pairwise_bit_for_bit(self):
        empty = Fingerprint.from_bits(128, [])
        src = [empty, Fingerprint.from_bits(128, [3, 70]), empty]
        bat = [Fingerprint.from_bits(128, [70, 127]), empty, empty, Fingerprint.from_bits(128, [3])]
        expected = np.array([[tanimoto(a, b) for b in bat] for a in src])
        assert expected[0].tolist() == [0.0, 1.0, 1.0, 0.0]  # empty against non-empty, then against empty
        for store_a, store_b in ((src, bat), (pack_fingerprints(src), pack_fingerprints(bat))):
            mat = batch_tanimoto(store_a, store_b)
            assert mat.dtype == np.float64
            assert mat.tobytes() == expected.tobytes()
        assert batch_tanimoto([empty], [empty]).tolist() == [[1.0]]


class TestIndexFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        fps = random_fps(rng, 40)
        idx = build_topk(fps, k=5)
        path = str(tmp_path / "n.amix")
        write_index(path, idx)
        back = read_index(path)
        assert back.k == idx.k and back.neighbors == idx.neighbors

    def test_byte_layout(self, tmp_path):
        idx = simindex.SimilarityIndex(k=1, ids=np.array([[1], [0]]), sims=np.array([[1.0], [1.0]]))
        path = str(tmp_path / "tiny.amix")
        write_index(path, idx)
        raw = open(path, "rb").read()
        magic, version, k, n = struct.unpack("<4sIIQ", raw[:20])
        assert (magic, version, k, n) == (b"AMIX", 1, 1, 2)
        count, nid, sim = struct.unpack("<IQd", raw[20:40])
        assert (count, nid, sim) == (1, 1, 1.0)

    def test_write_read_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(13)
        fps = random_fps(rng, 25)
        p1, p2 = str(tmp_path / "a.amix"), str(tmp_path / "b.amix")
        write_index(p1, build_topk(fps, k=3, threads=1))
        write_index(p2, build_topk(fps, k=3, threads=8))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.amix"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_index(str(path))

    def test_arrays_match_neighbors_view(self):
        rng = np.random.default_rng(41)
        idx = build_topk(random_fps(rng, 30), k=4)
        assert idx.ids.shape == idx.sims.shape == (30, 4)
        assert idx.ids.dtype == np.int64 and idx.sims.dtype == np.float64
        assert idx.neighbors[7] == list(zip(idx.neighbor_ids(7), idx.sims[7].tolist()))

    def test_single_molecule_round_trip(self, tmp_path):
        idx = build_topk([Fingerprint.from_bits(64, [3])], k=5)
        assert idx.ids.shape == (1, 0)
        path = str(tmp_path / "one.amix")
        write_index(path, idx)
        assert open(path, "rb").read()[20:] == b"\x00" * 4  # one row, count 0
        back = read_index(path)
        assert back.n == 1 and back.neighbors == [[]]


# ---------------------------------------------------------------------------
# The build picks candidates on float32 similarities and ranks them in float64

WIDE = 8192  # wider than 4,096 bits, distinct similarities can share a float32 value
QUERY = 5000

# (inter, union) pairs whose similarities to the query differ but round to one float32 value, smaller first
FLOAT32_PAIRS = [((3001, 5002), (3004, 5007)), ((3010, 5017), (3013, 5022)), ((3019, 5032), (3022, 5037))]


def _to_query(*shapes):
    """Row 0 sets bits 0..QUERY-1; the row for (inter, union), inter <= QUERY <= union,
    shares its first `inter` bits and adds bits QUERY..union-1, so its similarity to
    row 0 is inter / union. A shape of None is an empty row."""
    rows = [range(QUERY)]
    rows += [[] if shape is None else [*range(shape[0]), *range(QUERY, shape[1])] for shape in shapes]
    return [Fingerprint.from_bits(WIDE, row) for row in rows]


def _float32_pairs():
    """Both orders of each pair and two empty rows: row 0 ranks members of a pair apart
    only in float64, and an id that lost in float32 must still be picked."""
    (a, b), (c, d), (e, f) = FLOAT32_PAIRS
    return _to_query(a, b, e, None, f, d, c, None)


def _float64_ties():
    """Five rows at similarity 3/5 to row 0, as five different fractions, around rows above and below it."""
    return _to_query((3003, 5005), FLOAT32_PAIRS[0][1], (4000, 5000), (3012, 5020), (3000, 5000), (3006, 5010), None,
                     (3009, 5015), FLOAT32_PAIRS[2][0], None)


WIDE_STORES = {
    "float32-pair": (lambda: _to_query(*FLOAT32_PAIRS[0]), 1),
    "float32-pairs": (_float32_pairs, 3),
    "float64-ties": (_float64_ties, 3),
    "float64-ties-k1": (_float64_ties, 1),
}


def test_float32_pairs_are_distinct_similarities_with_one_float32_value():
    for (a, b), (c, d) in FLOAT32_PAIRS:
        assert a / b < c / d
        assert np.float32(a) / np.float32(b) == np.float32(c) / np.float32(d)


@pytest.mark.parametrize("side", [1, 2, 3, None])
@pytest.mark.parametrize("store", sorted(WIDE_STORES))
def test_wide_stores_match_stable_argsort(monkeypatch, store, side):
    """Sides 1-3 make several column blocks and transposed merges; None is one tile."""
    make, k = WIDE_STORES[store]
    fps = make()
    if side:
        monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * side * side)
    idx = build_topk(fps, k=k)
    ids, sims = argsort_topk(fps, k)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)


@settings(max_examples=80, deadline=None)
@given(
    nbits=st.sampled_from([64, 4096, WIDE]),
    shapes=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=14),
    side=st.integers(1, 6),
    k=st.integers(1, 8),
)
def test_random_stores_match_stable_argsort(nbits, shapes, picks, side, k):
    """Row (x, y) sets the first x of the low half's bits and the first y of the
    high half's: every pair's similarity is a fraction of large counts. Rows are
    drawn with repeats, and (0, 0) is an empty row."""
    half = nbits // 2
    rows = [[*range(round(x * half)), *range(half, half + round(y * half))] for x, y in shapes]
    fps = [Fingerprint.from_bits(nbits, rows[i % len(rows)]) for i in picks]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "CHUNK_BYTES", 8 * side * side)
        idx = build_topk(fps, k=k)
    ids, sims = argsort_topk(fps, k)
    np.testing.assert_array_equal(idx.ids, ids)
    np.testing.assert_array_equal(idx.sims, sims)


# sha256 of the .amix the tuple-list builder wrote for this store; the array
# builder must reproduce it byte for byte at any thread count
GOLDEN_AMIX_SHA256 = "42cbc0831ff17ab22724401b42f428abf9a47803804952e490b371505ffe3136"


@pytest.fixture(scope="module")
def pool_fingerprints():
    return [compute_fingerprint(parse_smiles(s), radius=2, nbits=2048) for s in toydata.smiles_pool(600)]


@pytest.mark.parametrize("threads", [1, 2])
def test_amix_matches_golden_digest(pool_fingerprints, tmp_path, threads):
    path = str(tmp_path / "pool.amix")
    write_index(path, build_topk(pool_fingerprints, k=10, threads=threads))
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == GOLDEN_AMIX_SHA256


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [17, 33, 40])
def test_ragged_tiles_are_views_of_one_set_of_tile_arrays(monkeypatch, pool_fingerprints, n, threads):
    """Tiles of side 16 leave a one-row last block (n = 17, 33) or a partial one (n = 40);
    every tile's counts and union are written into the same two arrays, allocated once."""
    monkeypatch.setattr(simindex, "CHUNK_BYTES", 8 * 16 * 16)
    tiles = []
    real = simindex._counts

    def spy(a, b, inter=None, union=None):
        tiles.append((inter, union))
        return real(a, b, inter, union)

    monkeypatch.setattr(simindex, "_counts", spy)
    fps = pool_fingerprints[:n]
    assert build_topk(fps, k=5, threads=threads).neighbors == oracle_topk(fps, 5)
    blocks = -(-n // 16)
    assert len(tiles) == blocks * (blocks + 1) // 2
    first_inter, first_union = tiles[0]
    assert all(np.shares_memory(inter, first_inter) and np.shares_memory(union, first_union) for inter, union in tiles)


# sha256 of the .amix the per-tile partition build wrote for the whole pool:
# 4,634 molecules make seven row blocks at the default CHUNK_BYTES, so this pins
# the cross-tile merge that the 600-molecule digest above never reaches
GOLDEN_POOL_AMIX_SHA256 = "865ac2c61e91b9e65dec17962843904f5d184954260c90f1d9621e1a881cbc5e"


@pytest.fixture(scope="module")
def whole_pool_fingerprints():
    return [compute_fingerprint(parse_smiles(s), radius=2, nbits=2048) for s in toydata.smiles_pool(4634)]


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_tile_amix_matches_golden_digest(whole_pool_fingerprints, tmp_path, threads):
    assert -(-len(whole_pool_fingerprints) // math.isqrt(simindex.CHUNK_BYTES // 8)) == 7
    path = str(tmp_path / "pool.amix")
    write_index(path, build_topk(whole_pool_fingerprints, k=10, threads=threads))
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == GOLDEN_POOL_AMIX_SHA256


def test_whole_pool_build_memory_stays_under_a_few_tiles(whole_pool_fingerprints):
    """At the default CHUNK_BYTES a tile array is 2.1 MB; the 1,448-row tiles of a
    16 MiB CHUNK_BYTES took a 42.5 MiB traced peak on the same pool."""
    tracemalloc.start()
    try:
        build_topk(whole_pool_fingerprints, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


# sha256 of the .amix for 20,000 molecules drawn from the pool with replacement:
# 28 row blocks, and each molecule appears about four times, so ties at
# similarity 1.0 cross many tiles
GOLDEN_20K_AMIX_SHA256 = "032f828c5374c7711576c48caea63d7fa494b5c22a98cd5bc7ea2801b7aba142"


def test_large_store_amix_matches_golden_digest(whole_pool_fingerprints, tmp_path):
    store = pack_fingerprints(whole_pool_fingerprints)[np.random.default_rng(7).integers(0, 4634, size=20000)]
    path = str(tmp_path / "large.amix")
    write_index(path, build_topk(store, k=10))
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == GOLDEN_20K_AMIX_SHA256


# ---------------------------------------------------------------------------
# A store is chem's packed (n, nbits/64) matrix or a list of same-width Fingerprints


@pytest.fixture(scope="module")
def pool_store():
    graphs = [parse_smiles(s) for s in toydata.smiles_pool(300)]
    matrix = compute_fingerprints(graphs, radius=2, nbits=1024)
    return matrix, [compute_fingerprint(graph, radius=2, nbits=1024) for graph in graphs]


def test_build_topk_gives_the_same_index_for_either_form(pool_store):
    matrix, fps = pool_store
    packed, listed = build_topk(matrix, k=7), build_topk(fps, k=7)
    np.testing.assert_array_equal(packed.ids, listed.ids)
    np.testing.assert_array_equal(packed.sims, listed.sims)


def test_batch_tanimoto_gives_the_same_matrix_for_either_form(pool_store):
    matrix, fps = pool_store
    listed = batch_tanimoto(fps[:40], fps[100:160])
    np.testing.assert_array_equal(batch_tanimoto(matrix[:40], matrix[100:160]), listed)
    np.testing.assert_array_equal(batch_tanimoto(matrix[[5, 5, 9]], fps[100:160])[[0, 2]], listed[[5, 9]])


def test_pack_passes_a_store_through_and_stacks_a_list(pool_store):
    matrix, fps = pool_store
    assert pack_fingerprints(matrix) is matrix
    np.testing.assert_array_equal(pack_fingerprints(fps), matrix)


MIXED_WIDTHS = [Fingerprint.from_bits(64, [0]), Fingerprint.from_bits(128, [0]), Fingerprint.from_bits(64, [1])]


@pytest.mark.parametrize(
    "call",
    [
        lambda store, path: write_fingerprints(path, store),
        lambda store, path: build_topk(store, k=1),
        lambda store, path: batch_tanimoto(store, store),
        lambda store, path: batch_tanimoto(store[:1], store[1:2]),
        lambda store, path: batch_tanimoto(np.zeros((2, 1), np.uint64), np.zeros((2, 2), np.uint64)),
        lambda store, path: build_topk(np.zeros(4, np.uint64), k=1),
        lambda store, path: build_topk(np.zeros((2, 1), np.int64), k=1),
    ],
    ids=["write", "build_topk", "batch_tanimoto", "two-lists", "two-matrices", "1-D", "int64"],
)
def test_a_store_of_mixed_widths_is_refused(tmp_path, call):
    path = str(tmp_path / "mixed.amfp")
    with pytest.raises(BitWidthMismatchError):
        call(MIXED_WIDTHS, path)
    assert not (tmp_path / "mixed.amfp").exists()


def _valid_amix(path, n=5, k=3):
    write_index(path, build_topk(random_fps(np.random.default_rng(n), n), k=k))
    return bytearray(open(path, "rb").read())


def _header(k, n):
    return struct.pack("<4sIIQ", b"AMIX", 1, k, n)


def _corrupt_count(raw):
    raw[20:24] = struct.pack("<I", 0xFFFFFFF0)  # the count of molecule 0
    return raw


def _neighbor_id_too_big(raw):
    raw[24:32] = struct.pack("<Q", 5)  # first neighbor of molecule 0; n is 5
    return raw


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_count, "molecule 0"),
        (lambda raw: raw[:-1], "payload bytes"),
        (lambda raw: raw + b"\x00", "payload bytes"),
        (lambda raw: _header(0, 5) + raw[20:], "k=0"),
        (lambda raw: _header(3, 0), "n=0"),
        (_neighbor_id_too_big, "molecule 0"),
    ],
    ids=["row-count", "truncated-body", "trailing-bytes", "k-zero", "n-zero", "neighbor-id"],
)
def test_reader_rejects_corrupt_file(tmp_path, corrupt, message):
    path = tmp_path / "bad.amix"
    path.write_bytes(bytes(corrupt(_valid_amix(str(path)))))
    with pytest.raises(ValueError, match=message) as info:
        read_index(str(path))
    assert str(path) in str(info.value)


def _valid_rows(n=5, k=3):
    idx = build_topk(random_fps(np.random.default_rng(n), n), k=k)
    return idx.ids.copy(), idx.sims.copy()


def _self_id(ids, sims):
    ids[2, 1] = 2


def _twice(ids, sims):
    ids[2, 1] = ids[2, 0]


def _nan(ids, sims):
    sims[2, 1] = np.nan


def _above_one(ids, sims):
    sims[2, 0] = 1.5


def _negative(ids, sims):
    sims[2, :] = [0.5, 0.25, -0.25]


def _increasing(ids, sims):
    sims[2, :] = [0.1, 0.2, 0.2]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_self_id, "itself"),
        (_twice, "twice"),
        (_nan, "NaN or outside"),
        (_above_one, "NaN or outside"),
        (_negative, "NaN or outside"),
        (_increasing, "increase"),
    ],
    ids=["self-id", "same-id-twice", "nan-sim", "sim-above-one", "negative-sim", "increasing-sims"],
)
def test_reader_rejects_bad_rows(tmp_path, corrupt, message):
    ids, sims = _valid_rows()
    corrupt(ids, sims)
    path = str(tmp_path / "rows.amix")
    write_index(path, SimilarityIndex(k=3, ids=ids, sims=sims))
    with pytest.raises(ValueError, match=message) as info:
        read_index(path)
    assert path in str(info.value) and "molecule 2" in str(info.value)


def test_failed_index_write_leaves_no_partial_file(tmp_path, monkeypatch):
    idx = build_topk(random_fps(np.random.default_rng(3), 6), k=2)
    path = tmp_path / "nn.amix"
    fail_writes(monkeypatch)
    with pytest.raises(OSError):
        write_index(str(path), idx)
    assert list(tmp_path.iterdir()) == []


def test_payloads_are_written_from_the_arrays_buffers(tmp_path, monkeypatch, pool_store):
    """The .amfp and .amix payloads go to the file as views of their arrays, not as bytes copies."""
    matrix, _ = pool_store
    written = []

    class Recording:
        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            written.append(data)
            return self.fh.write(data)

    monkeypatch.setattr(chem, "open", Recording, raising=False)
    write_fingerprints(str(tmp_path / "pool.amfp"), matrix)
    write_index(str(tmp_path / "pool.amix"), build_topk(matrix, k=3))
    header, payload, _, rows = written
    assert type(header) is bytes and type(payload) is memoryview and type(rows) is memoryview
    assert np.shares_memory(payload.obj, matrix)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 5), data=st.data())
def test_every_truncation_is_rejected(tmp_path_factory, n, k, data):
    path = str(tmp_path_factory.mktemp("cut") / "cut.amix")
    raw = _valid_amix(path, n=n, k=k)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    with pytest.raises(ValueError, match="cut.amix"):
        read_index(path)
