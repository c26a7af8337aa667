"""Molecular graphs from SMILES, circular fingerprints, and Tanimoto similarity.

Covers the organic-subset SMILES grammar (B, C, N, O, P, S, F, Cl, Br, I,
aromatic lowercase forms, bracket atoms with charge and explicit hydrogens,
branches, ring closures, explicit bond orders). A bracket atom names one of
the 118 elements of `ELEMENTS`, two letters before one, so `[Co]` is cobalt,
or one of the aromatic b c n o p s. No valence model, no kekulization, no
aromaticity perception: aromatic flags come solely from lowercase atoms and
':' bonds. Stereo markers are accepted and ignored. Multi-fragment inputs
('.'), bond symbols without an atom on each side, two bond symbols in a row
and a bond symbol right before a branch are rejected.

A parsed molecule is held as columns, not as per-atom and per-bond objects.
Every distinct `Atom` gets a small int kind id the first time a graph holds
it (the organic-subset atoms at import); a graph stores one kind id per atom
and its bonds as one flat list of ints, (a, b, order code) per bond. The
parser makes one table lookup per character to pick its branch, appends
those ints as it reads, and refuses duplicate and self bonds while parsing,
so the graph it returns skips the checks that a `MolecularGraph(...)` built
from `Atom`s and `Bond`s runs. `MolecularGraph.atoms` and `.bonds` build
`Atom`/`Bond` lists from the columns on each access. Kind ids are local to
the process: they are never written out, and a pickled graph travels as its
atoms and bonds.

Fingerprints are circular environment hashes: every atom gets an initial
invariant from its local features, then each iteration folds in the sorted
(bond order, neighbor invariant) pairs through 64-bit FNV-1a over a
fixed-width little-endian serialization. Each identifier sets bit
(id mod nbits). The result depends only on the graph isomorphism class,
never on atom input order.

Fingerprints are narrower than `EXACT_NBITS` (2**24) bits, the widest the
similarity index counts exactly; wider requests are refused before anything
is allocated.

`compute_fingerprints` hashes a batch of graphs with numpy uint64 FNV-1a
(uint64 multiplication wraps modulo 2**64, as FNV requires), all atoms of a
piece at once: `pieces` cuts the batch into runs of at most PIECE_ATOMS atoms
(a larger graph is a piece of its own), and each piece's bits go straight into
its rows of the one store, so the hash temporaries stay bounded by the piece
however large the batch. `batch_columns` turns a piece's kind and bond lists
into arrays in one pass, each bond as two directed edges (the graph encoder
walks the same list), and `atom_features` evaluates the atom invariant once
per distinct kind. Each iteration sorts the directed edges by (atom, bond
order, neighbor invariant) and folds them in slot by slot, each atom masked by
its degree, which is exactly the per-atom byte stream above. The store, one
packed (n, nbits/64) uint64 array, is the fingerprint store from
`compute_fingerprints` through the corpus to the index build, `batch_tanimoto`
and `write_fingerprints`; `pack_fingerprints` stacks the edge form, a list of
same-width `Fingerprint`s, into one. A `Fingerprint` is one molecule's row:
`compute_fingerprint` is the batch of one. `read_packed_fingerprints` returns
an `.amfp` file's payload as the packed array, and `read_fingerprints` returns
row views of it.

`.amfp` files are written atomically, from the stores' own buffers: to a
temporary name, then renamed.
"""

from __future__ import annotations

import os
import struct
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

ORGANIC_TWO = ("Cl", "Br")
ORGANIC_ONE = ("B", "C", "N", "O", "P", "S", "F", "I")
AROMATIC_ONE = ("b", "c", "n", "o", "p", "s")
# Every element symbol a bracket atom may name (OpenSMILES), H through Og.
ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn Ga Ge As Se Br Kr "
    "Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb "
    "Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf "
    "Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)

BOND_SINGLE = "single"
BOND_DOUBLE = "double"
BOND_TRIPLE = "triple"
BOND_AROMATIC = "aromatic"

# Graphs store, and fingerprints hash, a bond's order as its code.
_BOND_CODE = {BOND_SINGLE: 1, BOND_DOUBLE: 2, BOND_TRIPLE: 3, BOND_AROMATIC: 4}
_BOND_NAME = {code: name for name, code in _BOND_CODE.items()}
_SINGLE, _AROMATIC = _BOND_CODE[BOND_SINGLE], _BOND_CODE[BOND_AROMATIC]
_BOND_FOR_SYMBOL = {"-": _SINGLE, "=": _BOND_CODE[BOND_DOUBLE], "#": _BOND_CODE[BOND_TRIPLE], ":": _AROMATIC}

AMFP_MAGIC = b"AMFP"
AMFP_VERSION = 1


class SmilesError(ValueError):
    """Base class for SMILES parse failures."""


class EmptyInputError(SmilesError):
    pass


class UnbalancedParenthesisError(SmilesError):
    pass


class UnclosedRingBondError(SmilesError):
    pass


class UnknownAtomSymbolError(SmilesError):
    pass


class MultiFragmentError(SmilesError):
    pass


class BitWidthMismatchError(ValueError):
    """Tanimoto between fingerprints of different widths."""


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    formal_charge: int = 0
    # None means "not written in the input"; bracket atoms may pin a count.
    explicit_h: int | None = None


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str


# Atom kinds: each distinct Atom gets the next int id the first time a graph
# holds it. Ids index _KIND_ATOMS in this process only and are never written
# out; the table only grows, by one entry per distinct atom ever seen.
_KIND_ATOMS: list[Atom] = []
_KIND_OF: dict[Atom, int] = {}
_KIND_LOCK = threading.Lock()


def _atom_kind(atom: Atom) -> int:
    """The kind id of `atom`, registering it on first sight."""
    kind = _KIND_OF.get(atom)
    if kind is None:
        with _KIND_LOCK:
            kind = _KIND_OF.get(atom)
            if kind is None:
                kind = len(_KIND_ATOMS)
                _KIND_ATOMS.append(atom)  # before the id is visible to lock-free readers
                _KIND_OF[atom] = kind
    return kind


class MolecularGraph:
    """A molecule as columns: one atom kind id per atom, and (a, b, order code) per bond, flat.

    Built from `Atom`s and `Bond`s, it checks every bond; `atoms` and `bonds`
    build those lists again on each access.
    """

    __slots__ = ("atom_kinds", "bond_triples")

    def __init__(self, atoms: Sequence[Atom] = (), bonds: Sequence[Bond] = ()):
        n = len(atoms)
        seen = set()
        triples: list[int] = []
        for bond in bonds:
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond endpoint out of range: {bond}")
            if bond.a == bond.b:
                raise ValueError(f"self bond on atom {bond.a}")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)
            if bond.order not in _BOND_CODE:
                raise ValueError(f"unknown bond order {bond.order!r}")
            triples.extend((bond.a, bond.b, _BOND_CODE[bond.order]))
        self.atom_kinds = [_atom_kind(atom) for atom in atoms]
        self.bond_triples = triples

    @classmethod
    def _unchecked(cls, atom_kinds: list[int], bond_triples: list[int]) -> "MolecularGraph":
        """A graph from columns the caller has already checked."""
        graph = cls.__new__(cls)
        graph.atom_kinds = atom_kinds
        graph.bond_triples = bond_triples
        return graph

    @property
    def atoms(self) -> list[Atom]:
        return [_KIND_ATOMS[kind] for kind in self.atom_kinds]

    @property
    def bonds(self) -> list[Bond]:
        t = self.bond_triples
        return [Bond(t[i], t[i + 1], _BOND_NAME[t[i + 2]]) for i in range(0, len(t), 3)]

    def __eq__(self, other):
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        return self.atom_kinds == other.atom_kinds and self.bond_triples == other.bond_triples

    def __repr__(self) -> str:
        return f"MolecularGraph(atoms={self.atoms!r}, bonds={self.bonds!r})"

    def __reduce__(self):
        # kind ids mean nothing in another process: travel as atoms and bonds
        return MolecularGraph, (self.atoms, self.bonds)

    def degree(self, idx: int) -> int:
        return sum(1 for bond in self.bonds if idx in (bond.a, bond.b))


def _bracket_count(digits: str, limit: int, what: str, body: str, pos: int) -> int:
    """int(digits), refused above `limit`: OpenSMILES allows H counts 0..9 and charges -15..+15."""
    significant = digits.lstrip("0")
    if len(significant) > len(str(limit)) or int(significant or "0") > limit:
        raise SmilesError(f"{what}{digits} in bracket atom '[{body}]' at position {pos} is beyond {limit}")
    return int(significant or "0")


def _parse_bracket(body: str, pos: int) -> Atom:
    """Parse the inside of a bracket atom, e.g. 'NH4+' or 'O-' or 'C@@H'."""
    if not body:
        raise UnknownAtomSymbolError(f"empty bracket atom at position {pos}")
    i = 0
    aromatic = False
    if body[:2] in ELEMENTS:  # a two-letter symbol wins over its first letter: [Co] is cobalt
        element = body[:2]
        i = len(element)
    elif body[0] in ELEMENTS:
        element = body[0]
        i = 1
    elif body[0] in AROMATIC_ONE:
        element = body[0].upper()
        aromatic = True
        i = 1
    else:
        raise UnknownAtomSymbolError(f"bad element in bracket atom '[{body}]' at position {pos}")

    charge = 0
    explicit_h = None
    while i < len(body):
        c = body[i]
        j = i + 1  # past the run of ASCII digits after c
        while j < len(body) and "0" <= body[j] <= "9":
            j += 1
        if c == "@":
            i += 1  # chirality, ignored
        elif c == "H":
            explicit_h = _bracket_count(body[i + 1 : j] or "1", 9, "hydrogen count ", body, pos)
            i = j
        elif c in "+-":
            if j == i + 1:  # a run of signs: '++' is +2
                while j < len(body) and body[j] == c:
                    j += 1
                size = str(j - i)
            else:
                size = body[i + 1 : j]
            charge = _bracket_count(size, 15, f"charge {c}", body, pos) * (1 if c == "+" else -1)
            i = j
        else:
            raise UnknownAtomSymbolError(f"bad token '{c}' in bracket atom '[{body}]' at position {pos}")
    return Atom(element=element, aromatic=aromatic, formal_charge=charge, explicit_h=explicit_h)


# The kind id of each organic-subset symbol, registered at import.
_SUBSET_KINDS = {symbol: _atom_kind(Atom(element=symbol)) for symbol in ORGANIC_ONE + ORGANIC_TWO}
_SUBSET_KINDS.update({symbol: _atom_kind(Atom(element=symbol.upper(), aromatic=True)) for symbol in AROMATIC_ONE})

# What each character starts; one lookup per character picks the branch.
# Characters missing here are errors: ring-bond digits are ASCII only.
_ATOM, _BRACKET, _BOND, _STEREO, _OPEN, _CLOSE, _RING, _PERCENT, _DOT = range(9)
_TOKEN = {symbol: _ATOM for symbol in ORGANIC_ONE + AROMATIC_ONE}
_TOKEN.update({symbol: _BOND for symbol in _BOND_FOR_SYMBOL})
_TOKEN.update({"[": _BRACKET, "/": _STEREO, "\\": _STEREO, "(": _OPEN, ")": _CLOSE, "%": _PERCENT, ".": _DOT})
_TOKEN.update({digit: _RING for digit in "0123456789"})


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a single-fragment SMILES string into a MolecularGraph.

    Raises EmptyInputError, UnbalancedParenthesisError, UnclosedRingBondError,
    UnknownAtomSymbolError, MultiFragmentError (all SmilesError subclasses).
    """
    s = smiles.strip()
    if not s:
        raise EmptyInputError("empty SMILES")

    kinds: list[int] = []  # atom kind id per atom
    bonds: list[int] = []  # (a, b, order code) per bond, flat
    parents: list[int | None] = []  # the atom each atom was chained to
    ring_keys: set[tuple[int, int]] = set()  # (low, high) atoms of each ring closure
    prev: int | None = None
    pending: int | None = None
    pending_at = 0
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, int | None]] = {}

    n = len(s)
    i = 0
    while i < n:
        c = s[i]
        token = _TOKEN.get(c)
        if token is None:
            raise UnknownAtomSymbolError(f"unknown atom symbol '{c}' at position {i}")
        if token == _ATOM:
            if (c == "C" or c == "B") and s[i : i + 2] in ORGANIC_TWO:
                c = s[i : i + 2]
            kind = _SUBSET_KINDS[c]
            i += len(c)
        elif token == _BRACKET:
            end = s.find("]", i)
            if end < 0:
                raise SmilesError(f"unclosed bracket atom at position {i}")
            kind = _atom_kind(_parse_bracket(s[i + 1 : end], i))
            i = end + 1
        else:
            if token == _BOND:
                if prev is None:
                    raise SmilesError(f"bond '{c}' before any atom at position {i}")
                if pending is not None:
                    raise SmilesError(
                        f"bond '{c}' at position {i} follows bond '{s[pending_at]}' at position {pending_at}"
                    )
                pending, pending_at = _BOND_FOR_SYMBOL[c], i
            elif token == _OPEN:
                if prev is None:
                    raise UnbalancedParenthesisError(f"branch opened before any atom at position {i}")
                if pending is not None:
                    raise SmilesError(
                        f"bond '{s[pending_at]}' at position {pending_at} comes before the branch at position {i}"
                    )
                branch_stack.append(prev)
            elif token == _CLOSE:
                if not branch_stack:
                    raise UnbalancedParenthesisError(f"unmatched ')' at position {i}")
                if pending is not None:
                    raise SmilesError(f"bond '{s[pending_at]}' at position {pending_at} has no atom after it")
                prev = branch_stack.pop()
            elif token == _DOT:
                raise MultiFragmentError("multi-fragment SMILES is not supported")
            elif token != _STEREO:  # a ring tag: one digit, or '%' and two
                tag = c
                if token == _PERCENT:
                    tag = s[i + 1 : i + 3]
                    if len(tag) < 2 or not (tag.isascii() and tag.isdigit()):
                        raise SmilesError(f"'%' ring tag needs two digits at position {i}")
                if prev is None:
                    raise SmilesError(f"ring bond digit before any atom at position {i}")
                opened = open_rings.pop(tag, None)
                if opened is None:
                    open_rings[tag] = (prev, pending)
                else:
                    other, other_pending = opened
                    if pending is not None and other_pending is not None and pending != other_pending:
                        raise SmilesError(f"conflicting bond orders on ring closure {tag}")
                    if other == prev:
                        raise SmilesError(f"ring closure bonds atom {other} to itself")
                    key = (other, prev) if other < prev else (prev, other)
                    # the chain bond of an atom joins it to its parent, an earlier atom
                    if parents[key[1]] == key[0] or key in ring_keys:
                        raise SmilesError(f"duplicate bond between atoms {key}")
                    ring_keys.add(key)
                    order = pending if pending is not None else other_pending
                    if order is None:
                        aromatic = _KIND_ATOMS[kinds[other]].aromatic and _KIND_ATOMS[kinds[prev]].aromatic
                        order = _AROMATIC if aromatic else _SINGLE
                    bonds.extend((other, prev, order))
                pending = None
                if token == _PERCENT:
                    i += 2
            i += 1
            continue

        # attach the new atom to the chain
        idx = len(kinds)
        kinds.append(kind)
        parents.append(prev)
        if prev is not None:
            if pending is None:
                aromatic = _KIND_ATOMS[kind].aromatic and _KIND_ATOMS[kinds[prev]].aromatic
                pending = _AROMATIC if aromatic else _SINGLE
            bonds.extend((prev, idx, pending))
        prev = idx
        pending = None

    if pending is not None:
        raise SmilesError(f"bond '{s[pending_at]}' at position {pending_at} has no atom after it")
    if branch_stack:
        raise UnbalancedParenthesisError(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnclosedRingBondError(f"unclosed ring bonds: {sorted(open_rings)}")
    if not kinds:
        raise EmptyInputError("SMILES contains no atoms")
    return MolecularGraph._unchecked(kinds, bonds)


# ---------------------------------------------------------------------------
# Circular fingerprints

# Fingerprints are narrower than this: the similarity index counts shared bits
# as float32 dot products of 0/1 rows, exact only for integers under 2**24.
EXACT_NBITS = 1 << 24

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BYTE = np.uint64(0xFF)
_BYTE_SHIFTS = [np.uint64(s) for s in range(0, 64, 8)]
_U64 = (1 << 64) - 1

# Graphs are hashed in pieces of about this many atoms: a piece's temporaries,
# about 0.3 KB per atom (5 MB a piece), are freed before the next is hashed.
PIECE_ATOMS = 1 << 14


def _fnv_fold(h: np.ndarray, *words: np.ndarray) -> np.ndarray:
    """FNV-1a state after folding in each u64 word's 8 little-endian bytes, elementwise.

    uint64 multiplication wraps modulo 2**64, which is exactly FNV's arithmetic.
    """
    for word in words:
        for shift in _BYTE_SHIFTS:
            h = (h ^ ((word >> shift) & _BYTE)) * _FNV_PRIME
    return h


def _element_code(element: str) -> int:
    code = ord(element[0]) << 8
    if len(element) > 1:
        code |= ord(element[1])
    return code


def batch_columns(graphs) -> tuple[np.ndarray, ...]:
    """A batch of graphs as one disconnected graph: (sizes, kinds, src, dst, code) arrays, built in one pass.

    sizes holds each graph's atom count, kinds the kind id of every atom in
    graph order, and src -> dst with uint64 order code every bond a -> b graph
    by graph, then every b -> a in that order, atoms counted from the batch's
    first atom: the one edge list of the fingerprint hash and the encoder.
    """
    count = len(graphs)
    sizes = np.fromiter((len(graph.atom_kinds) for graph in graphs), dtype=np.int64, count=count)
    per_graph = np.fromiter((len(graph.bond_triples) for graph in graphs), dtype=np.int64, count=count) // 3
    kinds = np.fromiter(chain.from_iterable(graph.atom_kinds for graph in graphs), dtype=np.intp, count=sizes.sum())
    bonds = np.fromiter(
        chain.from_iterable(graph.bond_triples for graph in graphs), dtype=np.int64, count=3 * per_graph.sum()
    ).reshape(-1, 3)
    bonds[:, :2] += np.repeat(np.cumsum(sizes) - sizes, per_graph)[:, None]
    a, b, code = bonds.T
    return sizes, kinds, np.concatenate([a, b]), np.concatenate([b, a]), np.tile(code.astype(np.uint64), 2)


def atom_features(kinds: np.ndarray, feature, dtype) -> np.ndarray:
    """feature(atom) for the atom of every kind id in `kinds`, computed once per distinct kind.

    feature returns a tuple of ints; the result has one row per kind id.
    """
    present, rows = np.unique(kinds, return_inverse=True)
    return np.array([feature(_KIND_ATOMS[kind]) for kind in present], dtype=dtype)[rows]


def _hash_features(atom: Atom) -> tuple[int, int, int, int]:
    """Element code, charge (two's complement), aromatic flag and explicit H or 255: the initial invariant."""
    hydrogens = 255 if atom.explicit_h is None else atom.explicit_h
    return _element_code(atom.element), atom.formal_charge & _U64, int(atom.aromatic), hydrogens


@dataclass(frozen=True)
class Fingerprint:
    nbits: int
    words: np.ndarray  # uint64, little-endian packed, length nbits // 64

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.nbits == other.nbits and bool(np.array_equal(self.words, other.words))

    @property
    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def bits(self) -> list[int]:
        unpacked = np.unpackbits(self.words.astype("<u8").view(np.uint8), bitorder="little")
        return np.flatnonzero(unpacked).tolist()

    @classmethod
    def from_bits(cls, nbits: int, indices) -> "Fingerprint":
        indices = list(indices)
        for idx in indices:
            if not 0 <= idx < nbits:
                raise ValueError(f"bit index {idx} out of range for {nbits} bits")
        dense = np.zeros(nbits, dtype=np.uint8)
        dense[indices] = 1
        words = np.packbits(dense, bitorder="little").view("<u8").astype(np.uint64)
        return cls(nbits=nbits, words=words)


def pack_fingerprints(fingerprints) -> np.ndarray:
    """A fingerprint store as one packed (n, nbits/64) uint64 array.

    Such an array passes through unchanged; a list of `Fingerprint`s of one
    width is stacked into one. Anything else raises BitWidthMismatchError.
    """
    if isinstance(fingerprints, np.ndarray):
        if fingerprints.ndim != 2 or fingerprints.dtype != np.uint64:
            raise BitWidthMismatchError(f"a packed store is 2-D uint64, not {fingerprints.ndim}-D {fingerprints.dtype}")
        return fingerprints
    if len({fp.nbits for fp in fingerprints}) != 1:
        raise BitWidthMismatchError("all fingerprints in a store must share one width")
    return np.stack([fp.words for fp in fingerprints]).astype("<u8", copy=False)


def pieces(graphs: Iterable[MolecularGraph]) -> Iterator[list[MolecularGraph]]:
    """`graphs`, a list or a stream, in consecutive runs of at most PIECE_ATOMS atoms in all, at least one graph each.

    `compute_fingerprints` hashes each run as one piece.
    """
    piece, atoms = [], 0
    for graph in graphs:
        size = len(graph.atom_kinds)
        if piece and atoms + size > PIECE_ATOMS:
            yield piece
            piece, atoms = [], 0
        piece.append(graph)
        atoms += size
    if piece:
        yield piece


def compute_fingerprints(graphs: list[MolecularGraph], radius: int = 2, nbits: int = 2048) -> np.ndarray:
    """Hash circular atom environments of radius 0..radius into row g of one packed (n, nbits/64) store.

    The store is allocated once; the graphs are hashed in `pieces`, each into
    its own rows, so the hash temporaries are bounded by PIECE_ATOMS however
    many graphs there are. An empty batch only checks radius and nbits.
    """
    if nbits <= 0 or nbits % 64 != 0:
        raise ValueError("nbits must be a positive multiple of 64")
    if nbits >= EXACT_NBITS:
        raise ValueError(f"nbits must be below {EXACT_NBITS}, the widest the similarity index counts exactly")
    if not 0 <= radius <= 4:
        raise ValueError("radius must be in 0..4")
    if not all(graph.atom_kinds for graph in graphs):
        raise ValueError("cannot fingerprint an empty graph")
    words = np.zeros((len(graphs), nbits // 64), dtype=np.uint64)
    lo = 0
    for piece in pieces(graphs):
        _hash_piece(piece, radius, words[lo : lo + len(piece)])
        lo += len(piece)
    return words


def _hash_piece(graphs: list[MolecularGraph], radius: int, words: np.ndarray) -> None:
    """Set the bits of graph g into row g of `words`, all atoms of all graphs at once.

    Graph g owns a contiguous run of atom rows and both directions of each of its bonds.
    """
    sizes, kinds, src, dst, code = batch_columns(graphs)
    n = len(kinds)

    element, charge, aromatic, hydrogens = atom_features(kinds, _hash_features, np.uint64).T
    heavy = np.bincount(src[element[dst] != _element_code("H")], minlength=n)
    inv = _fnv_fold(np.full(n, _FNV_OFFSET), element, heavy.astype(np.uint64), charge, aromatic, hydrogens)
    identifiers = [inv]

    # Edges grouped by source atom; slot s of an atom is its s-th sorted pair.
    degree = np.bincount(src, minlength=n)
    start = np.cumsum(degree) - degree
    slots = [np.flatnonzero(degree > s) for s in range(degree.max())]
    for _ in range(radius):
        # (source, bond code, neighbor invariant) order: each atom's pairs come
        # out in the sorted((code, inv)) order the serialization is defined by
        order = np.lexsort((inv[dst], code, src))
        pair_code, pair_inv = code[order], inv[dst[order]]
        nxt = _fnv_fold(np.full(n, _FNV_OFFSET), inv)
        for s, owners in enumerate(slots):
            edge = start[owners] + s
            nxt[owners] = _fnv_fold(nxt[owners], pair_code[edge], pair_inv[edge])
        inv = nxt
        identifiers.append(inv)

    bit = np.concatenate(identifiers) % np.uint64(64 * words.shape[1])
    graph_of = np.tile(np.repeat(np.arange(len(graphs)), sizes), radius + 1)
    np.bitwise_or.at(words, (graph_of, bit >> np.uint64(6)), np.uint64(1) << (bit & np.uint64(63)))


def compute_fingerprint(graph: MolecularGraph, radius: int = 2, nbits: int = 2048) -> Fingerprint:
    """The fingerprint of one graph: `compute_fingerprints` over a batch of one."""
    return Fingerprint(nbits, compute_fingerprints([graph], radius=radius, nbits=nbits)[0])


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; two all-zero fingerprints count as identical (1.0)."""
    if a.nbits != b.nbits:
        raise BitWidthMismatchError(f"fingerprint widths differ: {a.nbits} vs {b.nbits}")
    inter = int(np.bitwise_count(a.words & b.words).sum())
    union = a.popcount + b.popcount - inter
    return 1.0 if union == 0 else inter / union


def write_atomic(path: str, *chunks) -> None:
    """Write chunks to path + ".tmp", then rename over path: never a partial file at path.

    A chunk is bytes or any buffer, such as an array's memoryview, written without a copy.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_framed(path: str, layout: struct.Struct, magic: bytes, version: int, what: str) -> tuple[list, bytes]:
    """The fields after magic and version of a file whose header is `layout`, and every byte after it.

    Refuses a short header, another magic or another version with a ValueError
    naming the path; the caller checks its own fields and payload.
    """
    with Path(path).open("rb") as fh:
        head = fh.read(layout.size)
        if len(head) < layout.size:
            raise ValueError(f"{path}: truncated {what} header ({len(head)} of {layout.size} bytes)")
        found, found_version, *fields = layout.unpack(head)
        if found != magic:
            raise ValueError(f"{path}: {what} magic should be {magic!r}, found {found!r}")
        if found_version != version:
            raise ValueError(f"{path}: unsupported {what} version {found_version}, this reader reads {version}")
        return fields, fh.read()


# ---------------------------------------------------------------------------
# Fingerprint file format: magic "AMFP", u32 version, u32 nbits, u64 count,
# then count x (nbits/64) little-endian u64 words.

_AMFP_HEADER = struct.Struct("<4sIIQ")


def write_fingerprints(path: str, *stores) -> None:
    """Write same-width stores (packed, or lists of `Fingerprint`s) as one .amfp, each from its own buffer, unjoined."""
    words = [np.ascontiguousarray(pack_fingerprints(store), dtype="<u8") for store in stores if len(store)]
    if not words:
        raise ValueError("refusing to write an empty fingerprint file")
    if len({block.shape[1] for block in words}) != 1:
        raise BitWidthMismatchError("all fingerprints in a store must share one width")
    header = _AMFP_HEADER.pack(AMFP_MAGIC, AMFP_VERSION, 64 * words[0].shape[1], sum(map(len, words)))
    write_atomic(path, header, *(block.data for block in words))


def read_packed_fingerprints(path: str) -> np.ndarray:
    """An .amfp file as one read-only packed (n, nbits/64) uint64 array over its payload."""
    (nbits, count), body = read_framed(path, _AMFP_HEADER, AMFP_MAGIC, AMFP_VERSION, "fingerprint file")
    if nbits <= 0 or nbits % 64 != 0:
        raise ValueError(f"{path}: corrupt header, nbits={nbits}")
    if count == 0:
        raise ValueError(f"{path}: holds zero fingerprints")
    expected = count * nbits // 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    return np.frombuffer(body, dtype="<u8").astype(np.uint64, copy=False).reshape(count, nbits // 64)


def read_fingerprints(path: str) -> list[Fingerprint]:
    """An .amfp file as one `Fingerprint` per row, each a view of `read_packed_fingerprints`' array."""
    words = read_packed_fingerprints(path)
    return list(map(Fingerprint, repeat(64 * words.shape[1]), words))
