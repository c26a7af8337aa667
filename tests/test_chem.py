"""Parser, fingerprint, and Tanimoto checks, including frozen hand-traced hashes."""

import builtins
import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltext import chem, toydata
from moltext.chem import (
    Atom,
    Bond,
    BitWidthMismatchError,
    EmptyInputError,
    Fingerprint,
    MolecularGraph,
    MultiFragmentError,
    UnbalancedParenthesisError,
    UnclosedRingBondError,
    UnknownAtomSymbolError,
    compute_fingerprint,
    compute_fingerprints,
    parse_smiles,
    tanimoto,
)


class TestParser:
    def test_single_atom(self):
        g = parse_smiles("C")
        assert len(g.atoms) == 1 and len(g.bonds) == 0
        assert g.atoms[0] == Atom(element="C")

    def test_cyclopropane(self):
        g = parse_smiles("C1CC1")
        assert len(g.atoms) == 3
        edges = {(min(b.a, b.b), max(b.a, b.b)) for b in g.bonds}
        assert edges == {(0, 1), (1, 2), (0, 2)}
        assert all(b.order == chem.BOND_SINGLE for b in g.bonds)

    def test_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert len(g.atoms) == 6 and len(g.bonds) == 6
        assert all(a.element == "C" and a.aromatic for a in g.atoms)
        assert all(b.order == chem.BOND_AROMATIC for b in g.bonds)
        degrees = [g.degree(i) for i in range(6)]
        assert degrees == [2] * 6

    def test_explicit_bonds(self):
        g = parse_smiles("C=C")
        assert g.bonds[0].order == chem.BOND_DOUBLE
        g = parse_smiles("C#N")
        assert g.bonds[0].order == chem.BOND_TRIPLE

    def test_branches(self):
        g = parse_smiles("CC(C)(C)C")
        assert len(g.atoms) == 5
        assert g.degree(1) == 4

    def test_ring_bond_order_on_closure(self):
        # bond symbol before the closing digit applies to the ring bond
        g = parse_smiles("C=1CCCCC=1")
        ring = [b for b in g.bonds if {b.a, b.b} == {0, 5}]
        assert ring and ring[0].order == chem.BOND_DOUBLE

    def test_percent_ring_tags(self):
        g = parse_smiles("C%12CCCC%12")
        edges = {(min(b.a, b.b), max(b.a, b.b)) for b in g.bonds}
        assert (0, 4) in edges

    def test_bracket_atoms(self):
        a = parse_smiles("[NH4+]").atoms[0]
        assert a == Atom(element="N", aromatic=False, formal_charge=1, explicit_h=4)
        a = parse_smiles("[O-]").atoms[0]
        assert a.formal_charge == -1 and a.explicit_h is None
        a = parse_smiles("[Fe+3]").atoms[0]
        assert a.element == "Fe" and a.formal_charge == 3
        a = parse_smiles("[N++]").atoms[0]
        assert a.formal_charge == 2
        a = parse_smiles("[nH]").atoms[0]
        assert a.element == "N" and a.aromatic and a.explicit_h == 1
        # the OpenSMILES bounds themselves: H count 9, charge -15..+15
        assert parse_smiles("[CH9]").atoms[0].explicit_h == 9
        charges = [parse_smiles(s).atoms[0].formal_charge for s in ("[C+15]", "[C-015]", "[C" + "+" * 15 + "]")]
        assert charges == [15, -15, 15]

    @pytest.mark.parametrize(
        "smiles, element, charge",
        [("[Co]", "Co", 0), ("[Co+]", "Co", 1), ("[Sb]", "Sb", 0), ("[Sc]", "Sc", 0),
         ("[Cs+]", "Cs", 1), ("[Sn]", "Sn", 0), ("[Os]", "Os", 0)],
    )
    def test_two_letter_bracket_elements(self, smiles, element, charge):
        # the second letter is one the aromatic subset also uses; the element table decides
        atom = parse_smiles(smiles).atoms[0]
        assert atom == Atom(element=element, formal_charge=charge)
        assert compute_fingerprint(parse_smiles(f"C{smiles}C")).popcount > 0

    def test_stereo_markers_ignored(self):
        g1 = parse_smiles("C[C@@H](N)O")
        g2 = parse_smiles("C[CH](N)O")
        assert g1 == g2
        g1 = parse_smiles("F/C=C/F")
        g2 = parse_smiles("FC=CF")
        assert g1 == g2

    def test_two_letter_organic(self):
        g = parse_smiles("ClCBr")
        assert [a.element for a in g.atoms] == ["Cl", "C", "Br"]

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            parse_smiles("")
        with pytest.raises(EmptyInputError):
            parse_smiles("   ")
        with pytest.raises(UnbalancedParenthesisError):
            parse_smiles("C(C")
        with pytest.raises(UnbalancedParenthesisError):
            parse_smiles("CC)C")
        with pytest.raises(UnclosedRingBondError):
            parse_smiles("C1CC")
        with pytest.raises(UnknownAtomSymbolError):
            parse_smiles("CXC")
        with pytest.raises(MultiFragmentError):
            parse_smiles("C.C")
        with pytest.raises(chem.SmilesError):
            parse_smiles("C12CC12")  # duplicate ring bond between same atoms

    def test_parse_is_deterministic(self):
        assert parse_smiles("CC(=O)Oc1ccccc1") == parse_smiles("CC(=O)Oc1ccccc1")

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            MolecularGraph(atoms=[Atom("C")], bonds=[Bond(0, 1, chem.BOND_SINGLE)])
        with pytest.raises(ValueError):
            MolecularGraph(atoms=[Atom("C"), Atom("C")], bonds=[Bond(0, 0, chem.BOND_SINGLE)])
        two = [Atom("C"), Atom("O")]
        with pytest.raises(ValueError, match="duplicate bond between atoms"):
            MolecularGraph(atoms=two, bonds=[Bond(0, 1, chem.BOND_SINGLE), Bond(1, 0, chem.BOND_DOUBLE)])
        with pytest.raises(ValueError, match="unknown bond order 'quadruple'"):
            MolecularGraph(atoms=two, bonds=[Bond(0, 1, "quadruple")])


# ---------------------------------------------------------------------------
# Columns: a parsed graph holds kind ids and flat bond ints; its atoms and
# bonds views must equal those of the same graph built from Atoms and Bonds


class TestColumns:
    @pytest.mark.parametrize("smiles", ["C", "CCO", "c1ccc(Cl)cc1[N+](=O)[O-]", "[Fe+3]", "C%12CC%12", "F/C=C/F"])
    def test_parsed_and_hand_built_views_agree(self, smiles):
        parsed = parse_smiles(smiles)
        built = MolecularGraph(atoms=parsed.atoms, bonds=parsed.bonds)
        assert built == parsed
        assert built.atoms == parsed.atoms and built.bonds == parsed.bonds
        assert built.atom_kinds == parsed.atom_kinds and built.bond_triples == parsed.bond_triples
        assert all(type(atom) is Atom for atom in parsed.atoms)
        assert all(type(bond) is Bond for bond in parsed.bonds)

    def test_hand_built_views_return_what_was_given(self):
        atoms = [Atom("C"), Atom("N", aromatic=True), Atom("Fe", formal_charge=3, explicit_h=0), Atom("C")]
        bonds = [Bond(1, 0, chem.BOND_AROMATIC), Bond(0, 2, chem.BOND_TRIPLE), Bond(3, 2, chem.BOND_DOUBLE)]
        graph = MolecularGraph(atoms=atoms, bonds=bonds)
        assert graph.atoms == atoms and graph.bonds == bonds
        assert graph.atom_kinds[0] == graph.atom_kinds[3] != graph.atom_kinds[1]
        assert graph.bond_triples == [1, 0, 4, 0, 2, 3, 3, 2, 2]
        assert [graph.degree(i) for i in range(4)] == [2, 1, 2, 1]
        assert MolecularGraph() == MolecularGraph(atoms=[], bonds=[])
        assert MolecularGraph(atoms=atoms, bonds=bonds[:2]) != graph

    def test_hand_list_views_rebuild_the_same_graph(self):
        for smiles in HAND_SMILES:
            parsed = parse_smiles(smiles)
            built = MolecularGraph(atoms=parsed.atoms, bonds=parsed.bonds)
            assert dump_graph(built) == dump_graph(parsed)
            assert compute_fingerprint(built) == compute_fingerprint(parsed)

    def test_pickle_travels_as_atoms_and_bonds(self):
        graph = parse_smiles("c1ccccc1C(=O)[O-]")
        again = pickle.loads(pickle.dumps(graph))
        assert again == graph and again.atoms == graph.atoms and again.bonds == graph.bonds
        assert repr(again) == repr(graph) and repr(graph).startswith("MolecularGraph(atoms=[Atom(")

    def test_batch_columns_offset_each_graph(self):
        graphs = [parse_smiles("CO"), parse_smiles("N"), parse_smiles("C=C#N")]
        sizes, kinds, src, dst, code = chem.batch_columns(graphs)
        assert sizes.tolist() == [2, 1, 3]
        assert [chem._KIND_ATOMS[k] for k in kinds] == [a for g in graphs for a in g.atoms]
        assert [src.tolist(), dst.tolist(), code.tolist()] == [[0, 3, 4, 1, 4, 5], [1, 4, 5, 0, 3, 4], [1, 2, 3] * 2]


# ---------------------------------------------------------------------------
# Parser parity: graphs, exception classes and messages frozen from the
# straightforward per-character parser this one replaced


def dump_graph(graph):
    atoms = ";".join(f"{a.element},{a.aromatic},{a.formal_charge},{a.explicit_h}" for a in graph.atoms)
    bonds = ";".join(f"{b.a},{b.b},{b.order}" for b in graph.bonds)
    return f"{atoms}|{bonds}"


def parse_digest(smiles_list):
    h = hashlib.sha256()
    for s in smiles_list:
        h.update(f"{s}\t{dump_graph(parse_smiles(s))}\n".encode())
    return h.hexdigest()


POOL_PARSE_SHA256 = "001a26726458f144ab7a49f1cbf104d7c1b08560729d955dc74edf208e2ae6fd"

# brackets, charges, explicit H, %nn tags, ring-closure bond orders, / and \
# markers, aromatic and explicit bonds, and two-letter bracket elements. The
# frozen list also held "C\u0661CC\u0661" and "C%\u0661\u0662CC%\u0661\u0662", which
# parsed as rings until ring-bond digits became ASCII only; they are in MALFORMED now,
# and the digest is the old parser's over the list without them.
HAND_SMILES = [
    "C", "  CCO  ", "[NH4+]", "[O-]", "[Fe+3]", "[N++]", "[O--]", "[Cu+2]", "[Co+]", "[CH2-]", "[NH3+]", "[Na+]",
    "[Cl-]", "[nH]1cccc1", "[H][H]", "[H]C([H])([H])[H]", "[C@@H](N)(O)C", "C[C@H](N)O", "[Se]",
    "C%12CCCC%12", "C%10CC%10C%99CC%99", "C1CC1C1CC1", "C=1CCCCC=1", "C1CCCCC=1", "C=1CCCCC1",
    "C#1CC1", "c1ccccc1", "c1ccc2ccccc2c1", "c1ccc-cc1", "c1ccccc1-c1ccccc1", "c:c", "C:C", "c1cc:cc1",
    "F/C=C/F", "F\\C=C\\F", "C/C=C\\C", "ClC(Br)I", "C#N", "OC(=O)C", "CC(=O)(O)", "CC(C)(C)C",
    "C(C(C(C)))", "C(=O)", "n1ccnc1", "o1cccc1", "s1cccc1", "p1cccc1", "b1ccccc1",
    "Cn1cccc1", "ClBr", "BrCl", "BC", "CCl", "CBr", "[nH+]", "[C+-]", "[N-2]", "[CH4]", "[H+]",
]
HAND_PARSE_SHA256 = "c4d0355f657d84e4d83c3ded54f4faad77d22e8eb2448ed198bf96bc6694943f"

MALFORMED = [
    ("", EmptyInputError, "empty SMILES"),
    ("   ", EmptyInputError, "empty SMILES"),
    ("C(C", UnbalancedParenthesisError, "1 unclosed '('"),
    ("C(C)(", UnbalancedParenthesisError, "1 unclosed '('"),
    ("CC)C", UnbalancedParenthesisError, "unmatched ')' at position 2"),
    ("(C)", UnbalancedParenthesisError, "branch opened before any atom at position 0"),
    ("C1CC", UnclosedRingBondError, "unclosed ring bonds: ['1']"),
    ("C1CC1C1", UnclosedRingBondError, "unclosed ring bonds: ['1']"),
    ("CXC", UnknownAtomSymbolError, "unknown atom symbol 'X' at position 1"),
    ("C*C", UnknownAtomSymbolError, "unknown atom symbol '*' at position 1"),
    ("C.C", MultiFragmentError, "multi-fragment SMILES is not supported"),
    ("C12CC12", chem.SmilesError, "duplicate bond between atoms (0, 2)"),
    ("C1C1", chem.SmilesError, "duplicate bond between atoms (0, 1)"),
    ("C11", chem.SmilesError, "ring closure bonds atom 0 to itself"),
    ("1CC", chem.SmilesError, "ring bond digit before any atom at position 0"),
    ("C%1", chem.SmilesError, "'%' ring tag needs two digits at position 1"),
    ("C%a1", chem.SmilesError, "'%' ring tag needs two digits at position 1"),
    ("C=1CC#1", chem.SmilesError, "conflicting bond orders on ring closure 1"),
    ("C[NH4", chem.SmilesError, "unclosed bracket atom at position 1"),
    ("C[]", UnknownAtomSymbolError, "empty bracket atom at position 1"),
    ("[13C]", UnknownAtomSymbolError, "bad element in bracket atom '[13C]' at position 0"),
    ("[C+x]C", UnknownAtomSymbolError, "bad token 'x' in bracket atom '[C+x]' at position 0"),
    ("[se]", UnknownAtomSymbolError, "bad token 'e' in bracket atom '[se]' at position 0"),
    ("[Xx]", UnknownAtomSymbolError, "bad element in bracket atom '[Xx]' at position 0"),
    ("C[CH10]", chem.SmilesError, "hydrogen count 10 in bracket atom '[CH10]' at position 1 is beyond 9"),
    ("[C+16]", chem.SmilesError, "charge +16 in bracket atom '[C+16]' at position 0 is beyond 15"),
    ("[C----------------]", chem.SmilesError, "charge -16 in bracket atom '[C----------------]' at position 0 is beyond 15"),
    ("[CH\u00b2]", UnknownAtomSymbolError, "bad token '\u00b2' in bracket atom '[CH\u00b2]' at position 0"),
    ("C=", chem.SmilesError, "bond '=' at position 1 has no atom after it"),
    ("=C", chem.SmilesError, "bond '=' before any atom at position 0"),
    ("=CC", chem.SmilesError, "bond '=' before any atom at position 0"),
    ("#c1ccccc1", chem.SmilesError, "bond '#' before any atom at position 0"),
    ("C(=)C", chem.SmilesError, "bond '=' at position 2 has no atom after it"),
    ("C=#C", chem.SmilesError, "bond '#' at position 2 follows bond '=' at position 1"),
    ("C-=C", chem.SmilesError, "bond '=' at position 2 follows bond '-' at position 1"),
    ("C=(C)C", chem.SmilesError, "bond '=' at position 1 comes before the branch at position 2"),
    # ring-bond digits are ASCII: str.isdigit also accepts these
    ("C\u0663CC\u0663", UnknownAtomSymbolError, "unknown atom symbol '\u0663' at position 1"),
    ("C\u00b2CC\u00b2", UnknownAtomSymbolError, "unknown atom symbol '\u00b2' at position 1"),
    ("C%1\u00b2CC%1\u00b2", chem.SmilesError, "'%' ring tag needs two digits at position 1"),
    ("C\u0661CC\u0661", UnknownAtomSymbolError, "unknown atom symbol '\u0661' at position 1"),
    ("C%\u0661\u0662CC%\u0661\u0662", chem.SmilesError, "'%' ring tag needs two digits at position 1"),
]

SMILES_ALPHABET = "BCNOPSFIclrbnops[]()=#:-+/\\@%.0123456789H "


class TestParserParity:
    def test_pool_graphs_match_frozen_digest(self):
        assert parse_digest(toydata.smiles_pool(4634)) == POOL_PARSE_SHA256

    def test_hand_list_matches_frozen_digest(self):
        assert parse_digest(HAND_SMILES) == HAND_PARSE_SHA256

    @pytest.mark.parametrize("smiles, error, message", MALFORMED)
    def test_malformed_input(self, smiles, error, message):
        with pytest.raises(chem.SmilesError) as info:
            parse_smiles(smiles)
        assert type(info.value) is error
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=SMILES_ALPHABET, max_size=30))
    def test_any_string_parses_or_raises_smiles_error(self, smiles):
        try:
            graph = parse_smiles(smiles)
        except chem.SmilesError:
            return
        # what parses is a valid graph: rebuilding it runs the full checks
        assert MolecularGraph(atoms=list(graph.atoms), bonds=list(graph.bonds)) == graph


# Frozen by an independent trace of the documented hash recipe: FNV-1a 64 over
# little-endian u64 fields, initial invariant (element code, heavy degree,
# charge, aromatic, explicit H or 255), then (prev, sorted (bond, neighbor
# prev) pairs) per iteration, bit = id mod nbits.
CCO_BITS_R0 = [490, 1385, 1582]
CCO_BITS_R1 = [84, 490, 1174, 1355, 1385, 1582]
METHANE_BITS_R2 = [42, 1123, 1131]


def loop_fingerprint(graph, radius, nbits):
    """The documented recipe, one atom and one byte at a time: the batched hash must match it bit for bit."""

    def fnv(data):
        h = 0xCBF29CE484222325
        for byte in data:
            h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
        return h

    code = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}
    n = len(graph.atoms)
    nbrs = [[(b.b if b.a == i else b.a, b.order) for b in graph.bonds if i in (b.a, b.b)] for i in range(n)]
    inv = []
    for i, a in enumerate(graph.atoms):
        ec = ord(a.element[0]) << 8 | (ord(a.element[1]) if len(a.element) > 1 else 0)
        heavy = sum(1 for j, _ in nbrs[i] if graph.atoms[j].element != "H")
        h = a.explicit_h if a.explicit_h is not None else 255
        inv.append(fnv(struct.pack("<5Q", ec, heavy, a.formal_charge & ((1 << 64) - 1), int(a.aromatic), h)))
    ids = set(inv)
    for _ in range(radius):
        inv = [
            fnv(
                struct.pack("<Q", inv[i])
                + b"".join(struct.pack("<QQ", c, v) for c, v in sorted((code[o], inv[j]) for j, o in nbrs[i]))
            )
            for i in range(n)
        ]
        ids.update(inv)
    return Fingerprint.from_bits(nbits, {x % nbits for x in ids})


class TestFingerprint:
    def test_hand_traced_bits(self):
        g = parse_smiles("CCO")
        assert compute_fingerprint(g, radius=0, nbits=2048).bits() == CCO_BITS_R0
        assert compute_fingerprint(g, radius=1, nbits=2048).bits() == CCO_BITS_R1
        assert compute_fingerprint(parse_smiles("C"), radius=2, nbits=2048).bits() == METHANE_BITS_R2

    def test_matches_independent_reimplementation(self):
        # Same recipe, written from scratch against the documented layout.
        g = parse_smiles("NC(=O)c1ccccc1")
        assert compute_fingerprint(g, radius=2, nbits=2048).bits() == loop_fingerprint(g, 2, 2048).bits()

    def test_atom_order_invariance_smiles(self):
        assert compute_fingerprint(parse_smiles("CCO")) == compute_fingerprint(parse_smiles("OCC"))
        assert compute_fingerprint(parse_smiles("CC(N)=O")) == compute_fingerprint(parse_smiles("NC(C)=O"))

    def test_different_molecules_differ(self):
        assert compute_fingerprint(parse_smiles("C")) != compute_fingerprint(parse_smiles("N"))
        assert compute_fingerprint(parse_smiles("C1CC1")) != compute_fingerprint(parse_smiles("CCC"))

    def test_order_invariance_random_graphs(self):
        # permuting atom indices must leave the bit vector byte-identical
        rng = np.random.default_rng(42)
        elements = ["C", "N", "O", "S", "P", "F", "Cl"]
        orders = [chem.BOND_SINGLE, chem.BOND_DOUBLE, chem.BOND_TRIPLE, chem.BOND_AROMATIC]
        for _ in range(100):
            n = int(rng.integers(2, 12))
            atoms = [
                Atom(
                    element=elements[rng.integers(len(elements))],
                    aromatic=bool(rng.integers(2)),
                    formal_charge=int(rng.integers(-1, 2)),
                    explicit_h=None if rng.integers(2) else int(rng.integers(0, 4)),
                )
                for _ in range(n)
            ]
            bonds = []
            edges = set()
            for i in range(1, n):  # random spanning tree keeps it connected
                j = int(rng.integers(0, i))
                bonds.append(Bond(j, i, orders[rng.integers(len(orders))]))
                edges.add((j, i))
            for _ in range(int(rng.integers(0, 3))):  # a few ring-closing extras
                a, b = int(rng.integers(n)), int(rng.integers(n))
                key = (min(a, b), max(a, b))
                if a != b and key not in edges:
                    edges.add(key)
                    bonds.append(Bond(key[0], key[1], orders[rng.integers(len(orders))]))
            g = MolecularGraph(atoms=atoms, bonds=bonds)
            base = compute_fingerprint(g, radius=2, nbits=512)
            for _ in range(5):
                perm = rng.permutation(n)
                inverse = np.argsort(perm)
                pg = MolecularGraph(
                    atoms=[atoms[perm[i]] for i in range(n)],
                    bonds=[Bond(int(inverse[b.a]), int(inverse[b.b]), b.order) for b in bonds],
                )
                assert compute_fingerprint(pg, radius=2, nbits=512) == base

    def test_popcount_positive(self):
        for smiles in ["C", "O", "c1ccccc1", "[NH4+]"]:
            assert compute_fingerprint(parse_smiles(smiles)).popcount >= 1

    def test_parameter_validation(self):
        g = parse_smiles("C")
        with pytest.raises(ValueError):
            compute_fingerprint(g, radius=5)
        with pytest.raises(ValueError):
            compute_fingerprint(g, radius=-1)
        with pytest.raises(ValueError):
            compute_fingerprint(g, nbits=100)
        with pytest.raises(ValueError):
            compute_fingerprint(g, nbits=0)

    @pytest.mark.parametrize("nbits", [chem.EXACT_NBITS, 1 << 40])
    def test_refuses_widths_the_index_cannot_count(self, nbits, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before refusing the width")

        monkeypatch.setattr(chem.np, "zeros", no_allocation)
        with pytest.raises(ValueError, match=str(chem.EXACT_NBITS)):
            compute_fingerprints([parse_smiles("CC")], nbits=nbits)


# bracket atoms with charge and explicit H, [H] atoms, single atoms, rings,
# every bond order, two-letter elements and sizes from 1 to 30 atoms
MIXED_SMILES = [
    "C",
    "[H]",
    "[NH4+]",
    "[O-]",
    "[Fe+3]",
    "[H][H]",
    "[H]C([H])([H])[H]",
    "[H]OC([H])=O",
    "C[N+](C)(C)C",
    "[nH]1cccc1",
    "OC(=O)C[NH3+]",
    "CC(=O)[O-]",
    "C#N",
    "C=C=C",
    "ClC(Br)(I)F",
    "c1ccccc1",
    "c1ccc2ccccc2c1",
    "C1CC1",
    "CC(C)(C)C",
    "C[C@@H](N)C(=O)O",
    "F/C=C/F",
    "OC1=CC=CC=C1",
    "O=C(O)c1ccccc1OC(C)=O",
    "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
    "C" * 30,
]


class TestBatchedFingerprints:
    @pytest.mark.parametrize("nbits", [64, 1024, 2048])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_batch_matches_per_molecule_loop(self, radius, nbits):
        graphs = [parse_smiles(s) for s in MIXED_SMILES]
        batch = compute_fingerprints(graphs, radius=radius, nbits=nbits)
        assert batch.dtype == np.uint64 and batch.shape == (len(graphs), nbits // 64)
        for graph, row in zip(graphs, batch):
            fp = Fingerprint(nbits, row)
            assert fp == loop_fingerprint(graph, radius, nbits)
            assert fp == compute_fingerprint(graph, radius=radius, nbits=nbits)

    def test_random_graphs_match_loop(self):
        rng = np.random.default_rng(8)
        elements = ["C", "N", "O", "H", "Cl", "Br", "S"]
        orders = [chem.BOND_SINGLE, chem.BOND_DOUBLE, chem.BOND_TRIPLE, chem.BOND_AROMATIC]
        graphs = []
        for _ in range(60):
            n = int(rng.integers(1, 15))
            atoms = [
                Atom(
                    element=elements[rng.integers(len(elements))],
                    aromatic=bool(rng.integers(2)),
                    formal_charge=int(rng.integers(-3, 4)),
                    explicit_h=None if rng.integers(2) else int(rng.integers(0, 5)),
                )
                for _ in range(n)
            ]
            bonds = [Bond(int(rng.integers(0, i)), i, orders[rng.integers(4)]) for i in range(1, n)]
            graphs.append(MolecularGraph(atoms=atoms, bonds=bonds))
        for graph, row in zip(graphs, compute_fingerprints(graphs, radius=3, nbits=192)):
            assert Fingerprint(192, row) == loop_fingerprint(graph, 3, 192)

    def test_empty_batch_and_validation(self):
        empty = compute_fingerprints([], radius=2, nbits=128)
        assert empty.dtype == np.uint64 and empty.shape == (0, 2)
        with pytest.raises(ValueError):
            compute_fingerprints([parse_smiles("C"), MolecularGraph()], radius=2, nbits=64)
        with pytest.raises(ValueError):
            compute_fingerprints([parse_smiles("C")], radius=5, nbits=64)
        with pytest.raises(ValueError):
            compute_fingerprints([parse_smiles("C")], radius=2, nbits=96)


# sha256 of the .amfp the per-byte FNV-1a loop wrote for this pool; the batched
# hash must reproduce it byte for byte
GOLDEN_AMFP_SHA256 = "0f484ab4068090a8303a728f9ce9f3d8d5e3ecf26ae04a9ab2d1ec0db7409877"


def test_amfp_matches_golden_digest(tmp_path):
    graphs = [parse_smiles(s) for s in toydata.smiles_pool(3000)]
    path = str(tmp_path / "pool.amfp")
    chem.write_fingerprints(path, compute_fingerprints(graphs, radius=2, nbits=2048))
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == GOLDEN_AMFP_SHA256


class TestPiecewiseHashing:
    """compute_fingerprints hashes `chem.pieces` runs of at most PIECE_ATOMS atoms into one store."""

    def test_rows_match_each_graph_alone_across_pieces(self, monkeypatch):
        # 20 atoms a piece: "C" * 30 is a piece of its own, wider than the bound
        monkeypatch.setattr(chem, "PIECE_ATOMS", 20)
        graphs = [parse_smiles(s) for s in MIXED_SMILES]
        runs = list(chem.pieces(graphs))
        assert [graph for run in runs for graph in run] == graphs and len(runs) > 5
        assert [len(run) for run in runs if sum(len(g.atom_kinds) for g in run) > 20] == [1]
        for radius, nbits in [(0, 64), (2, 2048), (4, 192)]:
            batch = compute_fingerprints(graphs, radius=radius, nbits=nbits)
            for graph, row in zip(graphs, batch):
                assert Fingerprint(nbits, row) == compute_fingerprint(graph, radius=radius, nbits=nbits)
                assert Fingerprint(nbits, row) == loop_fingerprint(graph, radius, nbits)

    @pytest.mark.parametrize("piece_atoms", [1, 20, 1 << 14])
    def test_a_one_graph_batch_is_one_piece(self, monkeypatch, piece_atoms):
        monkeypatch.setattr(chem, "PIECE_ATOMS", piece_atoms)
        graph = parse_smiles("C" * 30)
        assert list(chem.pieces([graph])) == [[graph]]
        assert Fingerprint(2048, compute_fingerprints([graph])[0]) == loop_fingerprint(graph, 2, 2048)

    def test_pieces_of_a_stream_keep_its_items(self, monkeypatch):
        monkeypatch.setattr(chem, "PIECE_ATOMS", 4)
        graphs = [parse_smiles(s) for s in ["C", "CC", "CCC", "CCCCCC", "C", "CCC"]]
        position = {id(graph): i for i, graph in enumerate(graphs)}  # "C" and "C" are equal graphs
        runs = list(chem.pieces(iter(graphs)))
        assert [[position[id(graph)] for graph in run] for run in runs] == [[0, 1], [2], [3], [4, 5]]
        assert list(chem.pieces([])) == []

    def test_hashing_memory_is_bounded_by_the_piece(self):
        """20,000 pool molecules: 5.1 MB of rows, and one piece's temporaries.
        Hashed in one batch they took a 77.7 MiB traced peak."""
        pool = [parse_smiles(s) for s in toydata.smiles_pool(4634)]
        graphs = [pool[i] for i in np.random.default_rng(7).integers(0, 4634, size=20000)]
        tracemalloc.start()
        try:
            compute_fingerprints(graphs, radius=2, nbits=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak


class TestTanimoto:
    def test_set_arithmetic_oracle(self):
        a = Fingerprint.from_bits(256, [1, 2, 3])
        b = Fingerprint.from_bits(256, [2, 3, 4])
        assert tanimoto(a, b) == pytest.approx(0.5)  # |{2,3}| / |{1,2,3,4}|
        assert tanimoto(a, a) == 1.0
        assert tanimoto(a, Fingerprint.from_bits(256, [10, 20])) == 0.0

    def test_empty_fingerprints_identical(self):
        empty = Fingerprint.from_bits(256, [])
        assert tanimoto(empty, empty) == 1.0
        assert tanimoto(empty, Fingerprint.from_bits(256, [0])) == 0.0

    def test_random_against_python_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            xs = set(map(int, rng.integers(0, 256, size=rng.integers(0, 40))))
            ys = set(map(int, rng.integers(0, 256, size=rng.integers(0, 40))))
            a = Fingerprint.from_bits(256, xs)
            b = Fingerprint.from_bits(256, ys)
            expected = 1.0 if not (xs | ys) else len(xs & ys) / len(xs | ys)
            assert tanimoto(a, b) == pytest.approx(expected, abs=1e-15)
            assert tanimoto(b, a) == tanimoto(a, b)
            assert 0.0 <= tanimoto(a, b) <= 1.0

    def test_width_mismatch(self):
        with pytest.raises(BitWidthMismatchError):
            tanimoto(Fingerprint.from_bits(64, [0]), Fingerprint.from_bits(128, [0]))

    def test_bit_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"^bit index 64 out of range for 64 bits$"):
            Fingerprint.from_bits(64, [64])


class TestFingerprintFile:
    def test_round_trip(self, tmp_path):
        fps = [compute_fingerprint(parse_smiles(s)) for s in ["C", "CCO", "c1ccccc1", "[NH4+]"]]
        path = str(tmp_path / "fps.amfp")
        chem.write_fingerprints(path, fps)
        back = chem.read_fingerprints(path)
        assert back == fps

    def test_rows_round_trip_byte_for_byte(self, tmp_path):
        graphs = [parse_smiles(s) for s in toydata.smiles_pool(300)]
        fps = compute_fingerprints(graphs, radius=2, nbits=256)
        path = str(tmp_path / "pool.amfp")
        chem.write_fingerprints(path, fps)
        back = chem.read_fingerprints(path)
        assert len(back) == len(fps)
        for words, row in zip(fps, back):
            assert row.nbits == 256
            assert row.words.dtype == np.uint64 and row.words.shape == (4,)
            assert row.words.tobytes() == words.astype("<u8").tobytes()
        # every row is a view of one (n, nbits/64) array over the payload, not a copy
        base = back[0].words.base
        assert base is not None and all(row.words.base is base for row in back)
        assert open(path, "rb").read()[20:] == b"".join(row.words.tobytes() for row in back)
        again = str(tmp_path / "again.amfp")
        chem.write_fingerprints(again, back)
        assert open(again, "rb").read() == open(path, "rb").read()

    def test_a_packed_store_and_its_rows_write_the_same_bytes(self, tmp_path):
        graphs = [parse_smiles(s) for s in toydata.smiles_pool(50)]
        matrix = compute_fingerprints(graphs, radius=2, nbits=512)
        packed, listed = str(tmp_path / "packed.amfp"), str(tmp_path / "listed.amfp")
        chem.write_fingerprints(packed, matrix)
        chem.write_fingerprints(listed, [compute_fingerprint(graph, radius=2, nbits=512) for graph in graphs])
        assert open(packed, "rb").read() == open(listed, "rb").read()
        assert chem.read_fingerprints(packed) == [Fingerprint(512, row) for row in matrix]
        # the packed reader hands back the store itself: a read-only view of the payload
        words = chem.read_packed_fingerprints(packed)
        assert words.shape == (50, 8) and words.dtype == np.uint64 and not words.flags.writeable
        assert np.array_equal(words, matrix)
        with pytest.raises(ValueError, match="empty"):
            chem.write_fingerprints(str(tmp_path / "none.amfp"), matrix[:0])

    def test_byte_layout(self, tmp_path):
        fp = Fingerprint.from_bits(64, [0, 63])
        path = str(tmp_path / "one.amfp")
        chem.write_fingerprints(path, [fp])
        raw = open(path, "rb").read()
        magic, version, nbits, count = struct.unpack("<4sIIQ", raw[:20])
        assert (magic, version, nbits, count) == (b"AMFP", 1, 64, 1)
        (word,) = struct.unpack("<Q", raw[20:28])
        assert word == (1 << 63) | 1
        assert len(raw) == 28

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.amfp"
        path.write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(ValueError):
            chem.read_fingerprints(str(path))
        path.write_bytes(b"AM")
        with pytest.raises(ValueError):
            chem.read_fingerprints(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.amfp"
        path.write_bytes(struct.pack("<4sIIQ", b"AMFP", 1, 64, 2) + b"\x00" * 8)
        with pytest.raises(ValueError):
            chem.read_fingerprints(str(path))


    def test_nbits_not_a_multiple_of_64_is_refused_with_the_file_name(self, tmp_path):
        path = tmp_path / "odd.amfp"
        path.write_bytes(struct.pack("<4sIIQ", b"AMFP", 1, 100, 1) + b"\x00" * 16)
        with pytest.raises(ValueError) as info:
            chem.read_fingerprints(str(path))
        assert str(info.value) == f"{path}: corrupt header, nbits=100"

    def test_zero_count_is_refused_with_the_file_name(self, tmp_path):
        path = tmp_path / "empty.amfp"
        path.write_bytes(struct.pack("<4sIIQ", b"AMFP", 1, 64, 0))
        with pytest.raises(ValueError, match="zero fingerprints") as info:
            chem.read_fingerprints(str(path))
        assert str(path) in str(info.value)


class _DiskFull:
    """A file whose first write lands half its bytes and then fails."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_writes(monkeypatch):
    """Make every file write through chem's atomic writer fail midway."""
    monkeypatch.setattr(chem, "open", _DiskFull, raising=False)


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    fps = [compute_fingerprint(parse_smiles(s)) for s in ["C", "CCO"]]
    fresh, old = tmp_path / "fresh.amfp", tmp_path / "old.amfp"
    chem.write_fingerprints(str(old), fps[:1])
    before = old.read_bytes()
    fail_writes(monkeypatch)
    for path in (fresh, old):
        with pytest.raises(OSError):
            chem.write_fingerprints(str(path), fps)
    assert not fresh.exists()
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.amfp"]
