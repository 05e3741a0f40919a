"""Gate records across the producers: palette invariant, construction, file bytes.

A controlled gate stores each distinct branch once (``palette``) plus an
integer ``index`` over its control dimensions.  Every producer must emit
records whose palette is canonical, and the integer path must keep writing
the same circuit files byte for byte.  Every record kind checks itself at
construction, so what constructs also saves and loads back.
"""

import hashlib
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import (
    Circuit,
    CnotGate,
    ControlledGate,
    GenericGate,
    LocalGate,
    TwoLevelGate,
    codecs,
    controlled,
    multiparty_space,
)
from gatedecomp.gateir import GATE_KINDS, STACK_MIN_GATES, CircuitError, controlled_stack
from gatedecomp.generators import (
    example2_flags,
    haar_unitary,
    random_complex_permutation,
    random_controlled,
    random_permutation,
    random_two_term,
    swap_conjugated_unitary,
)
from gatedecomp.multiparty import decompose_4party, decompose_multiparty
from gatedecomp.permdecomp import decompose_multiparty_perm, decompose_perm3
from gatedecomp.protocols import (
    emit_backup_protocol,
    emit_two_term_cnot,
    emit_xor_protocol,
    pp_expansion,
)
from gatedecomp.sandwich import (
    decompose_2xd_aform,
    decompose_sandwich,
    rank2_to_controlled,
)
from gatedecomp.stdgates import compile_perm_to_cnot_type


def _backup(da, db, seed):
    u = random_permutation((da, db), seed).matrix()
    return emit_backup_protocol(u, pp_expansion(u, da, db), da, db)


# named circuits of the exact (0/1 and permutation) producers, fixed seeds
INTEGER_PATH = {
    "perm3_3x4": lambda: decompose_perm3(random_permutation((3, 4), 11)).circuit,
    "backup_3x3_base": lambda: _backup(3, 3, 12).base,
    "backup_3x3_expanded": lambda: _backup(3, 3, 12).expanded,
    "backup_5x4_base": lambda: _backup(5, 4, 13).base,
    "backup_5x4_expanded": lambda: _backup(5, 4, 13).expanded,
    "xor_example2_base": lambda: emit_xor_protocol(example2_flags()).base,
    "xor_example2_expanded": lambda: emit_xor_protocol(example2_flags()).expanded,
    "cnot_type_4x3": lambda: compile_perm_to_cnot_type(random_permutation((4, 3), 14)).circuit,
    "multiparty_perm_2x3x2": lambda: decompose_multiparty_perm(random_permutation((2, 3, 2), 15)),
    "perm3_16x16": lambda: decompose_perm3(random_permutation((16, 16), 16)).circuit,
    "perm3_13x9": lambda: decompose_perm3(random_permutation((13, 9), 17)).circuit,
    "backup_16x16_base": lambda: _backup(16, 16, 18).base,
    "backup_16x16_expanded": lambda: _backup(16, 16, 18).expanded,
    "backup_13x9_base": lambda: _backup(13, 9, 19).base,
    "backup_13x9_expanded": lambda: _backup(13, 9, 19).expanded,
}


# sha256 of codecs.dumps_canonical(codecs.circuit_to_obj(c)), taken before the
# controlled-gate record stored its branches as a palette; these outputs are
# exact 0/1 matrices, so the bytes do not depend on the platform's BLAS
PINNED_SHA256 = {
    "perm3_3x4": "4e0d8c5f68ebc70a6bd05ba13713ae203355dddd03918d3244e138fcf7879b05",
    "backup_3x3_base": "c1739126a9b9f756439ddf4a1adfa726392bd8a96462fcf5f6ed56220968684c",
    "backup_3x3_expanded": "b06659df22026c0a15cfc620261a02d6716adc8b914b00f5dda0a0d87db9625f",
    "backup_5x4_base": "8b439b7ab505c4314be36a08ee7193be2fe91dd396fa091d2886ab4995bdc10e",
    "backup_5x4_expanded": "7ee04360009c11e08437605930709d2a05acdc52361815677f281454b184c4b9",
    "xor_example2_base": "ff34e57fa396f5442f99d655cb908112d3c0c7f0d2c71cbaa61eb7f896f1389f",
    "xor_example2_expanded": "e6ce3acb4eedcfd7ce137f6e6c4ac18a66ef5a991c147a57cdf811e1b40ad559",
    "cnot_type_4x3": "0de08e00d76749c58a50d371f51c9946032deb2e9b07baa1cbb8b77a48532e63",
    "multiparty_perm_2x3x2": "67ba6f7b082c0e6b10b96f828373c8c18c56d9f171ef4dde46358fef88b20a66",
    # taken before the SDR took exchange paths and the stages became one loop,
    # and before the backup protocol wrote its palettes as stacks
    "perm3_16x16": "2aa9b3343fd16c07150a0118b52c706b4445a72a6cd77c1bda4f3489a5f38107",
    "perm3_13x9": "7bf15de756f098029deeb89760644a510785a6f861c93334365cb36cf0c04179",
    "backup_16x16_base": "da9dccd0e92af887a2cc9c8bc8e46e84b43573a915675d10f1f47c9fe8e1b492",
    "backup_16x16_expanded": "73713d5e3533e2b9594c688ca814bee4aa8a40150a57c61daaa11414c0aeea4c",
    "backup_13x9_base": "7c48fd81a83a71819b3913ad5473b4980440d71456d49f02c8dbe72e8f67d020",
    "backup_13x9_expanded": "fbeb53833db07cfa8494df88f41da5401c53c7031a74443a54c3689fcd573354",
}


def circuit_sha256(c) -> str:
    return hashlib.sha256(codecs.dumps_canonical(codecs.circuit_to_obj(c)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INTEGER_PATH))
def test_integer_path_bytes_are_pinned(name):
    assert circuit_sha256(INTEGER_PATH[name]()) == PINNED_SHA256[name]


# ---------------------------------------------------------------------------
# the palette invariant


def assert_canonical(g: ControlledGate):
    """Entries distinct, all used, in first-use order; arrays read-only."""
    k = len(g.palette)
    assert g.palette.ndim == 3 and g.palette.shape[1] == g.palette.shape[2]
    assert g.index.ndim == len(g.controls)
    flat = g.index.reshape(-1)
    assert len({p.tobytes() for p in g.palette}) == k
    _, first = np.unique(flat, return_index=True)
    assert sorted(set(flat.tolist())) == list(range(k))
    assert list(flat[np.sort(first)]) == list(range(k))
    assert not g.palette.flags.writeable and not g.index.flags.writeable


def controlled_gates(c):
    return [g for g in c.gates if isinstance(g, ControlledGate)]


def _rank2_gate():
    return rank2_to_controlled(np.diag([1, 1, 1, -1]).astype(complex), 2, 2)[1]


PRODUCERS = {
    "sandwich_haar_5x3": lambda: decompose_sandwich(haar_unitary(15, 23), 5, 3).circuit,
    "sandwich_ctrlB_4x2": lambda: decompose_sandwich(random_controlled(4, 2, 24, "B"), 4, 2).circuit,
    "sandwich_identity_3x3": lambda: decompose_sandwich(np.eye(9), 3, 3).circuit,
    "two_by_d_sandwich": lambda: decompose_sandwich(haar_unitary(6, 21), 2, 3).circuit,
    "two_by_d_aform": lambda: decompose_2xd_aform(haar_unitary(6, 21), 3),
    "rank2_to_controlled": _rank2_gate,
    "multiparty_2x3x2": lambda: decompose_multiparty(haar_unitary(12, 25), (2, 3, 2)).circuit,
    "fourparty_2x3x2x2": lambda: decompose_4party(haar_unitary(24, 26), (2, 3, 2, 2)).circuit,
    "perm3_complex_3x4": lambda: decompose_perm3(random_complex_permutation((3, 4), 27)).circuit,
    "multiparty_perm_complex": lambda: decompose_multiparty_perm(
        random_complex_permutation((2, 2, 3), 28)
    ),
    "swap_sandwich": lambda: swap_conjugated_unitary(2, 29)[1],
    "two_term_cnot": lambda: emit_two_term_cnot(*random_two_term(3, 2, 30)[:4]),
    **INTEGER_PATH,
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_producer_emits_canonical_palettes(name):
    made = PRODUCERS[name]()
    # the CNOT-type compilation emits two-level and local gates only
    gates = [made] if isinstance(made, ControlledGate) else controlled_gates(made)
    assert gates or name == "cnot_type_4x3"
    for g in gates:
        assert_canonical(g)


@pytest.mark.parametrize("name", [n for n in sorted(PRODUCERS) if n.startswith(("backup", "xor"))])
def test_protocol_gates_have_at_most_two_branches(name):
    for g in controlled_gates(PRODUCERS[name]()):
        assert len(g.palette) <= 2


def test_loaded_gate_is_canonical(tmp_path):
    p = str(tmp_path / "c.json")
    c = _backup(3, 4, 31).base
    codecs.save_circuit_file(p, c)
    back = codecs.load_circuit_file(p)
    for g, h in zip(controlled_gates(c), controlled_gates(back), strict=True):
        assert_canonical(h)
        assert np.array_equal(g.index, h.index)
        assert np.array_equal(g.palette, h.palette)


def test_constructor_merges_orders_and_drops_entries():
    eye, x, z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    # entry 3 repeats entry 1, entry 2 is unused, entry 1 is used first
    g = ControlledGate((0,), (1,), np.stack([eye, x, z, x]), np.array([1, 3, 0, 1]))
    assert np.array_equal(g.palette, np.stack([x, eye]))
    assert g.index.tolist() == [0, 0, 1, 0]
    assert [k for k, _ in g.branches] == [(0,), (1,), (2,), (3,)]
    assert np.array_equal(g.branch((2,)), eye)


# ---------------------------------------------------------------------------
# one- and two-entry palettes settle by comparisons; they must agree with the
# general rule, kept here as it stood before that path


def _general_canonical(palette, index):
    """Merge byte-equal entries, drop unused ones, order the rest by first use."""
    seen = {}
    same = [seen.setdefault(p.tobytes(), j) for j, p in enumerate(palette)]
    rank = {}
    for j in index.reshape(-1).tolist():
        rank.setdefault(same[j], len(rank))
    if list(rank) == list(range(len(palette))):
        return palette, index
    remap = np.array([rank.get(s, 0) for s in same], dtype=np.intp)
    return palette[list(rank)], remap[index.reshape(-1)].reshape(index.shape)


def assert_general_rule(palette, index, controls=(0,), targets=(2,)):
    palette, index = np.asarray(palette, dtype=complex), np.asarray(index, dtype=np.intp)
    want_palette, want_index = _general_canonical(palette, index)
    g = ControlledGate(controls, targets, palette, index)
    assert g.palette.tobytes() == want_palette.tobytes()
    assert g.palette.shape == want_palette.shape
    assert g.index.dtype == want_index.dtype and np.array_equal(g.index, want_index)
    assert_canonical(g)
    return g


I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
PLUS_ZERO = np.array([[1, 0], [0, 1]], dtype=complex)
MINUS_ZERO = np.array([[1, -0.0], [-0.0, 1]], dtype=complex)
UPPER = np.array([[1, 0.5], [0, 1]], dtype=complex)
MINUS_ZERO_DIAGONAL = np.array([[-0.0, 1], [1, 0]], dtype=complex)

TWO_ENTRY_CASES = {
    "first_use_0": ([I2, X2], [0, 1, 1]),
    "first_use_1": ([I2, X2], [1, 0, 1]),  # the palette reversed, the index flipped
    "only_entry_0": ([I2, X2], [0, 0, 0]),
    "only_entry_1": ([I2, X2], [1, 1, 1]),
    "byte_equal_entries": ([X2, X2.copy()], [1, 0, 1]),  # merged into one
    "minus_zero_kept_apart": ([PLUS_ZERO, MINUS_ZERO], [1, 0, 0]),
    "one_entry": ([X2], [0, 0, 0]),
    # equal diagonals do not settle a pair: the whole entries decide
    "equal_diagonals_kept_apart": ([I2, UPPER], [0, 1, 0]),
    "equal_diagonals_merged": ([UPPER, UPPER.copy()], [0, 1, 0]),
    "minus_zero_on_the_diagonal": ([X2, MINUS_ZERO_DIAGONAL], [1, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(TWO_ENTRY_CASES))
def test_short_palette_follows_the_general_rule(name):
    palette, index = TWO_ENTRY_CASES[name]
    g = assert_general_rule(palette, index)
    if name == "minus_zero_kept_apart":
        assert len(g.palette) == 2 and g.index.tolist() == [0, 1, 1]
    if name in ("byte_equal_entries", "equal_diagonals_merged"):
        assert len(g.palette) == 1 and g.index.tolist() == [0, 0, 0]
    if name in ("equal_diagonals_kept_apart", "minus_zero_on_the_diagonal"):
        assert len(g.palette) == 2


@pytest.mark.parametrize("index", [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 1], [1, 1]]])
def test_short_palette_with_a_two_axis_index(index):
    assert_general_rule([I2, X2], index, controls=(0, 1), targets=(2,))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(["eye", "x", "plus_zero", "minus_zero", "upper", "minus_zero_diagonal"]), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
    st.booleans(),
)
def test_palettes_of_up_to_three_entries_follow_the_general_rule(names, picks, two_axes):
    pool = {
        "eye": I2,
        "x": X2,
        "plus_zero": PLUS_ZERO,
        "minus_zero": MINUS_ZERO,
        "upper": UPPER,
        "minus_zero_diagonal": MINUS_ZERO_DIAGONAL,
    }
    palette = [pool[n] for n in names]
    index = np.array([p % len(palette) for p in picks])
    if two_axes and len(index) % 2 == 0:
        assert_general_rule(palette, index.reshape(2, -1), controls=(0, 1), targets=(2,))
    else:
        assert_general_rule(palette, index)


# palettes of three or more entries settle on a hash of each entry's words,
# checked against the bytes; they must agree with the general rule too

PLUS_ZERO_3 = np.eye(3, dtype=complex)
MINUS_ZERO_3 = np.where(np.eye(3) == 1, 1.0, -0.0).astype(complex)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 7), min_size=3, max_size=12),
    st.lists(st.integers(0, 11), min_size=1, max_size=16),
    st.sampled_from([None, "in_order", "two_axes"]),
)
def test_longer_palettes_follow_the_general_rule(names, picks, shape):
    """Entries drawn with repeats from a pool that holds -0.0 and +0.0
    variants, a permutation (whose words add up as the identity's do) and
    Haar matrices; indices with repeats, unused entries and two axes."""
    pool = [PLUS_ZERO_3, MINUS_ZERO_3, np.eye(3, dtype=complex)[[1, 2, 0]]]
    pool += [haar_unitary(3, s) for s in range(4)] + [-PLUS_ZERO_3]
    palette = np.stack([pool[n].copy() for n in names])
    index = np.array([p % len(palette) for p in picks])
    if shape == "in_order":
        index = np.arange(len(palette))
    if shape == "two_axes" and len(index) % 2 == 0:
        assert_general_rule(palette, index.reshape(2, -1), controls=(0, 1), targets=(2,))
    else:
        assert_general_rule(palette, index)


def test_a_hash_collision_is_settled_by_the_bytes(monkeypatch):
    """With every key equal, the check against the bytes finds the
    different entries and the bytes decide."""
    from gatedecomp import gateir

    monkeypatch.setattr(gateir, "_word_weights", lambda n: np.zeros(n, dtype=np.uint64))
    palette = np.stack([X2, I2, MINUS_ZERO, X2.copy(), PLUS_ZERO, UPPER])
    g = assert_general_rule(palette, np.array([3, 0, 1, 2, 4, 5, 1]))
    assert len(g.palette) == 4  # X2, I2 (= PLUS_ZERO), MINUS_ZERO, UPPER


def test_read_only_arrays_are_kept_and_writable_ones_viewed():
    palette, index = np.stack([I2, X2]), np.array([0, 1, 1])
    g = ControlledGate((0,), (1,), palette, index)
    assert g.palette is not palette and g.index is not index
    assert not g.palette.flags.writeable and not g.index.flags.writeable
    assert palette.flags.writeable and index.flags.writeable
    palette.flags.writeable = index.flags.writeable = False
    h = ControlledGate((0,), (1,), palette, index)
    assert h.palette is palette and h.index is index


def test_a_cached_axis_pair_still_checks_each_call():
    ControlledGate((0,), (1,), I2[None], np.zeros(2, int))
    # 1.0 == 1 and hashes alike, but it is no axis
    with pytest.raises(TypeError):
        ControlledGate((0,), (1.0,), I2[None], np.zeros(2, int))
    with pytest.raises(TypeError):
        ControlledGate((0.0,), (1,), I2[None], np.zeros(2, int))
    for _ in range(2):
        with pytest.raises(CircuitError, match="overlap"):
            ControlledGate((0,), (0,), I2[None], np.zeros(2, int))
    # an int and a list take the uncached path, with the same checks
    assert ControlledGate(0, [1], I2[None], np.zeros(2, int)).targets == (1,)
    with pytest.raises(CircuitError, match="overlap"):
        ControlledGate(1, [1], I2[None], np.zeros(2, int))


# ---------------------------------------------------------------------------
# every kind: construction refuses a malformed record, and a record
# that constructs saves and reloads to the same bytes

U4 = haar_unitary(4, 5)
EYE2 = np.eye(2)

REFUSED = {
    "controlled_unsorted_controls": lambda: ControlledGate((1, 0), (2,), EYE2[None], np.zeros((2, 2), int)),
    "controlled_repeated_target": lambda: ControlledGate((0,), (1, 1), np.eye(4)[None], np.zeros(2, int)),
    "controlled_overlap": lambda: ControlledGate((0,), (0,), EYE2[None], np.zeros(2, int)),
    "controlled_empty_control_axis": lambda: ControlledGate((0,), (1,), EYE2[None], np.zeros(0, int)),
    "controlled_empty_branch": lambda: ControlledGate((0,), (1,), np.zeros((1, 0, 0)), np.zeros(2, int)),
    "controlled_index_past_palette": lambda: ControlledGate((0,), (1,), EYE2[None], np.array([0, 1])),
    "controlled_index_rank": lambda: ControlledGate((0,), (1,), EYE2[None], np.zeros((2, 2), int)),
    "controlled_non_finite": lambda: ControlledGate((0,), (1,), np.full((1, 2, 2), np.nan), np.zeros(2, int)),
    "dict_unsorted_controls": lambda: controlled((1, 0), (2,), {(0, 0): EYE2}),
    "dict_not_square": lambda: controlled((0,), (1,), {(0,): np.ones((2, 3))}),
    "local_unsorted": lambda: LocalGate((1, 0), U4),
    "local_repeated": lambda: LocalGate((0, 0), U4),
    "local_not_square": lambda: LocalGate(0, np.ones((2, 3))),
    "local_empty": lambda: LocalGate(0, np.zeros((0, 0))),
    "local_non_finite": lambda: LocalGate(0, np.diag([1.0, np.inf])),
    "two_level_not_4x4": lambda: TwoLevelGate(0, (0, 1), 1, (0, 1), EYE2),
    "two_level_one_axis": lambda: TwoLevelGate(1, (0, 1), 1, (0, 1), U4),
    "two_level_equal_levels": lambda: TwoLevelGate(0, (1, 1), 1, (0, 1), U4),
    "two_level_three_levels": lambda: TwoLevelGate(0, (0, 1), 1, (0, 1, 2), U4),
    "cnot_one_axis": lambda: CnotGate(1, (0, 1), 1, (0, 1)),
    "cnot_equal_levels": lambda: CnotGate(0, (0, 1), 1, (1, 1)),
    "generic_unsorted": lambda: GenericGate((1, 0), U4),
    "generic_cut_above": lambda: GenericGate((0, 1), U4, 5),
    "generic_cut_below": lambda: GenericGate((0, 1), U4, -1),
    "generic_non_finite": lambda: GenericGate((0, 1), np.full((4, 4), np.nan)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_construction_refuses_a_malformed_record(name):
    with pytest.raises(CircuitError):
        REFUSED[name]()


# a 2 x 3 x 2 space: every drawn record fits it, whether or not it is a
# valid gate there (axes, pairs and payload sizes are drawn independently)
SPACE = multiparty_space((2, 3, 2))
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e17, -3.0, 2.0 / 3.0])


@st.composite
def _matrix(draw, side=None):
    n = side or draw(st.integers(1, 4))
    values = draw(st.lists(ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
    return (np.array(values[::2]) + 1j * np.array(values[1::2])).reshape(n, n)


@st.composite
def _axes(draw, min_size=0):
    return tuple(sorted(draw(st.sets(st.integers(0, 2), min_size=min_size))))


@st.composite
def _pair(draw):
    return tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))


@st.composite
def _record(draw):
    kind = draw(st.sampled_from(GATE_KINDS))
    if kind == ControlledGate.kind:
        controls = draw(_axes())
        targets = draw(_axes(min_size=1).filter(lambda t: not set(t) & set(controls)))
        shape = tuple(draw(st.integers(1, 3)) for _ in controls)
        palette = np.stack([draw(_matrix(2)) for _ in range(draw(st.integers(1, 3)))])
        index = np.array(draw(st.lists(st.integers(0, len(palette) - 1), min_size=math.prod(shape),
                                       max_size=math.prod(shape)))).reshape(shape)
        return ControlledGate(controls, targets, palette, index)
    if kind == LocalGate.kind:
        return LocalGate(draw(_axes()), draw(_matrix()))
    if kind == GenericGate.kind:
        axes = draw(_axes())
        return GenericGate(axes, draw(_matrix()), draw(st.integers(0, len(axes))))
    a, b = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
    if kind == TwoLevelGate.kind:
        return TwoLevelGate(a, draw(_pair()), b, draw(_pair()), draw(_matrix(4)))
    return CnotGate(a, draw(_pair()), b, draw(_pair()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_record(), min_size=1, max_size=4))
def test_every_constructed_record_round_trips_to_the_same_bytes(gates):
    c = Circuit(SPACE, gates)
    text = codecs.dumps_canonical(codecs.circuit_to_obj(c))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.json")
        codecs.save_circuit_file(path, c)
        back = codecs.load_circuit_file(path)
    assert [g.kind for g in back.gates] == [g.kind for g in gates]
    assert codecs.dumps_canonical(codecs.circuit_to_obj(back)) == text


def test_kind_names_are_the_classes_in_gate_count_order():
    assert GATE_KINDS == ("ControlledComputational", "Local", "TwoLevelStandard", "CNOT", "GenericBipartite")
    assert GATE_KINDS == tuple(cls.kind for cls in (ControlledGate, LocalGate, TwoLevelGate, CnotGate, GenericGate))


# ---------------------------------------------------------------------------
# records built as checked stacks: the same records as built one by one


def per_record(controls, targets, palettes, indices):
    """``controlled_stack`` done one record at a time, by the constructor."""
    return [ControlledGate(controls, targets, p, i) for p, i in zip(palettes, indices, strict=True)]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert type(g) is type(h)
        if not isinstance(g, ControlledGate):
            assert codecs.dumps_canonical(codecs.circuit_to_obj(Circuit(SPACE_OF[type(g)], (g,)))) == \
                codecs.dumps_canonical(codecs.circuit_to_obj(Circuit(SPACE_OF[type(h)], (h,))))
            continue
        assert (g.controls, g.targets) == (h.controls, h.targets)
        assert g.palette.shape == h.palette.shape and g.palette.tobytes() == h.palette.tobytes()
        assert g.index.shape == h.index.shape and g.index.dtype == h.index.dtype
        assert g.index.tobytes() == h.index.tobytes()
        assert_canonical(g)


# a space that holds every non-controlled gate the protocols emit
SPACE_OF = {k: multiparty_space((16, 16, 2, 2, 2)) for k in (CnotGate, GenericGate, LocalGate, TwoLevelGate)}


def _identity_block(n, seed):
    """The identity with a Haar block on its last third: many gates strip to the identity."""
    u = np.eye(n, dtype=complex)
    m = max(2, n // 3)
    u[n - m :, n - m :] = haar_unitary(m, seed)
    return u


def _dense_input(kind, n, dims, seed):
    if kind == "haar":
        return haar_unitary(n, seed)
    if kind == "perm":
        return random_permutation(dims, seed).matrix()
    if kind == "phased":
        return random_complex_permutation(dims, seed).matrix()
    if kind == "identity_block":
        return _identity_block(n, seed)
    da = dims[0]
    return random_controlled(da, n // da, seed, "A" if kind == "ctrlA" else "B")


DENSE_SHAPES = {
    "sandwich": [(2, 3), (3, 2), (4, 2), (5, 3), (3, 3)],
    "multi": [(2, 2, 2), (2, 3, 2), (3, 2, 2)],
    "party4": [(2, 2, 2, 2), (2, 3, 2, 2)],
}


def _dense_circuit(method, u, dims):
    if method == "sandwich":
        return decompose_sandwich(u, *dims).circuit
    if method == "multi":
        return decompose_multiparty(u, dims).circuit
    return decompose_4party(u, dims).circuit


def _both_ways(build):
    """``build()`` with records built as stacks, and with every stack built record by record."""
    from gatedecomp import protocols, sandwich

    stacked = build()
    with pytest.MonkeyPatch.context() as mp:
        for module in (sandwich, protocols):
            mp.setattr(module, "controlled_stack", per_record)
        single = build()
    return stacked, single


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(DENSE_SHAPES)),
    st.data(),
    st.sampled_from(["haar", "perm", "phased", "ctrlA", "ctrlB", "identity_block"]),
    st.integers(0, 10**6),
)
def test_dense_producers_build_the_records_of_one_by_one(method, data, kind, seed):
    dims = data.draw(st.sampled_from(DENSE_SHAPES[method]))
    u = _dense_input(kind, math.prod(dims), dims, seed)
    stacked, single = _both_ways(lambda: _dense_circuit(method, u, dims))
    assert_same_records(stacked.gates, single.gates)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
def test_protocols_build_the_records_of_one_by_one(da, db, seed):
    stacked, single = _both_ways(lambda: _backup(da, db, seed))
    assert_same_records(stacked.base.gates, single.base.gates)
    assert_same_records(stacked.expanded.gates, single.expanded.gates)
    flags = np.random.default_rng(seed).integers(0, 2, size=(da, db))
    stacked, single = _both_ways(lambda: emit_xor_protocol(flags))
    assert_same_records(stacked.base.gates, single.base.gates)
    assert_same_records(stacked.expanded.gates, single.expanded.gates)


POOL_2 = [I2, X2, PLUS_ZERO, MINUS_ZERO, UPPER, MINUS_ZERO_DIAGONAL]
POOL_3 = [PLUS_ZERO_3, MINUS_ZERO_3, np.eye(3, dtype=complex)[[1, 2, 0]], -PLUS_ZERO_3]
POOL_3 += [haar_unitary(3, s) for s in range(3)]


@st.composite
def _stack(draw):
    """n gates' palettes of k entries drawn with repeats from a pool with -0.0 and +0.0
    variants, and indices with unused entries, over one or two control axes."""
    pool = draw(st.sampled_from([POOL_2, POOL_3]))
    # below STACK_MIN_GATES the gates are built one at a time, from it on as one stack
    n = draw(st.sampled_from([1, 3, STACK_MIN_GATES - 1, STACK_MIN_GATES, STACK_MIN_GATES + 3]))
    k = draw(st.sampled_from([1, 2, 3, 5, 12]))
    shape = draw(st.sampled_from([(2,), (3,), (2, 3), (4, 4)]))
    palettes = np.stack([
        np.stack([pool[draw(st.integers(0, len(pool) - 1))].copy() for _ in range(k)]) for _ in range(n)
    ])
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n * math.prod(shape), max_size=n * math.prod(shape)))
    index = np.array(picks).reshape((n,) + shape)
    if draw(st.booleans()):  # in order: the canonical form when every entry is distinct
        index = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape) % k, index.shape)
    return palettes, index


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_stack(), st.booleans())
def test_a_stack_builds_the_records_of_one_by_one(stack, as_list):
    palettes, index = stack
    controls = tuple(range(index.ndim - 1))
    targets = (index.ndim - 1,)
    want = per_record(controls, targets, palettes, index)
    if as_list:
        # gates 0 and 1 given one array, as the protocols give a shared palette
        palettes = [palettes[0] if j == 1 else palettes[j] for j in range(len(palettes))]
        index = list(index)
        want = per_record(controls, targets, palettes, index)
    assert_same_records(controlled_stack(controls, targets, palettes, index), want)


def test_a_hash_collision_in_a_stack_is_settled_by_the_bytes(monkeypatch):
    from gatedecomp import gateir

    monkeypatch.setattr(gateir, "_word_weights", lambda n: np.zeros(n, dtype=np.uint64))
    palettes = np.stack([
        np.stack([X2, I2, MINUS_ZERO, X2.copy(), PLUS_ZERO, UPPER]),
        np.stack([UPPER, MINUS_ZERO, PLUS_ZERO, I2, X2, X2.copy()]),
        np.stack([I2, X2, MINUS_ZERO, PLUS_ZERO, UPPER, MINUS_ZERO_DIAGONAL]),
    ] * 4)
    index = np.array([[3, 0, 1, 2, 4, 5, 1], [0, 1, 2, 3, 4, 5, 0], [0, 1, 2, 3, 4, 5, 5]] * 4)
    assert len(palettes) >= STACK_MIN_GATES
    got = controlled_stack((0,), (1,), palettes, index)
    assert_same_records(got, per_record((0,), (1,), palettes, index))
    assert len(got[0].palette) == 4  # X2, I2 (= PLUS_ZERO), MINUS_ZERO, UPPER


@pytest.mark.parametrize("repeat", [1, STACK_MIN_GATES])
def test_a_canonical_gate_holds_the_given_arrays_and_shared_palettes_stay_shared(repeat):
    shared = np.stack([I2, X2])
    shared.flags.writeable = False
    writable, other = np.stack([X2, I2]), np.stack([X2, UPPER])
    index = np.array([[0, 1, 1], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0]] * repeat)
    got = controlled_stack((0,), (1,), [shared, shared, writable, writable, other] * repeat, index)
    a, b, c, d, e = got[:5]
    assert all(g.palette is shared for g in got[0::5] + got[1::5])
    # one read-only view of the writable array serves every gate given it
    assert c.palette is d.palette and np.shares_memory(c.palette, writable)
    assert all(g.palette is c.palette for g in got[2::5] + got[3::5])
    assert not c.palette.flags.writeable and writable.flags.writeable
    assert e.palette.tobytes() == np.stack([UPPER, X2]).tobytes() and e.index.tolist() == [0, 1, 1]
    assert not e.palette.flags.writeable and not a.index.flags.writeable
    stack = np.stack([shared, other] * repeat)  # writable: the records hold read-only views of it
    views = controlled_stack((0,), (1,), stack, np.tile([0, 1, 1], (len(stack), 1)))
    assert all(not g.palette.flags.writeable and np.shares_memory(g.palette, stack) for g in views)
    assert stack.flags.writeable


def test_an_empty_stack_has_no_records():
    assert controlled_stack((0,), (1,), [], []) == []


# a stack given as one array has one branch shape, so a wrong one comes in a list
FAULTS = [(f, a) for f in ("nan", "inf", "index_above", "index_below") for a in (False, True)]


@pytest.mark.parametrize("n", [4, STACK_MIN_GATES + 2])
@pytest.mark.parametrize("j", [0, 2])
@pytest.mark.parametrize("fault,as_list", FAULTS + [("branch_shape", True)])
def test_a_malformed_gate_in_a_stack_is_refused_by_position(fault, as_list, j, n):
    palettes = [np.stack([I2, X2]) for _ in range(n)]
    indices = [np.array([0, 1, 1]) for _ in range(n)]
    if fault in ("nan", "inf"):
        palettes[j][1, 0, 1] = np.nan if fault == "nan" else np.inf
    elif fault == "index_above":
        indices[j] = np.array([0, 2, 1])
    elif fault == "index_below":
        indices[j] = np.array([0, -1, 1])
    else:
        palettes[j] = np.ones((2, 2, 3))
    with pytest.raises(CircuitError) as single:
        ControlledGate((0,), (1,), palettes[j], indices[j])
    given = palettes if as_list else np.stack(palettes)
    with pytest.raises(CircuitError, match=f"^stack gate {j}: ") as stacked:
        controlled_stack((0,), (1,), given, indices if as_list else np.stack(indices))
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == f"stack gate {j}: {single.value}"


@pytest.mark.parametrize("n", [2, STACK_MIN_GATES])
def test_a_stack_refuses_what_one_record_refuses_about_axes_and_shapes(n):
    with pytest.raises(CircuitError, match="overlap"):
        controlled_stack((0,), (0,), np.stack([I2[None]] * n), np.zeros((n, 2), int))
    with pytest.raises(CircuitError, match="^stack gate 0: control index of shape"):
        controlled_stack((0, 1), (2,), np.stack([I2[None]] * n), np.zeros((n, 2), int))
    with pytest.raises(CircuitError, match="^stack gate 1: palette has shape"):
        controlled_stack((0,), (1,), [np.stack([I2])] + [np.eye(3)[None]] * (n - 1), np.zeros((n, 2), int))
    with pytest.raises(CircuitError, match="^stack gate 1: control index has shape"):
        controlled_stack((0,), (1,), [I2[None]] * n, [np.zeros(2, int)] + [np.zeros(3, int)] * (n - 1))
    with pytest.raises(CircuitError, match=f"{n} palettes for {n + 1} control indices"):
        controlled_stack((0,), (1,), [I2[None]] * n, np.zeros((n + 1, 2), int))


def test_expansion_makes_one_apply_gate_per_shared_palette():
    res = _backup(5, 4, 13)
    two_term = [g for g in res.base.gates if len(g.palette) == 2]
    assert len({id(g.palette) for g in two_term}) < len(two_term)  # some gates share a palette
    # the expanded gates are [flag, copy, apply, copy, flag] per two-term gate, one gate otherwise
    applies, at = [], 0
    for g in res.base.gates:
        if len(g.palette) == 2:
            applies.append(res.expanded.gates[at + 2])
            assert applies[-1].palette is g.palette
            at += 5
        else:
            at += 1
    assert at == len(res.expanded.gates)
    assert len({id(a) for a in applies}) == len({id(g.palette) for g in two_term})
