import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import Circuit, CnotGate, LocalGate, bipartite_space, controlled
from gatedecomp import codecs
from gatedecomp.codecs import CodecError
from gatedecomp.generators import haar_unitary, random_permutation, swap_unitary
from gatedecomp.protocols import BinaryMatrix


class TestCanonicalJson:
    def test_float_formatting_roundtrips(self):
        import json

        for x in (0.1, 1.0, -0.0, 1e-17, 123456.789, 2**-52):
            s = codecs.dumps_canonical(x)
            assert json.loads(s) == x or (x == 0 and json.loads(s) == 0)
            assert codecs.dumps_canonical(json.loads(s)) == s

    def test_rejects_non_finite(self):
        with pytest.raises(CodecError):
            codecs.dumps_canonical(float("inf"))


class TestMatrixFiles:
    def test_unitary_roundtrip_byte_identical(self, tmp_path):
        p = str(tmp_path / "u.json")
        codecs.save_matrix_file(p, haar_unitary(4, 3), (2, 2), "unitary")
        raw = open(p).read()
        mf = codecs.load_matrix_file(p)
        codecs.save_matrix_file(p, mf.matrix, mf.dims, mf.kind)
        assert open(p).read() == raw

    def test_17_digit_precision(self, tmp_path):
        p = str(tmp_path / "u.json")
        u = haar_unitary(3, 9)
        codecs.save_matrix_file(p, u, (3,), "unitary")
        mf = codecs.load_matrix_file(p)
        assert np.array_equal(mf.matrix, u)  # bit-exact

    def test_unitary_kind_takes_the_library_rule(self, tmp_path):
        # drift up to RECON_TOL (1e-8) in U U† - I saves and loads as it is
        p = str(tmp_path / "u.json")
        u = haar_unitary(6, 3) * (1 + 3e-9)
        codecs.save_matrix_file(p, u, (2, 3), "unitary")
        mf = codecs.load_matrix_file(p)
        assert np.array_equal(mf.matrix, u) and mf.value is None
        with pytest.raises(CodecError, match="unitarity"):
            codecs.save_matrix_file(p, u * (1 + 1e-7), (2, 3), "unitary")

    @pytest.mark.parametrize(
        "m,dims,error",
        [
            (np.eye(4), (2, 3), "dims imply"),  # the reader refuses the shape
            (np.zeros((0, 0)), (0, 2), "below 1"),  # and a dimension below 1
            (np.eye(2), (2, 0), "below 1"),
        ],
    )
    def test_save_refuses_what_the_reader_refuses(self, tmp_path, m, dims, error):
        p = tmp_path / "u.json"
        with pytest.raises(ValueError, match=error):
            codecs.save_matrix_file(str(p), m, dims, "unitary")
        assert list(tmp_path.iterdir()) == []
        # the reader's message for the same content
        obj = {"kind": "unitary", "dims": list(dims), "matrix": codecs._matrix_json(m)}
        codecs.atomic_write(str(p), codecs.dumps_canonical(obj))
        with pytest.raises(CodecError, match=f"u.json.*{error}"):
            codecs.load_matrix_file(str(p))

    def test_permutation_kinds_keep_their_permutation(self, tmp_path):
        p = str(tmp_path / "p.json")
        cp = random_permutation((3, 2), 4)
        codecs.save_matrix_file(p, cp.matrix(), (3, 2), "permutation")
        assert codecs.load_matrix_file(p).value == cp

    def test_kind_validation_on_load(self, tmp_path):
        p = str(tmp_path / "bad.json")
        obj = {
            "kind": "permutation",
            "dims": [2, 1],
            "matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]]],
        }
        codecs.atomic_write(p, codecs.dumps_canonical(obj))
        with pytest.raises(CodecError):
            codecs.load_matrix_file(p)

    def test_permutation_snap(self, tmp_path):
        p = str(tmp_path / "p.json")
        m = swap_unitary(2) + 1e-14
        codecs.save_matrix_file(p, m, (2, 2), "permutation")
        mf = codecs.load_matrix_file(p)
        assert np.array_equal(mf.matrix, swap_unitary(2))

    def test_malformed_json_reports_offset(self, tmp_path):
        p = str(tmp_path / "x.json")
        open(p, "w").write('{"kind": "unitary", ')
        with pytest.raises(CodecError, match="byte"):
            codecs.load_matrix_file(p)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(CodecError):
            codecs.save_matrix_file(str(tmp_path / "x.json"), np.eye(2), (2,), "weird")


class TestCircuitFiles:
    def _circuit(self):
        g1 = controlled((0,), (1,), {(0,): np.eye(2), (1,): haar_unitary(2, 5)})
        g2 = CnotGate(0, (0, 1), 1, (0, 1))
        g3 = LocalGate(0, haar_unitary(2, 6))
        return Circuit(bipartite_space(2, 2), (g1, g2, g3)).with_ebit_estimate(1.0)

    def test_roundtrip_byte_identical(self, tmp_path):
        p = str(tmp_path / "c.json")
        codecs.save_circuit_file(p, self._circuit())
        raw = open(p).read()
        c = codecs.load_circuit_file(p)
        codecs.save_circuit_file(p, c)
        assert open(p).read() == raw

    def test_semantics_preserved(self, tmp_path):
        from gatedecomp import apply_circuit

        p = str(tmp_path / "c.json")
        c0 = self._circuit()
        codecs.save_circuit_file(p, c0)
        c1 = codecs.load_circuit_file(p)
        assert np.array_equal(apply_circuit(c0), apply_circuit(c1))
        assert c1.metrics.ebit_estimate == 1.0

    def test_all_gate_kinds_roundtrip(self, tmp_path):
        from gatedecomp import GenericGate, TwoLevelGate, Ancilla, PartySpace
        from gatedecomp import apply_circuit

        space = PartySpace(
            parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),)
        )
        cnot44 = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        gates = (
            controlled((0,), (1,), {(0,): np.eye(2), (1,): haar_unitary(2, 1)}),
            LocalGate(2, haar_unitary(2, 2)),
            TwoLevelGate(0, (0, 1), 1, (0, 1), cnot44),
            CnotGate(0, (0, 1), 2, (0, 1)),
            GenericGate((0, 1), haar_unitary(4, 3), cut=1),
        )
        c = Circuit(space, gates)
        p = str(tmp_path / "all.json")
        codecs.save_circuit_file(p, c)
        c1 = codecs.load_circuit_file(p)
        assert np.array_equal(apply_circuit(c), apply_circuit(c1))
        raw = open(p).read()
        codecs.save_circuit_file(p, c1)
        assert open(p).read() == raw

    @pytest.mark.parametrize("cut", [3, -1, 1.5, "1", None])
    def test_generic_cut_must_be_an_axis_count(self, tmp_path, cut):
        from gatedecomp import GenericGate

        p = str(tmp_path / "c.json")
        codecs.save_circuit_file(p, Circuit(bipartite_space(2, 2), (GenericGate((0, 1), haar_unitary(4, 3)),)))
        obj = json.load(open(p))
        obj["gates"][0]["cut"] = cut
        open(p, "w").write(json.dumps(obj))
        with pytest.raises(CodecError, match="c.json"):
            codecs.load_circuit_file(p)


class TestBinaryAndTableFiles:
    def test_binary_roundtrip(self, tmp_path):
        p = str(tmp_path / "b.json")
        b = BinaryMatrix(2, 3, (1, 0, 1, 0, 1, 1))
        codecs.save_binary_file(p, b)
        assert codecs.load_binary_file(p) == b
        raw = open(p).read()
        codecs.save_binary_file(p, codecs.load_binary_file(p))
        assert open(p).read() == raw

    def test_table_roundtrip(self, tmp_path):
        p = str(tmp_path / "t.json")
        cp = random_permutation((3, 4), 8)
        codecs.save_table_file(p, cp)
        back = codecs.load_table_file(p)
        assert back.targets == cp.targets
        assert back.dims == cp.dims

    @pytest.mark.parametrize(
        "obj",
        [
            {"dims": [2, 2]},
            {"dims": [2, 2], "table": [[0, 0, 0, 0]]},
            # each of these once loaded silently as the identity table
            {"dims": [2, 2], "table": [[0, 0, 0, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [1, 1, 1, 1]]},
            {"dims": [2, 2], "table": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 2, 1, 0], [1, 1, 1, 1]]},
            {
                "dims": [2, 2],
                "table": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]],
            },
        ],
    )
    def test_malformed_table_names_path(self, tmp_path, obj):
        p = str(tmp_path / "t.json")
        codecs.atomic_write(p, json.dumps(obj))
        with pytest.raises(CodecError, match="t.json"):
            codecs.load_table_file(p)

    @pytest.mark.parametrize("dims", [[2.0, 2], ["2", "2"], [0, 2]])
    def test_table_dims_are_integers_of_at_least_1(self, tmp_path, dims):
        p = str(tmp_path / "t.json")
        table = [[a, b, a, b] for a in range(2) for b in range(2)]
        codecs.atomic_write(p, json.dumps({"dims": dims, "table": table}))
        with pytest.raises(CodecError, match="t.json"):
            codecs.load_table_file(p)

    def test_binary_matrix_kind_file_is_parsed_once(self, tmp_path, monkeypatch):
        p = str(tmp_path / "b.json")
        codecs.save_matrix_file(p, np.array([[1, 0], [1, 1]]), (2, 1), "binary")
        parsed = []
        loads = codecs._loads
        monkeypatch.setattr(codecs, "_loads", lambda text, path: parsed.append(path) or loads(text, path))
        assert codecs.load_binary_file(p) == BinaryMatrix(2, 2, (1, 0, 1, 1))
        assert parsed == [p]

    def test_binary_matrix_kind_file_builds_one_binary_matrix(self, tmp_path, monkeypatch):
        p = str(tmp_path / "b.json")
        codecs.save_matrix_file(p, np.array([[1, 0], [1, 1]]), (2, 1), "binary")
        built = []
        check = BinaryMatrix.__post_init__
        monkeypatch.setattr(BinaryMatrix, "__post_init__", lambda self: built.append(self) or check(self))
        b = codecs.load_binary_file(p)
        assert built == [b]
        assert b == BinaryMatrix(2, 2, (1, 0, 1, 1))


class TestGoldenFixture:
    def test_shipped_fixed_instance_loads_and_validates(self):
        import os

        from gatedecomp.generators import example2_flags
        from gatedecomp.protocols import pair_swap_family_unitary

        path = os.path.join(os.path.dirname(__file__), "data", "example2.json")
        mf = codecs.load_matrix_file(path)
        assert mf.kind == "permutation"
        assert mf.dims == (6, 3)
        expected = pair_swap_family_unitary(example2_flags())
        assert np.array_equal(np.real(mf.matrix).astype(int), expected)
        # byte-stable: re-encoding the loaded matrix reproduces the file
        raw = open(path).read()
        assert codecs.dumps_canonical(
            {
                "kind": mf.kind,
                "dims": list(mf.dims),
                "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in mf.matrix],
            }
        ) == raw


def _reference_matrix_text(m) -> str:
    """The per-value encoder: ``_format_float`` on every real and imaginary part."""
    f = codecs._format_float
    return "[" + ",".join("[" + ",".join(f"[{f(v.real)},{f(v.imag)}]" for v in row) + "]" for row in m) + "]"


_SPECIAL = (
    0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 1e17, 1e22, -1e22, 5e-324, -5e-324, 1e-300,
    np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
    2.0**53, 2.0**53 + 2.0, 99999999999999984.0, 0.5, 0.1, 123456.789, 4503599627370495.5,
)


class TestArrayEncoder:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_matches_the_per_value_encoder(self, rows, cols, data):
        value = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
        parts = data.draw(st.lists(value, min_size=2 * rows * cols, max_size=2 * rows * cols))
        m = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
        assert codecs._matrix_json(m).text == _reference_matrix_text(m)

    def test_special_values_byte_for_byte(self):
        m = np.array(_SPECIAL, dtype=float).view(complex).reshape(-1, 1)
        text = codecs._matrix_json(m).text
        assert text == _reference_matrix_text(m)
        for pair in ("[0.0,-0.0]", "[1.0,-3.0]", "[10000000000000000.0,-10000000000000000.0]", "[1e+17,1e+22]"):
            assert pair in text

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_raises(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        with pytest.raises(CodecError, match="non-finite"):
            codecs._matrix_json(m)
        m = np.eye(2, dtype=complex)
        m[0, 1] = complex(0.0, bad)
        with pytest.raises(CodecError, match="non-finite"):
            codecs._matrix_json(m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_one_pass_over_a_stack_matches_each_matrix(self, k, n, data):
        value = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
        parts = data.draw(st.lists(value, min_size=2 * k * n * n, max_size=2 * k * n * n))
        stack = np.array(parts, dtype=float).view(complex).reshape(k, n, n)
        texts = [t.text for t in codecs._matrices_json(stack)]
        assert texts == [_reference_matrix_text(m) for m in stack]

    def test_palette_of_special_values_byte_for_byte(self):
        # -0.0, whole values, and |x| >= 1e17, which "%.17g" prints with an exponent
        stack = np.array(
            [
                [[-0.0, 1.0], [complex(3.0, -0.0), 0.5]],
                [[1e17, complex(-1e22, 2.0)], [complex(0.0, 1e16), -3.0]],
                [[complex(5e-324, -0.0), 2.0**53], [0.1, complex(-1e17, -1.0)]],
            ]
        )
        texts = [t.text for t in codecs._matrices_json(stack)]
        assert texts == [codecs._matrix_json(m).text for m in stack]
        assert texts == [_reference_matrix_text(m) for m in stack]
        assert "[-0.0,0.0]" in texts[0] and "[3.0,-0.0]" in texts[0]
        assert "[1e+17,0.0]" in texts[1] and "[-1e+22,2.0]" in texts[1]

    def test_non_finite_in_a_later_entry_raises(self):
        stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        stack[1, 1, 0] = np.nan
        with pytest.raises(CodecError, match="non-finite"):
            codecs._matrices_json(stack)

    def test_palette_text_equals_per_branch_text(self):
        a, b = haar_unitary(2, 11), np.array([[0, 1], [1, 0]], dtype=complex)
        g = controlled((0, 1), (2,), {(0, 0): a, (0, 1): b, (1, 0): b, (1, 1): a, (2, 0): b, (2, 1): np.eye(2)})
        assert len(g.palette) == 3
        reference = {
            "kind": g.kind,
            "controls": list(g.controls),
            "targets": list(g.targets),
            "branches": [
                {"control": list(k), "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in m]}
                for k, m in g.branches
            ],
        }
        assert codecs.dumps_canonical(codecs._gate_to_obj(g)) == codecs.dumps_canonical(reference)
