import json
import os

import numpy as np
import pytest

from gatedecomp import Circuit, CnotGate, bipartite_space, cli, codecs
from gatedecomp.cli import main
from gatedecomp.generators import haar_unitary, random_permutation
from gatedecomp.matcore import RECON_TOL
from gatedecomp.permdecomp import ComplexPermutation


def run(*argv):
    return main(list(argv))


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGen:
    def test_haar_deterministic(self, in_tmp):
        assert run("gen", "--kind", "haar", "--dims", "2", "3", "--seed", "5", "-o", "a.json") == 0
        assert run("gen", "--kind", "haar", "--dims", "2", "3", "--seed", "5", "-o", "b.json") == 0
        assert open("a.json").read() == open("b.json").read()

    def test_swap_needs_square_dims(self, in_tmp):
        assert run("gen", "--kind", "swap", "--dims", "2", "3", "-o", "x.json") == 3

    def test_example1_blocks(self, in_tmp):
        assert run("gen", "--kind", "example1", "--blocks", "10,01", "-o", "e.json") == 0
        mf = codecs.load_matrix_file("e.json")
        assert mf.dims == (4, 2)

    def test_env_seed(self, in_tmp, monkeypatch):
        monkeypatch.setenv("SANDWICH_SEED", "77")
        assert run("gen", "--kind", "haar", "--dims", "2", "2", "-o", "a.json") == 0
        assert run("gen", "--kind", "haar", "--dims", "2", "2", "--seed", "77", "-o", "b.json") == 0
        assert open("a.json").read() == open("b.json").read()

    def test_sec6_kind_writes_companion(self, in_tmp):
        assert run("gen", "--kind", "sec6-swap-sandwich", "--dims", "2", "--seed", "3", "-o", "s.json") == 0
        assert os.path.exists("s.json.circuit.json")

    @pytest.mark.parametrize(
        "kind,dims", [("sec6-swap-sandwich", ["0"]), ("haar", ["0", "2"]), ("perm", ["2", "0"])]
    )
    def test_zero_dimension_exits_3_and_writes_nothing(self, in_tmp, capsys, kind, dims):
        assert run("gen", "--kind", kind, "--dims", *dims, "-o", "z.json") == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(in_tmp) == []


ALL_METHODS = [
    ("haar", ["2", "3"], "sandwich"),
    ("haar", ["2", "3"], "aform"),
    ("haar", ["3", "2"], "bcu3"),
    ("perm", ["3", "3"], "perm3"),
    ("haar", ["2", "2", "2"], "multi"),
    ("haar", ["2", "2", "2", "2"], "party4"),
    ("haar", ["2", "3"], "std"),
    ("perm", ["3", "3"], "std"),
    ("perm", ["3", "3"], "std-cnot"),
    ("perm", ["4", "3"], "lemma7"),
    ("example2", None, "xor-protocol"),
    ("haar", ["3", "3"], "transfer"),
    ("perm", ["2", "2", "3"], "multi"),
]


class TestDecomposeVerifyIntegration:
    @pytest.mark.parametrize("kind,dims,method", ALL_METHODS)
    def test_every_method_output_passes_verify(self, in_tmp, kind, dims, method):
        gen_args = ["gen", "--kind", kind, "--seed", "9", "-o", "u.json"]
        if dims:
            gen_args[3:3] = ["--dims", *dims]
        assert run(*gen_args) == 0
        assert run("decompose", "--method", method, "-i", "u.json", "-o", "c.json") == 0
        target = "c.json.target.json" if method == "transfer" else "u.json"
        assert run("verify", "-u", target, "-c", "c.json") == 0

    def test_decompose_deterministic(self, in_tmp):
        run("gen", "--kind", "haar", "--dims", "3", "2", "--seed", "4", "-o", "u.json")
        assert run("decompose", "--method", "sandwich", "-i", "u.json", "-o", "c1.json") == 0
        assert run("decompose", "--method", "sandwich", "-i", "u.json", "-o", "c2.json") == 0
        assert open("c1.json").read() == open("c2.json").read()

    def test_verify_classifies_every_gate_above_64_basis_states(self, in_tmp, capsys):
        run("gen", "--kind", "perm", "--dims", "4", "3", "--seed", "9", "-o", "u.json")
        assert run("decompose", "--method", "lemma7", "-i", "u.json", "-o", "c.json") == 0
        circuit = codecs.load_circuit_file("c.json")
        assert circuit.space.total_dim == 96  # the flag ancillas take it past 64
        capsys.readouterr()
        assert run("verify", "-u", "u.json", "-c", "c.json") == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  gate ")]
        assert [ln.split(":")[0] for ln in lines] == [f"  gate {i}" for i in range(len(circuit.gates))]

    def test_verify_corrupted_circuit_exits_2(self, in_tmp):
        run("gen", "--kind", "swap", "--dims", "2", "2", "-o", "u.json")
        run("decompose", "--method", "perm3", "-i", "u.json", "-o", "c.json")
        obj = json.load(open("c.json"))
        # corrupt one branch of one gate
        obj["gates"][0]["branches"][0]["matrix"] = [
            [[0.0, 0.0], [1.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0]],
        ]
        open("c.json", "w").write(json.dumps(obj))
        assert run("verify", "-u", "u.json", "-c", "c.json") == 2

    @pytest.mark.parametrize(
        "case",
        [
            "missing_gate_key",
            "gates_not_a_list",
            "gate_order_not_product",
            "control_tuple_too_long",
            "axis_not_an_integer",
            "control_tuple_repeated",
        ],
    )
    def test_verify_malformed_circuit_exits_3(self, in_tmp, capsys, case):
        run("gen", "--kind", "swap", "--dims", "2", "2", "-o", "u.json")
        run("decompose", "--method", "perm3", "-i", "u.json", "-o", "c.json")
        obj = json.load(open("c.json"))
        if case == "missing_gate_key":
            del obj["gates"][0]["targets"]
        elif case == "gates_not_a_list":
            obj["gates"] = "abc"
        elif case == "gate_order_not_product":
            obj["gate_order"] = "application"
        elif case == "axis_not_an_integer":
            obj["gates"][0]["controls"] = ["0"]
        elif case == "control_tuple_repeated":
            obj["gates"][0]["branches"].append(obj["gates"][0]["branches"][0])
        else:
            obj["gates"][0]["branches"][0]["control"] = [0, 0]
        open("c.json", "w").write(json.dumps(obj))
        capsys.readouterr()
        assert run("verify", "-u", "u.json", "-c", "c.json") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if case != "control_tuple_too_long":
            assert "c.json" in err

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_integer_too_large_for_a_float_exits_3(self, in_tmp, capsys, command):
        run("gen", "--kind", "swap", "--dims", "2", "2", "-o", "u.json")
        run("decompose", "--method", "perm3", "-i", "u.json", "-o", "c.json")
        # json.dumps writes 10**400 as an integer literal, which no float holds
        name = "u.json" if command == "decompose" else "c.json"
        obj = json.load(open(name))
        payload = obj["matrix"] if command == "decompose" else obj["gates"][0]["branches"][0]["matrix"]
        payload[0][0][0] = 10**400
        open(name, "w").write(json.dumps(obj))
        capsys.readouterr()
        if command == "decompose":
            code = run("decompose", "--method", "perm3", "-i", "u.json", "-o", "d.json")
        else:
            code = run("verify", "-u", "u.json", "-c", "c.json")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("case", ["matrix_entries", "control_tuples", "integer_field"])
    def test_boolean_in_place_of_a_number_exits_3(self, in_tmp, capsys, case):
        # json booleans pass complex() and operator.index() as 1 and 0, so
        # each of these files loaded, and verified with exit 0, if let through
        run("gen", "--kind", "swap", "--dims", "2", "2", "-o", "u.json")
        run("decompose", "--method", "perm3", "-i", "u.json", "-o", "c.json")
        name = "u.json" if case == "matrix_entries" else "c.json"
        obj = json.load(open(name))
        if case == "matrix_entries":
            obj["matrix"] = [[[bool(re), bool(im)] for re, im in row] for row in obj["matrix"]]
        elif case == "control_tuples":
            for gate in obj["gates"]:
                for branch in gate["branches"]:
                    branch["control"] = [bool(x) for x in branch["control"]]
        else:
            obj["gates"][0]["targets"] = [True]
        open(name, "w").write(json.dumps(obj))
        capsys.readouterr()
        assert run("verify", "-u", "u.json", "-c", "c.json") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "boolean" in err
        if case == "matrix_entries":
            assert run("decompose", "--method", "perm3", "-i", "u.json", "-o", "d.json") == 3

    def test_verify_refuses_a_space_above_the_dense_limit(self, in_tmp, capsys):
        # the circuit declares 128 x 128 basis states; verify refuses before
        # it reads the target (missing here) or allocates the dense product
        space = bipartite_space(128, 128)
        codecs.save_circuit_file("c.json", Circuit(space, (CnotGate(0, (0, 1), 1, (0, 1)),)))
        capsys.readouterr()
        assert run("verify", "-u", "missing.json", "-c", "c.json") == 3
        assert "dense limit" in capsys.readouterr().err

    def test_aform_wrong_da_exits_3(self, in_tmp):
        run("gen", "--kind", "haar", "--dims", "3", "2", "--seed", "1", "-o", "u.json")
        assert run("decompose", "--method", "aform", "-i", "u.json", "-o", "c.json") == 3

    @pytest.mark.parametrize(
        "method",
        ["sandwich", "aform", "bcu3", "perm3", "std", "std-cnot", "lemma7", "xor-protocol", "transfer"],
    )
    def test_two_party_method_on_three_parties_exits_3(self, in_tmp, capsys, method):
        # a permutation, so that the methods which need one reach the dims check
        run("gen", "--kind", "perm", "--dims", "2", "2", "2", "--seed", "1", "-o", "u.json")
        capsys.readouterr()
        assert run("decompose", "--method", method, "-i", "u.json", "-o", "c.json") == 3
        assert capsys.readouterr().err == f"error: {method} expects a bipartite dims list\n"

    def test_std_cnot_rejects_nonperm(self, in_tmp):
        run("gen", "--kind", "haar", "--dims", "2", "2", "--seed", "2", "-o", "u.json")
        assert run("decompose", "--method", "std-cnot", "-i", "u.json", "-o", "c.json") == 3

    @pytest.mark.parametrize("method", ["perm3", "std", "std-cnot", "multi"])
    def test_permutation_methods_build_one_complex_permutation(self, in_tmp, monkeypatch, method):
        # the one the file's kind check builds
        run("gen", "--kind", "perm", "--dims", "3", "4", "--seed", "2", "-o", "p.json")
        built = []
        from_matrix = ComplexPermutation.from_matrix.__func__
        monkeypatch.setattr(
            ComplexPermutation, "from_matrix",
            classmethod(lambda cls, m, dims: built.append(dims) or from_matrix(cls, m, dims)),
        )
        assert run("decompose", "--method", method, "-i", "p.json", "-o", "c.json") == 0
        assert built == [(3, 4)]


class TestUnitaryFileRule:
    """A unitary file passes on the library's contract: drift up to 1e-8."""

    @staticmethod
    def write(u):
        matrix = [[[z.real, z.imag] for z in row] for row in u]
        codecs.atomic_write("u.json", json.dumps({"kind": "unitary", "dims": [2, 3], "matrix": matrix}))

    def test_drift_within_the_contract_decomposes_and_verifies(self, in_tmp):
        self.write(haar_unitary(6, 3) * (1 + 3e-9))
        assert run("decompose", "--method", "sandwich", "-i", "u.json", "-o", "c.json") == 0
        assert run("verify", "-u", "u.json", "-c", "c.json") == 0

    def test_drift_past_the_contract_exits_3(self, in_tmp, capsys):
        self.write(haar_unitary(6, 3) * (1 + 3e-9) * (1 + 1e-7))
        assert run("decompose", "--method", "sandwich", "-i", "u.json", "-o", "c.json") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_drift_past_the_contract_names_the_file(self, in_tmp, capsys):
        self.write(haar_unitary(6, 3) * (1 + 1e-7))
        path = str(in_tmp / "u.json")
        assert run("decompose", "--method", "sandwich", "-i", path, "-o", "c.json") == 3
        (line,) = [x for x in capsys.readouterr().err.splitlines() if x.startswith("error: ")]
        assert path in line and "unitarity" in line


class TestPermutationFileRule:
    """A permutation file's entries are read as 0 or 1 to EXACT_TOL."""

    @staticmethod
    def write(path, m):
        matrix = [[[z.real, z.imag] for z in row] for row in m.tolist()]
        with open(path, "w") as fh:
            json.dump({"kind": "permutation", "dims": [3, 2], "matrix": matrix}, fh)

    @staticmethod
    def noisy(scale):
        m = random_permutation((3, 2), 4).matrix()
        signs = np.where(np.add.outer(np.arange(6), np.arange(6)) % 2, 1.0, -1.0)
        return m + scale * signs

    @pytest.mark.parametrize("method", ["perm3", "lemma7"])
    def test_noise_within_exact_tol_gives_the_clean_files_circuit(self, in_tmp, method):
        self.write("clean.json", self.noisy(0.0))
        self.write("noisy.json", self.noisy(5e-13))
        for name in ("clean", "noisy"):
            assert run("decompose", "--method", method, "-i", f"{name}.json", "-o", f"{name}_c.json") == 0
            assert run("verify", "-u", f"{name}.json", "-c", f"{name}_c.json") == 0
        assert open("noisy_c.json").read() == open("clean_c.json").read()

    @pytest.mark.parametrize("method", ["perm3", "lemma7"])
    def test_noise_past_exact_tol_exits_3(self, in_tmp, capsys, method):
        self.write("noisy.json", self.noisy(5e-12))
        assert run("decompose", "--method", method, "-i", "noisy.json", "-o", "c.json") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_entry_past_exact_tol_names_the_file(self, in_tmp, capsys):
        m = random_permutation((3, 2), 4).matrix()
        m[np.flatnonzero(m[:, 0])[0], 0] = 1 - 5e-12
        self.write("bad.json", m)
        path = str(in_tmp / "bad.json")
        assert run("decompose", "--method", "perm3", "-i", path, "-o", "c.json") == 3
        (line,) = [x for x in capsys.readouterr().err.splitlines() if x.startswith("error: ")]
        assert path in line and "of 0 or 1" in line

    def test_negative_zero_entries_save_to_their_own_bytes(self, in_tmp):
        m = random_permutation((3, 2), 4).matrix()
        m[m == 0] = complex(-0.0, -0.0)
        codecs.save_matrix_file("z.json", m, (3, 2), "permutation")
        mf = codecs.load_matrix_file("z.json")
        codecs.save_matrix_file("z_re.json", mf.matrix, mf.dims, mf.kind)
        assert "-0.0" in open("z.json").read()
        assert open("z_re.json").read() == open("z.json").read()

    def test_tol_defaults_to_recon_tol(self):
        parser = cli.build_parser()
        assert parser.parse_args(["decompose", "--method", "perm3", "-i", "a", "-o", "b"]).tol == RECON_TOL
        assert parser.parse_args(["verify", "-u", "a", "-c", "b"]).tol == RECON_TOL


class TestIntegerFields:
    """Integer fields are JSON integers, and sizes are at least 1."""

    @pytest.mark.parametrize("dims", [[2.5, 2], ["2", "2"], [-2, -2]], ids=["float", "string", "negative"])
    @pytest.mark.parametrize("method", ["perm3", "sandwich"])
    def test_matrix_dims_exit_3(self, in_tmp, capsys, dims, method):
        # the error names the file, which numpy's reshape text for negative dims did not
        run("gen", "--kind", "perm", "--dims", "2", "2", "--seed", "1", "-o", "u.json")
        obj = json.load(open("u.json"))
        obj["dims"] = dims
        open("u.json", "w").write(json.dumps(obj))
        capsys.readouterr()
        assert run("decompose", "--method", method, "-i", "u.json", "-o", "c.json") == 3
        assert capsys.readouterr().err.startswith("error: u.json: ")

    @pytest.mark.parametrize(
        "field, value",
        [("party_dim", 3.7), ("party_dim", "3"), ("ancilla_dim", 2.0), ("ancilla_init", "0")],
    )
    def test_circuit_space_fields_exit_3(self, in_tmp, capsys, field, value):
        run("gen", "--kind", "perm", "--dims", "3", "2", "--seed", "1", "-o", "u.json")
        assert run("decompose", "--method", "lemma7", "-i", "u.json", "-o", "c.json") == 0
        obj = json.load(open("c.json"))
        space = obj["space"]
        if field == "party_dim":
            space["parties"][0]["dim"] = value
        else:
            space["ancillas"][0][field.split("_")[1]] = value
        open("c.json", "w").write(json.dumps(obj))
        capsys.readouterr()
        assert run("verify", "-u", "u.json", "-c", "c.json") == 3
        assert capsys.readouterr().err.startswith("error: c.json: ")

    @pytest.mark.parametrize(
        "text",
        ['{"rows": 2.0, "cols": 2, "bits": "0110"}', '{"rows": -1, "cols": -1, "bits": "1"}'],
        ids=["float_rows", "negative_sizes"],
    )
    def test_binary_sizes_exit_3(self, in_tmp, capsys, text):
        open("t.json", "w").write(text)
        assert run("rank", "-i", "t.json", "--kind", "xor") == 3
        assert capsys.readouterr().err.startswith("error: t.json: ")


class TestOtherCommands:
    def test_schmidt_swap(self, in_tmp, capsys):
        run("gen", "--kind", "swap", "--dims", "3", "3", "-o", "u.json")
        assert run("schmidt", "-i", "u.json", "--cut", "1") == 0
        out = capsys.readouterr().out
        assert "schmidt_rank 9" in out

    def test_rank_command(self, in_tmp, capsys):
        from gatedecomp.protocols import BinaryMatrix

        codecs.save_binary_file("t.json", BinaryMatrix(3, 3, (1, 1, 0, 1, 0, 1, 0, 1, 1)))
        assert run("rank", "-i", "t.json", "--kind", "xor") == 0
        assert "xor 2" in capsys.readouterr().out
        assert run("rank", "-i", "t.json", "--kind", "binary") == 0
        assert "binary 3" in capsys.readouterr().out

    def test_usage_error_exit_1(self):
        assert run("decompose", "--method", "bogus", "-i", "x", "-o", "y") == 1
        assert run() == 1

    def test_missing_file_exit_3(self, in_tmp):
        assert run("schmidt", "-i", "missing.json") == 3

    def test_memory_error_exits_3(self, in_tmp, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_schmidt", out_of_memory)
        assert run("schmidt", "-i", "u.json") == 3
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "command, text",
        [
            ("rank", '{"rows": 2, "bits": "0101"}'),
            ("rank", '{"rows": 2, "cols": 2, "bits": 5}'),
            ("schmidt", '{"kind": "unitary", "dims": [null], "matrix": [[[1.0, 0.0]]]}'),
            ("schmidt", "7"),
            ("rank", '{"rows": true, "cols": 1, "bits": "1"}'),
            ("rank", '{"rows": 1, "cols": true, "bits": "1"}'),
        ],
        ids=[
            "binary_missing_cols",
            "binary_bits_not_a_string",
            "matrix_dims_null",
            "matrix_bare_integer",
            "binary_rows_boolean",
            "binary_cols_boolean",
        ],
    )
    def test_malformed_input_file_exits_3(self, in_tmp, capsys, command, text):
        open("f.json", "w").write(text)
        argv = [command, "-i", "f.json"] + (["--kind", "xor"] if command == "rank" else [])
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "f.json" in err
