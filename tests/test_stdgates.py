import numpy as np
import pytest

from gatedecomp import (
    Circuit,
    ComplexPermutation,
    StandardGateBudget,
    apply_circuit,
    bipartite_space,
    circuit_permutation,
    compile_controlled_to_standard,
    compile_perm_to_cnot_type,
    compile_to_standard,
    controlled,
    operator_schmidt,
    validate_circuit,
    verify_decomposition,
)
from gatedecomp.matcore import PreconditionError
from gatedecomp.generators import (
    haar_unitary,
    random_complex_permutation,
    random_permutation,
    swap_permutation,
)


def reference_budget(formula, da, db):
    # independent re-implementation of the count formulas
    if formula == "general":
        return 2 * (da - 1) * (da - 1) * (db // 2) + (2 * da - 3) * (db - 1) * (da // 2)
    if formula == "controlledA":
        return (da - 1) * (db // 2)
    if formula == "complexPerm":
        return 2 * (da - 1) * (db // 2) + (db - 1) * (da // 2)
    if formula == "permCNOT":
        return 3 * (da - 1) * (db - 1)
    raise ValueError(formula)


class TestBudgets:
    @pytest.mark.parametrize("formula", ["general", "controlledA", "complexPerm", "permCNOT"])
    def test_matches_reference_for_all_small_dims(self, formula):
        for da in range(2, 9):
            for db in range(2, 9):
                got = StandardGateBudget.evaluate(formula, da, db).bound
                assert got == reference_budget(formula, da, db)

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            StandardGateBudget.evaluate("nope", 2, 2)


def two_level_invariant(circuit):
    for g in circuit.gates:
        if g.kind != "TwoLevelStandard":
            continue
        assert operator_schmidt(g.matrix, 2, 2).rank <= 2


class TestCompileControlled:
    def test_two_qubit_controlled_single_standard_gate(self):
        g = controlled((0,), (1,), {(0,): np.eye(2), (1,): haar_unitary(2, 4)})
        res = compile_controlled_to_standard(g, 2, 2)
        assert res.standard_count <= res.budget.bound == 1
        u = apply_circuit(Circuit(bipartite_space(2, 2), (g,)))
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    def test_identity_gate_zero_standard_gates(self):
        g = controlled((0,), (1,), {(j,): np.eye(3) for j in range(2)})
        res = compile_controlled_to_standard(g, 2, 3)
        assert res.standard_count == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_3x4(self, seed):
        g = controlled((0,), (1,), {(j,): haar_unitary(4, 30 * seed + j) for j in range(3)})
        res = compile_controlled_to_standard(g, 3, 4)
        assert res.standard_count <= res.budget.bound == 4
        u = apply_circuit(Circuit(bipartite_space(3, 4), (g,)))
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
        two_level_invariant(res.circuit)
        validate_circuit(res.circuit)

    def test_b_side_gate(self):
        g = controlled((1,), (0,), {(b,): haar_unitary(3, 50 + b) for b in range(4)})
        res = compile_controlled_to_standard(g, 3, 4)
        assert res.standard_count <= (4 - 1) * (3 // 2)
        u = apply_circuit(Circuit(bipartite_space(3, 4), (g,)))
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    def test_rejects_multi_controlled(self):
        g = controlled((0, 1), (2,), {(a, b): np.eye(2) for a in range(2) for b in range(2)})
        with pytest.raises(PreconditionError):
            compile_controlled_to_standard(g, 2, 2)


class TestCompileToStandard:
    def test_two_qubit_general_three_gates(self):
        u = haar_unitary(4, 71)
        res = compile_to_standard(u, 2, 2)
        assert res.standard_count <= 3
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    @pytest.mark.parametrize("da,db", [(2, 3), (3, 3), (4, 4), (5, 4)])
    def test_general_budgets(self, da, db):
        u = haar_unitary(da * db, da * 7 + db)
        res = compile_to_standard(u, da, db)
        assert res.standard_count <= res.budget.bound
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
        two_level_invariant(res.circuit)

    def test_seeded_3x3_count(self):
        u = haar_unitary(9, 5)
        res = compile_to_standard(u, 3, 3)
        assert res.budget.bound == 14
        assert res.standard_count <= 14

    @pytest.mark.parametrize("seed", range(3))
    def test_complex_perm_mode(self, seed):
        cp = random_complex_permutation((4, 4), seed)
        u = cp.matrix()
        res = compile_to_standard(u, 4, 4, "complexPerm")
        assert res.budget.bound == 18
        assert res.standard_count <= 18
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8

    def test_mode_mismatch(self):
        with pytest.raises(PreconditionError):
            compile_to_standard(haar_unitary(4, 1), 2, 2, "complexPerm")

    def test_complex_perm_mode_takes_the_permutation_itself(self):
        cp = random_complex_permutation((3, 4), 5)
        by_matrix = compile_to_standard(cp.matrix(), 3, 4, "complexPerm")
        by_value = compile_to_standard(cp, 3, 4, "complexPerm")
        assert by_value.standard_count == by_matrix.standard_count
        for g, h in zip(by_value.circuit.gates, by_matrix.circuit.gates, strict=True):
            assert type(g) is type(h) and np.array_equal(g.matrix, h.matrix)
        with pytest.raises(ValueError, match="dims"):
            compile_to_standard(cp, 4, 3, "complexPerm")


class TestCnotType:
    def test_swap2_three_gates(self):
        res = compile_perm_to_cnot_type(swap_permutation(2))
        assert res.cnot_gate_count <= 3
        t, p = circuit_permutation(res.circuit)
        assert tuple(int(x) for x in t) == swap_permutation(2).targets

    def test_identity_zero_gates(self):
        cp = ComplexPermutation((2, 2), (0, 1, 2, 3), (1.0,) * 4)
        res = compile_perm_to_cnot_type(cp)
        assert res.cnot_gate_count == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_4x4_exact(self, seed):
        cp = random_permutation((4, 4), seed)
        res = compile_perm_to_cnot_type(cp)
        assert res.cnot_gate_count <= res.budget.bound == 27
        assert res.cnot_gate_count + res.local_transpositions <= res.combined_bound
        t, p = circuit_permutation(res.circuit)
        assert tuple(int(x) for x in t) == cp.targets
        assert np.all(np.asarray(p) == 1.0)

    def test_nontrivial_parts_are_cnot(self):
        cp = random_permutation((3, 3), 7)
        res = compile_perm_to_cnot_type(cp)
        cnot_a = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        cnot_b = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        for g in res.circuit.gates:
            if g.kind != "TwoLevelStandard":
                continue
            assert np.array_equal(g.matrix, cnot_a) or np.array_equal(g.matrix, cnot_b)

    def test_phases_rejected(self):
        cp = random_complex_permutation((3, 3), 1)
        with pytest.raises(PreconditionError):
            compile_perm_to_cnot_type(cp)

    def test_combined_bound_formula(self):
        res = compile_perm_to_cnot_type(random_permutation((4, 5), 3))
        assert res.combined_bound == 3 * 4 * 5 - 4 - 5 - 1
