"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line; run with ``pytest -s tests/test_acceptance.py``
to see the checklist.
"""

import time

import numpy as np
import pytest

from gatedecomp import (
    Circuit,
    analyze_pair_swap_family,
    apply_circuit,
    bipartite_space,
    circuit_permutation,
    classify_gate,
    compile_controlled_to_standard,
    compile_perm_to_cnot_type,
    compile_to_standard,
    controlled,
    decompose_2xd_aform,
    decompose_4party,
    decompose_bcu3,
    decompose_multiparty,
    decompose_multiparty_perm,
    decompose_perm3,
    decompose_sandwich,
    emit_backup_protocol,
    emit_transfer_protocol,
    emit_two_term_cnot,
    emit_xor_protocol,
    operator_schmidt,
    pair_swap_family_unitary,
    pp_expansion,
    rank_toolkit,
    sandwich_bound,
    verify_decomposition,
)
from gatedecomp.generators import (
    example2_flags,
    haar_unitary,
    random_controlled,
    random_permutation,
    random_two_term,
    swap_conjugated_unitary,
    swap_permutation,
    swap_unitary,
)
from gatedecomp.matcore import max_abs

from test_rank import binary_partition_oracle, xor_oracle


def _ok(name, detail=""):
    print(f"ACCEPT {name}: PASS {detail}")


def _alternation_ok(res):
    last = 0
    for pos, g in zip(res.positions, res.circuit.gates):
        if not pos > last:
            return False
        last = pos
        want = (0,) if pos % 2 == 1 else (1,)
        if g.kind == "ControlledComputational" and g.controls != want:
            return False
    return True


def test_criterion_01_sandwich_bound_grid():
    """100 seeded unitaries per (dA, dB) in {2..6}^2 within the count bound."""
    expected_bound = {2: 3, 3: 7, 4: 7, 5: 15, 6: 15}
    t0 = time.perf_counter()
    worst = 0.0
    for da in range(2, 7):
        for db in range(2, 7):
            for seed in range(100):
                u = haar_unitary(da * db, 10_000 * da + 100 * db + seed)
                res = decompose_sandwich(u, da, db)
                assert res.bound == expected_bound[da] == sandwich_bound(da)
                assert len(res.circuit.gates) <= res.bound
                assert _alternation_ok(res)
                rep = verify_decomposition(u, res.circuit, classify=False)
                assert rep.max_error <= 1e-8
                worst = max(worst, rep.max_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    _ok("01 sandwich bound", f"2500 instances, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_two_by_d_forms():
    """3-sandwich and 3-A forms for dB in {2..8} with gate classification."""
    for db in range(2, 9):
        u = haar_unitary(2 * db, 31 * db)
        res = decompose_sandwich(u, 2, db)
        assert res.length == 3
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
        for pos, g in zip(res.positions, res.circuit.gates):
            cl = classify_gate(res.circuit.space, g)
            if pos == 2:
                assert cl.controlled_from_b
            else:
                assert cl.controlled_from_a

        aform = decompose_2xd_aform(u, db)
        rep = verify_decomposition(u, aform, classify=False)
        assert rep.max_error <= 1e-8
        cc = [g for g in aform.gates if g.kind == "ControlledComputational"]
        assert len(cc) == 3
        assert all(classify_gate(aform.space, g).controlled_from_a for g in cc)
    _ok("02 2xd lemma", "dB in 2..8, both forms classified")


def test_criterion_03_bcu_factorization():
    """Three block-controlled factors with machine-checked patterns."""
    for (da, db, seed) in [(2, 2, 4), (2, 3, 5), (3, 2, 6), (4, 3, 7), (4, 4, 8)]:
        u = haar_unitary(da * db, seed)
        res = decompose_bcu3(u, da, db)
        assert max(res.block_errors) <= 1e-8
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
    sw = swap_unitary(2)
    res = decompose_bcu3(sw, 2, 2)
    rep = verify_decomposition(sw, res.circuit, classify=False)
    assert rep.max_error <= 1e-12
    _ok("03 BCU factorization", "block patterns checked; SWAP exact to 1e-12")


def test_criterion_04_permutation_three_gates():
    """500 seeded permutations up to 8x8, exact integers, 3 gates."""
    rng = np.random.default_rng(2024)
    for trial in range(500):
        da = int(rng.integers(2, 9))
        db = int(rng.integers(2, 9))
        cp = random_permutation((da, db), 40_000 + trial)
        ps = decompose_perm3(cp)
        assert len(ps.circuit.gates) == 3
        t, p = circuit_permutation(ps.circuit)
        assert tuple(int(x) for x in t) == cp.targets
        assert all(x == 1.0 for x in p)
        for g in ps.circuit.gates:
            for _, m in g.branches:
                b = np.real(m).astype(np.int64)
                assert max_abs(m - b) == 0
                assert (b.sum(axis=0) == 1).all() and (b.sum(axis=1) == 1).all()
    for d in (2, 3):
        ps = decompose_perm3(swap_permutation(d))
        assert len(ps.circuit.gates) == 3
        t, _ = circuit_permutation(ps.circuit)
        assert tuple(int(x) for x in t) == swap_permutation(d).targets
    _ok("04 permutation 3-sandwich", "500 instances exact; SWAP_2/3 in 3 gates")


def test_criterion_05_multipartite():
    """Gate bounds for 3-qubit, 4-party-qubit, and 3-party permutations."""
    for seed in range(5):
        u = haar_unitary(8, 70_000 + seed)
        res = decompose_multiparty(u, (2, 2, 2))
        assert res.full_count <= res.bound == 7
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
    for seed in range(2):
        u = haar_unitary(16, 71_000 + seed)
        res = decompose_4party(u, (2, 2, 2, 2))
        assert res.full_count <= res.bound == 33
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
    for seed in range(5):
        cp = random_permutation((2, 3, 2), 72_000 + seed)
        c = decompose_multiparty_perm(cp)
        assert len(c.gates) <= 5
        t, p = circuit_permutation(c)
        assert tuple(int(x) for x in t) == cp.targets and all(x == 1.0 for x in p)
    _ok("05 multipartite", "3-qubit <= 7, 4-party <= 33, 3-party perms <= 5 exact")


def test_criterion_06_standard_gate_counts():
    """Counts within the closed-form budgets for dims 2..5."""
    for da in range(2, 6):
        for db in range(2, 6):
            u = haar_unitary(da * db, 80_000 + 10 * da + db)
            res = compile_to_standard(u, da, db)
            assert res.standard_count <= res.budget.bound
            assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
            cp = random_permutation((da, db), 81_000 + 10 * da + db)
            resp = compile_to_standard(cp.matrix(), da, db, "complexPerm")
            assert resp.standard_count <= resp.budget.bound
            assert (
                verify_decomposition(cp.matrix(), resp.circuit, classify=False).max_error
                <= 1e-8
            )
            gate = controlled(
                (0,),
                (1,),
                {(j,): haar_unitary(db, 84_000 + 100 * da + 10 * db + j) for j in range(da)},
            )
            resc = compile_controlled_to_standard(gate, da, db)
            assert resc.standard_count <= resc.budget.bound == (da - 1) * (db // 2)
            target = apply_circuit(Circuit(bipartite_space(da, db), (gate,)))
            assert (
                verify_decomposition(target, resc.circuit, classify=False).max_error
                <= 1e-8
            )
    u = haar_unitary(4, 82_000)
    assert compile_to_standard(u, 2, 2).standard_count <= 3
    for seed in range(5):
        cp = random_permutation((4, 4), 83_000 + seed)
        res = compile_perm_to_cnot_type(cp)
        assert res.cnot_gate_count <= 3 * 3 * 3
        t, p = circuit_permutation(res.circuit)
        assert tuple(int(x) for x in t) == cp.targets and all(x == 1.0 for x in p)
    _ok(
        "06 standard-gate counts",
        "all three budget formulas hold for dims 2..5; 2x2 <= 3; perm-CNOT exact",
    )


def test_criterion_07_two_term_circuit():
    """Seeded two-term controlled gates need exactly 2 CNOTs with clean ancillas."""
    for seed in range(10):
        rng = np.random.default_rng(90_000 + seed)
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        p1, v1, p2, v2, gate = random_two_term(da, db, 91_000 + seed)
        c = emit_two_term_cnot(p1, v1, p2, v2)
        rep = verify_decomposition(gate, c, tol=1e-10)
        assert rep.passed and rep.ancilla_restored
        assert rep.counts()["CNOT"] == 2
    _ok("07 two-term circuit", "10 instances, 2 CNOTs each, error <= 1e-10")


def test_criterion_08_backup_protocol():
    """200 seeded permutations (dims <= 16): bounds on q, CNOTs, ebits; exact."""
    rng = np.random.default_rng(515)
    for trial in range(200):
        da = int(rng.integers(2, 17))
        db = int(rng.integers(2, 17))
        cp = random_permutation((da, db), 100_000 + trial)
        u = np.round(np.real(cp.matrix())).astype(np.int64)
        exp = pp_expansion(u, da, db)
        assert exp.q <= min(exp.bound_components)
        res = emit_backup_protocol(u, exp, da, db)
        assert res.cnot_count <= 6 * exp.q
        assert res.base.metrics.ebit_estimate <= 3 * exp.q
        t, p = circuit_permutation(res.base)
        for i in range(da * db):
            assert t[2 * i] == 2 * cp.targets[i] and p[2 * i] == 1.0
    _ok("08 backup protocol", "200 instances exact; CNOT <= 6q, ebits <= 3q")


def test_criterion_09_fixed_instance_end_to_end():
    """The shipped 18x18 instance: product form, both protocols, rank report."""
    flags = example2_flags()
    u = pair_swap_family_unitary(flags)

    # U equals the product of its two column-flag gates
    xor = emit_xor_protocol(flags)
    assert len(xor.base.gates) == 2
    v_mat = apply_circuit(
        type(xor.base)(xor.base.space, (xor.base.gates[0],))
    )
    w_mat = apply_circuit(type(xor.base)(xor.base.space, (xor.base.gates[1],)))
    assert max_abs(v_mat @ w_mat - u) == 0
    assert xor.cnot_count == 4
    assert xor.expanded.metrics.nonlocal_cnot == 4

    exp = pp_expansion(u, 6, 3)
    res = emit_backup_protocol(u, exp, 6, 3)
    assert res.cnot_count == 6
    t, p = circuit_permutation(res.base)
    for i in range(18):
        assert t[2 * i] == 2 * int(np.argmax(u[:, i]))

    assert rank_toolkit(flags, "rank").value == 3
    assert rank_toolkit(flags, "xor").value == 2
    binary = rank_toolkit(flags, "binary")
    assert binary.value == 3
    assert binary_partition_oracle(np.asarray(flags)) == 3
    _ok("09 fixed 18x18 instance", "U = V W exact; 4 vs 6 CNOTs; ranks 3/2/3")


def test_criterion_10_schmidt_rank_invariants():
    """Saturated ranks for swap products and the 6-gate construction."""
    for d in (2, 3):
        for seed in range(50):
            side = "A" if seed % 2 == 0 else "B"
            c = random_controlled(d, d, 110_000 + seed, side)
            assert operator_schmidt(swap_unitary(d) @ c, d, d).rank == d * d
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert operator_schmidt(cnot, 2, 2).rank == 2
    d = 3
    mat, circuit, dims = swap_conjugated_unitary(d, 112_000)
    assert operator_schmidt(mat, d * d, d).rank == d * d
    controlled_count = sum(
        1 for g in circuit.gates if g.kind == "ControlledComputational"
    )
    assert controlled_count <= 6
    rep = verify_decomposition(mat, circuit, classify=False)
    assert rep.max_error <= 1e-8
    _ok("10 Schmidt invariants", f"swap products saturate; d^2={d*d} with 6 gates")


def test_criterion_11_transfer_protocol():
    """Exactly 8 CNOTs at dims (4,4) and (3,5), ancillas restored."""
    for (da, db) in [(4, 4), (3, 5)]:
        u = haar_unitary(da * db, 120_000 + da + db)
        res = emit_transfer_protocol(u, da, db)
        rep = verify_decomposition(res.embedded, res.circuit)
        assert rep.counts()["CNOT"] == 8
        assert rep.passed and rep.ancilla_restored
        assert rep.max_error <= 1e-8
    _ok("11 transfer protocol", "(4,4) and (3,5) at 8 CNOTs, subspace verified")


def test_criterion_12_rank_order_invariants():
    """Rank chains on 1000 random binaries; XOR oracle over all 4x4 matrices."""
    rng = np.random.default_rng(900)
    for trial in range(1000):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        arr = rng.integers(0, 2, size=(r, c))
        rank = rank_toolkit(arr, "rank").value
        xor = rank_toolkit(arr, "xor").value
        nn = rank_toolkit(arr, "nonneg", node_budget=5000)
        binary = rank_toolkit(arr, "binary", node_budget=5000)
        assert rank <= nn.lower <= nn.upper <= binary.upper
        assert xor <= binary.upper

    # exhaustive XOR check over every binary matrix up to 4x4 (embedded)
    from test_rank import xor_rank_table_4x4
    from gatedecomp.protocols import _xor_factor

    table = xor_rank_table_4x4()
    for mask in range(1 << 16):
        arr = np.array([(mask >> k) & 1 for k in range(16)], dtype=np.int64)
        got = len(_xor_factor(arr.reshape(4, 4)))
        assert got == int(table[mask]), f"mask {mask}"
    _ok("12 rank-order invariants", "1000 chains hold; XOR exact on all 2^16 4x4")
