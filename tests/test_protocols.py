import numpy as np
import pytest

from gatedecomp import (
    apply_circuit,
    circuit_permutation,
    emit_backup_protocol,
    emit_transfer_protocol,
    emit_two_term_cnot,
    emit_xor_protocol,
    pair_swap_family_offdiagonal,
    pair_swap_family_unitary,
    analyze_pair_swap_family,
    pp_expansion,
    rank_toolkit,
    verify_decomposition,
)
from gatedecomp.matcore import PreconditionError, max_abs
from gatedecomp.schmidt import schmidt_rank
from gatedecomp.generators import (
    example2_flags,
    haar_unitary,
    random_permutation,
    random_two_term,
    swap_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def perm_circuit_table(circuit, n_parties_dim, anc_stride):
    """Party-space action of a permutation circuit with ancillas at init 0."""
    t, p = circuit_permutation(circuit)
    tpart, ppart = [], []
    for i in range(n_parties_dim):
        full_out = t[i * anc_stride]
        assert full_out % anc_stride == 0, "ancillas not restored"
        tpart.append(full_out // anc_stride)
        ppart.append(p[i * anc_stride])
    return tpart, ppart


def reference_pp_expansion(u, da, db):
    """(terms, Schmidt rank) of the expansion, one block slice at a time, as
    written before the grouping read the realigned matrix's rows."""

    def group(b, da, db):
        groups, order = {}, []
        for j in range(da):
            for k in range(da):
                blk = b[j * db : (j + 1) * db, k * db : (k + 1) * db]
                if not blk.any():
                    continue
                key = blk.tobytes()
                if key not in groups:
                    groups[key] = (blk, [])
                    order.append(key)
                groups[key][1].append((j, k))
        terms = []
        for key in order:
            blk, cells = groups[key]
            a = np.zeros((da, da), dtype=np.int64)
            for j, k in cells:
                a[j, k] = 1
            terms.append((a, blk.copy()))
        return terms

    b = np.asarray(u, dtype=np.int64)
    terms_b = group(b, da, db)
    swapped = b.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)
    terms_a = [(blk, a) for a, blk in group(swapped, db, da)]
    terms = terms_b if len(terms_b) <= len(terms_a) else terms_a
    return terms, schmidt_rank(b.astype(complex), da, db)


class TestPpExpansion:
    def test_product_permutation_single_term(self):
        pa = np.eye(3)[:, [1, 2, 0]]
        pb = np.eye(2)[:, [1, 0]]
        u = np.kron(pa, pb).astype(np.int64)
        exp = pp_expansion(u, 3, 2)
        assert exp.q == 1
        assert max_abs(exp.reconstruct() - u) == 0

    def test_swap2_four_terms(self):
        u = np.round(np.real(swap_unitary(2))).astype(np.int64)
        exp = pp_expansion(u, 2, 2)
        assert exp.q == 4
        assert exp.bound_components == (4, 4, 8, 8, 16)
        assert min(exp.bound_components) == 4

    def test_offdiagonal_part_rank_three(self):
        u_od = pair_swap_family_offdiagonal(example2_flags())
        exp = pp_expansion(u_od, 6, 3)
        assert exp.q == 3
        assert max_abs(exp.reconstruct() - u_od) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_components_hold(self, seed):
        rng = np.random.default_rng(seed)
        da = int(rng.integers(2, 9))
        db = int(rng.integers(2, 9))
        cp = random_permutation((da, db), 100 + seed)
        u = np.round(np.real(cp.matrix())).astype(np.int64)
        exp = pp_expansion(u, da, db)
        assert exp.q <= min(exp.bound_components)
        assert max_abs(exp.reconstruct() - u) == 0
        for a, b in exp.terms:
            assert (a.sum(axis=0) <= 1).all() and (a.sum(axis=1) <= 1).all()
            assert (b.sum(axis=0) <= 1).all() and (b.sum(axis=1) <= 1).all()

    def test_rejects_non_permutation(self):
        with pytest.raises(PreconditionError):
            pp_expansion(np.ones((4, 4)), 2, 2)

    @pytest.mark.parametrize(
        "call",
        [lambda u: pp_expansion(u, 2, 2), lambda u: emit_backup_protocol(u, None, 2, 2)],
        ids=["pp_expansion", "emit_backup_protocol"],
    )
    def test_one_zero_one_rule_and_shape_check(self, call):
        with pytest.raises(ValueError, match=r"matrix is \(6, 6\), expected \(4, 4\)"):
            call(np.eye(6))
        for off in (1e-9, 1e-9j, np.nan):
            with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
                call(np.eye(4) + off)

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (1, 4)])
    def test_zero_matrix_has_no_terms_and_reconstructs_to_zero(self, da, db):
        n = da * db
        exp = pp_expansion(np.zeros((n, n)), da, db)
        assert exp.q == 0 and exp.terms == () and exp.schmidt_rank == 0
        rec = exp.reconstruct()
        assert rec.shape == (n, n) and rec.dtype == np.int64 and not rec.any()
        with pytest.raises(PreconditionError, match="full permutation"):
            emit_backup_protocol(np.zeros((n, n)), exp, da, db)

    @pytest.mark.parametrize("da,db", [(2, 3), (4, 4), (5, 2), (7, 6)])
    def test_partial_permutations_against_the_per_block_grouping(self, da, db):
        rng = np.random.default_rng(da * 10 + db)
        for seed in range(4):
            u = np.round(np.real(random_permutation((da, db), seed).matrix())).astype(np.int64)
            u[:, rng.random(da * db) < 0.3] = 0  # drop some columns: a partial permutation
            exp = pp_expansion(u, da, db)
            want = reference_pp_expansion(u, da, db)
            assert exp.q == len(want[0]) and exp.schmidt_rank == want[1]
            for (a, b), (wa, wb) in zip(exp.terms, want[0]):
                assert a.dtype == wa.dtype and np.array_equal(a, wa)
                assert b.dtype == wb.dtype and np.array_equal(b, wb)
            rec = exp.reconstruct()
            assert rec.dtype == np.int64 and np.array_equal(rec, u)

    def test_rank_toolkit_refuses_non_binary_with_a_precondition_error(self):
        with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
            rank_toolkit(np.array([[2, 0], [0, 1]]), "xor")


class TestTwoTermCnot:
    def test_cnot_instance_exact(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        target = np.kron(p0, np.eye(2)) + np.kron(p1, X)
        c = emit_two_term_cnot(p0, np.eye(2), p1, X)
        rep = verify_decomposition(target, c, tol=1e-12)
        assert rep.passed and rep.max_error == 0.0
        assert rep.counts()["CNOT"] == 2
        assert rep.nonlocal_cnot == 2

    @pytest.mark.parametrize("da,db,seed", [(2, 2, 0), (3, 3, 1), (4, 3, 2), (4, 4, 3)])
    def test_seeded_two_term(self, da, db, seed):
        p1, v1, p2, v2, gate = random_two_term(da, db, seed)
        c = emit_two_term_cnot(p1, v1, p2, v2)
        rep = verify_decomposition(gate, c, tol=1e-10)
        assert rep.passed
        assert rep.ancilla_restored
        assert rep.counts()["CNOT"] == 2

    def test_rank1_projector_with_3x3_branch(self):
        p1, v1, p2, v2, gate = random_two_term(3, 3, 9, rank1=2)
        c = emit_two_term_cnot(p1, v1, p2, v2)
        rep = verify_decomposition(gate, c, tol=1e-10)
        assert rep.passed

    def test_zero_projector_rejected(self):
        with pytest.raises(PreconditionError):
            emit_two_term_cnot(np.eye(2), np.eye(2), np.zeros((2, 2)), X)

    def test_equal_branches_still_verify(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        v = haar_unitary(2, 5)
        target = np.kron(p0 + p1, v)
        c = emit_two_term_cnot(p0, v, p1, v)
        assert verify_decomposition(target, c, tol=1e-10).passed

    def test_non_projector_rejected(self):
        with pytest.raises(PreconditionError):
            emit_two_term_cnot(0.5 * np.eye(2), np.eye(2), 0.5 * np.eye(2), X)


class TestBackupProtocol:
    @pytest.mark.parametrize("da,db,seed", [(4, 4, 0), (3, 5, 1), (6, 3, 2), (8, 8, 3)])
    def test_exact_and_within_bounds(self, da, db, seed):
        cp = random_permutation((da, db), seed)
        u = np.round(np.real(cp.matrix())).astype(np.int64)
        exp = pp_expansion(u, da, db)
        res = emit_backup_protocol(u, exp, da, db)
        assert res.two_term_count <= 3 * exp.q
        assert res.cnot_count <= 6 * exp.q
        # base circuit exact on the flag-initialized subspace
        t, p = perm_circuit_table(res.base, da * db, 2)
        assert t == list(cp.targets)
        assert all(x == 1.0 for x in p)
        # expanded circuit exact with all three ancillas restored
        t, p = perm_circuit_table(res.expanded, da * db, 8)
        assert t == list(cp.targets)
        assert res.expanded.metrics.nonlocal_cnot == res.cnot_count
        assert res.base.metrics.ebit_estimate == res.two_term_count

    def test_product_permutation_few_gates(self):
        pa = np.eye(3)[:, [2, 0, 1]]
        pb = np.eye(3)[:, [1, 2, 0]]
        u = np.kron(pa, pb).astype(np.int64)
        exp = pp_expansion(u, 3, 3)
        assert exp.q == 1
        res = emit_backup_protocol(u, exp, 3, 3)
        assert res.two_term_count <= 3
        t, p = perm_circuit_table(res.base, 9, 2)
        assert max_abs(np.array(t) - np.argmax(u, axis=0)) == 0

    def test_in_place_instance_reduced_count(self):
        # all rectangles in place: one two-term gate per nontrivial flag term
        u = pair_swap_family_unitary(example2_flags())
        exp = pp_expansion(u, 6, 3)
        res = emit_backup_protocol(u, exp, 6, 3)
        assert res.two_term_count == 3
        assert res.cnot_count == 6
        t, p = perm_circuit_table(res.base, 18, 2)
        assert t == [int(np.argmax(u[:, i])) for i in range(18)]

    def test_identity_input(self):
        u = np.eye(6, dtype=np.int64)
        exp = pp_expansion(u, 2, 3)
        res = emit_backup_protocol(u, exp, 2, 3)
        t, p = perm_circuit_table(res.base, 6, 2)
        assert t == list(range(6))

    @pytest.mark.parametrize("da,db,seed", [(5, 4, 13), (6, 6, 2), (9, 4, 7)])
    def test_gates_of_one_palette_share_their_apply_gate(self, da, db, seed):
        u = np.round(np.real(random_permutation((da, db), seed).matrix())).astype(np.int64)
        res = emit_backup_protocol(u, pp_expansion(u, da, db), da, db)
        applies = res.expanded.gates[2::5]  # flag, copy, apply, copy, flag per two-term gate
        assert len(applies) == res.two_term_count == len(res.base.gates)
        for g, apply in zip(res.base.gates, applies):
            assert apply.palette is g.palette
            assert apply.index.tolist() == [0, 1]
        # a term's move and restore share one palette when both index it alike
        assert len({id(a) for a in applies}) < len(applies)

    def test_mismatched_expansion_rejected(self):
        u = np.round(np.real(swap_unitary(2))).astype(np.int64)
        other = pp_expansion(np.eye(4, dtype=np.int64), 2, 2)
        with pytest.raises(PreconditionError):
            emit_backup_protocol(u, other, 2, 2)


class TestTransferProtocol:
    @pytest.mark.parametrize(
        "da,db,m", [(2, 2, 1), (4, 4, 2), (3, 5, 2), (5, 3, 2), (8, 2, 1)]
    )
    def test_cnot_count_and_subspace(self, da, db, m):
        u = haar_unitary(da * db, da * 13 + db)
        res = emit_transfer_protocol(u, da, db)
        assert res.qubits == m
        rep = verify_decomposition(res.embedded, res.circuit)
        assert rep.passed and rep.ancilla_restored
        assert rep.counts()["CNOT"] == 4 * m
        assert rep.nonlocal_cnot == 4 * m
        assert rep.counts().get("GenericBipartite", 0) + rep.counts().get("Local", 0) == 1

    def test_embedding_contains_original(self):
        u = haar_unitary(15, 4)
        res = emit_transfer_protocol(u, 3, 5)
        # embedded unitary acts as u on the original subspace
        rows = np.arange(15)
        assert max_abs(res.embedded[np.ix_(rows, rows)] - u) == 0


class TestXorProtocol:
    def test_fixed_instance_emits_the_explicit_factors(self):
        # the two emitted gates are exactly the known factor matrices
        from gatedecomp import Circuit, apply_circuit

        res = emit_xor_protocol(example2_flags())
        eye2 = np.eye(2)
        v_expected = np.kron(
            np.block(
                [
                    [X, np.zeros((2, 4))],
                    [np.zeros((2, 2)), X, np.zeros((2, 2))],
                    [np.zeros((2, 4)), eye2],
                ]
            ),
            np.diag([1.0, 1.0, 0.0]),
        ) + np.kron(np.eye(6), np.diag([0.0, 0.0, 1.0]))
        w_expected = np.kron(
            np.block(
                [
                    [eye2, np.zeros((2, 4))],
                    [np.zeros((2, 2)), X, np.zeros((2, 2))],
                    [np.zeros((2, 4)), X],
                ]
            ),
            np.diag([0.0, 1.0, 1.0]),
        ) + np.kron(np.eye(6), np.diag([1.0, 0.0, 0.0]))
        got_v = apply_circuit(Circuit(res.base.space, (res.base.gates[0],)))
        got_w = apply_circuit(Circuit(res.base.space, (res.base.gates[1],)))
        assert np.array_equal(got_v, v_expected.astype(complex))
        assert np.array_equal(got_w, w_expected.astype(complex))

    def test_fixed_instance_two_gates_four_cnots(self):
        res = emit_xor_protocol(example2_flags())
        assert res.xor_rank == 2
        assert res.cnot_count == 4
        u = pair_swap_family_unitary(example2_flags())
        t, p = circuit_permutation(res.base)
        assert [int(x) for x in t] == [int(np.argmax(u[:, i])) for i in range(18)]
        texp, _ = circuit_permutation(res.expanded)
        assert [int(texp[4 * i]) // 4 for i in range(18)] == [
            int(np.argmax(u[:, i])) for i in range(18)
        ]

    def test_single_rectangle(self):
        flags = np.array([[1, 1], [0, 0]])
        res = emit_xor_protocol(flags)
        assert res.xor_rank == 1
        assert res.cnot_count == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_4x4_exact(self, seed):
        rng = np.random.default_rng(seed)
        flags = rng.integers(0, 2, size=(4, 4))
        if not flags.any():
            flags[0, 0] = 1
        res = emit_xor_protocol(flags)
        u = pair_swap_family_unitary(flags)
        t, p = circuit_permutation(res.base)
        assert [int(x) for x in t] == [int(np.argmax(u[:, i])) for i in range(32)]
        texp, pexp = circuit_permutation(res.expanded)
        for i in range(32):
            assert texp[4 * i] == 4 * int(np.argmax(u[:, i]))
            assert pexp[4 * i] == 1.0
        assert res.cnot_count == 2 * res.xor_rank
        assert res.expanded.metrics.nonlocal_cnot == res.cnot_count


class TestPairSwapFamily:
    def test_fixed_instance_report(self):
        rep = analyze_pair_swap_family(example2_flags())
        assert rep.sch_od == 3
        assert rep.ppr_upper == 3
        assert rep.rank_t == 3
        assert rep.xor_t.value == 2
        assert rep.binary_t.value == 3
        assert "Sch(U)" in rep.table()

    def test_all_zero_flags(self):
        rep = analyze_pair_swap_family(np.zeros((2, 3), dtype=int))
        assert rep.sch_od == 0
        assert rep.ppr_upper == 0
        assert max_abs(rep.unitary - np.eye(12)) == 0

    def test_single_row_all_ones(self):
        rep = analyze_pair_swap_family(np.ones((1, 3), dtype=int))
        assert rep.sch_u == 1
        assert rep.sch_od == 1
        assert rep.ppr_upper == 1
        assert rep.rank_t == 1

    def test_binary_rank_below_expansion_bound(self):
        # three rectangles partition T, but the distinct-row grouping needs four
        flags = np.array([[1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]])
        rep = analyze_pair_swap_family(flags)
        assert rep.binary_t.value == 3
        assert rep.ppr_upper == 4
        acc = np.zeros_like(flags)
        for rows, cols in rep.binary_t.certificate:
            acc[np.ix_(list(rows), list(cols))] += 1
        assert np.array_equal(acc, flags)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_relations(self, seed):
        rng = np.random.default_rng(seed)
        flags = rng.integers(0, 2, size=(3, 4))
        rep = analyze_pair_swap_family(flags)
        assert rep.rank_t >= rep.sch_od
        assert abs(rep.sch_od - rep.sch_u) <= 1

    def test_unitary_is_permutation(self):
        u = pair_swap_family_unitary(example2_flags())
        assert (u.sum(axis=0) == 1).all() and (u.sum(axis=1) == 1).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_unitary_matches_the_entrywise_definition(self, seed):
        # U = sum_i [pair_i projector (x) (I - C_i) + pair_i swap (x) C_i], written entry by entry
        rng = np.random.default_rng(seed)
        flags = rng.integers(0, 2, size=tuple(rng.integers(1, 6, size=2)))
        m, db = flags.shape
        expected = np.zeros((2 * m * db, 2 * m * db), dtype=np.int64)
        for i in range(m):
            for b in range(db):
                r0, r1 = 2 * i * db + b, (2 * i + 1) * db + b
                if flags[i, b]:
                    expected[r0, r1] = expected[r1, r0] = 1
                else:
                    expected[r0, r0] = expected[r1, r1] = 1
        u = pair_swap_family_unitary(flags)
        assert u.dtype == np.int64 and np.array_equal(u, expected)
