"""Write the circuit files of a fixed reference set and hash them.

Every circuit is written as ``codecs.dumps_canonical(codecs.circuit_to_obj(c))``
to OUTDIR/<name>.json, and OUTDIR/HASHES lists one sha256 per file.  Run it
once with each checkout's ``src`` on PYTHONPATH and compare the two HASHES
files to check that a change keeps every circuit file byte-identical:

    PYTHONPATH=src python tools/reference_circuits.py OUTDIR

The first 95 circuits are the set of sandwich, block-controlled, 2 x dB,
multiparty, 4-party, backup-protocol and XOR-protocol outputs; the next 17
add the permutation, CNOT-type, standard-gate and swap-sandwich producers.
The last ones add the transfer and two-term CNOT protocols, and structured
inputs whose 2 x dB cores take the stacked two-SVD kernel (2p >= 32).  The
dense circuits depend on the BLAS build, so compare HASHES files made on one
machine.  The last line printed is the file count and a hash over all files.
"""

import hashlib
import os
import sys

import numpy as np

from gatedecomp import codecs
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
    emit_transfer_protocol,
    emit_two_term_cnot,
    emit_xor_protocol,
    pp_expansion,
)
from gatedecomp.sandwich import (
    decompose_2xd_aform,
    decompose_bcu3,
    decompose_sandwich,
)
from gatedecomp.stdgates import compile_perm_to_cnot_type, compile_to_standard

out = sys.argv[1]
os.makedirs(out, exist_ok=True)
files = []


def put(name, circuit):
    text = codecs.dumps_canonical(codecs.circuit_to_obj(circuit))
    with open(os.path.join(out, name + ".json"), "w") as fh:
        fh.write(text)
    files.append((name, hashlib.sha256(text.encode()).hexdigest()))


for da, db in [(2, 3), (3, 2), (5, 4), (7, 3), (12, 5), (16, 13), (24, 9), (1, 3), (3, 1)]:
    put(f"sw_haar_{da}x{db}", decompose_sandwich(haar_unitary(da * db, 100 + da * 31 + db), da, db).circuit)
for da, db in [(3, 3), (4, 2), (5, 3)]:
    s = 200 + da * 7 + db
    put(f"sw_ctrlA_{da}x{db}", decompose_sandwich(random_controlled(da, db, s, "A"), da, db).circuit)
    put(f"sw_ctrlB_{da}x{db}", decompose_sandwich(random_controlled(da, db, s, "B"), da, db).circuit)
    put(f"sw_id_{da}x{db}", decompose_sandwich(np.eye(da * db), da, db).circuit)
    prod = np.kron(haar_unitary(da, s), haar_unitary(db, s + 1))
    put(f"sw_prod_{da}x{db}", decompose_sandwich(prod, da, db).circuit)
for da, db in [(2, 3), (3, 4), (5, 2), (6, 5)]:
    put(f"bcu3_{da}x{db}", decompose_bcu3(haar_unitary(da * db, 300 + da * 11 + db), da, db).circuit)
for db in (1, 2, 3, 5):
    u = haar_unitary(2 * db, 400 + db)
    put(f"2xd_sw_{db}", decompose_sandwich(u, 2, db).circuit)
    put(f"2xd_af_{db}", decompose_2xd_aform(u, db))
u = random_controlled(2, 3, 450, "A")
put("2xd_sw_ctrlA", decompose_sandwich(u, 2, 3).circuit)
put("2xd_af_ctrlA", decompose_2xd_aform(u, 3))
for dims in [(2, 2, 2), (2, 2, 3, 3), (2,) * 6, (3,) * 4, (4,) * 4, (3, 2, 4)]:
    n = int(np.prod(dims))
    put(f"multi_{'_'.join(map(str, dims))}", decompose_multiparty(haar_unitary(n, 500 + n), dims).circuit)
put("multi_id_2_3_2", decompose_multiparty(np.eye(12), (2, 3, 2)).circuit)
for dims in [(2, 2, 3, 3), (3,) * 4, (4,) * 4, (2, 3, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3)]:
    n = int(np.prod(dims))
    put(f"p4_{'_'.join(map(str, dims))}", decompose_4party(haar_unitary(n, 600 + n), dims).circuit)
put("p4_id_2222", decompose_4party(np.eye(16), (2, 2, 2, 2)).circuit)
rng = np.random.default_rng(7)
shapes = [(a, b) for a in range(2, 9) for b in range(2, 9) if (a + b) % 3 == 0]
for i in range(16):
    da, db = shapes[int(rng.integers(len(shapes)))]
    cp = random_permutation((da, db), 700 + i)
    u = cp.matrix()
    res = emit_backup_protocol(u, pp_expansion(u, da, db), da, db)
    put(f"backup_{i}_{da}x{db}_base", res.base)
    put(f"backup_{i}_{da}x{db}_exp", res.expanded)
u = np.eye(12)
res = emit_backup_protocol(u, pp_expansion(u, 3, 4), 3, 4)
put("backup_id_base", res.base)
put("backup_id_exp", res.expanded)
flag_sets = [example2_flags(), np.array([[1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]])]
for s in range(4):
    r = np.random.default_rng(800 + s)
    flag_sets.append(r.integers(0, 2, size=(2 + s, 3 + s)))
for i, f in enumerate(flag_sets):
    res = emit_xor_protocol(f)
    put(f"xor_{i}_base", res.base)
    put(f"xor_{i}_exp", res.expanded)
# beyond the first 95: the other producers
for i, (da, db) in enumerate([(3, 4), (5, 3), (4, 4)]):
    cp = random_permutation((da, db), 900 + i)
    put(f"perm3_{i}", decompose_perm3(cp).circuit)
    put(f"cnot_{i}", compile_perm_to_cnot_type(cp).circuit)
put("mperm_232", decompose_multiparty_perm(random_permutation((2, 3, 2), 950)))
put("mperm_2222", decompose_multiparty_perm(random_permutation((2, 2, 2, 2), 951)))
for i, dims in enumerate([(3, 4), (2, 2), (5, 3)]):
    put(f"cperm3_{i}", decompose_perm3(random_complex_permutation(dims, 960 + i)).circuit)
put("cmperm_232", decompose_multiparty_perm(random_complex_permutation((2, 3, 2), 970)))
put("cmperm_2222", decompose_multiparty_perm(random_complex_permutation((2, 2, 2, 2), 971)))
put("std_cperm_34", compile_to_standard(random_complex_permutation((3, 4), 980).matrix(), 3, 4, "complexPerm").circuit)
put("std_gen_33", compile_to_standard(haar_unitary(9, 981), 3, 3).circuit)
put("std_gen_42", compile_to_standard(haar_unitary(8, 982), 4, 2).circuit)
put("sec6_3", swap_conjugated_unitary(3, 983)[1])
# the other protocols
for da, db in [(2, 5), (5, 2), (1, 3)]:
    put(f"transfer_{da}x{db}", emit_transfer_protocol(haar_unitary(da * db, 990 + da * 7 + db), da, db).circuit)
put("two_term_cnot", emit_two_term_cnot(*random_two_term(3, 4, 995)[:4]))
# structured inputs with cosine-sine steps of size 32 and up
put("sw_perm_8x8", decompose_sandwich(random_permutation((8, 8), 4).matrix(), 8, 8).circuit)
put("sw_ctrlB_16x4", decompose_sandwich(random_controlled(16, 4, 4, "B"), 16, 4).circuit)
put("p4_perm_8_2_4_2", decompose_4party(random_permutation((8, 2, 4, 2), 4).matrix(), (8, 2, 4, 2)).circuit)

total = hashlib.sha256("".join(h for _, h in files).encode()).hexdigest()
with open(os.path.join(out, "HASHES"), "w") as fh:
    for name, h in files:
        fh.write(f"{h}  {name}\n")
print(len(files), "files", total)
