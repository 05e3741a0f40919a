"""Instance generators: seeded unitaries, permutations, and named fixtures.

The pseudo-random stream is numpy's PCG64 (``np.random.default_rng``) keyed
by a 64-bit seed.  The dense-unitary generator orthonormalizes a complex
standard-Gaussian matrix by QR and fixes the R-diagonal phases, so the same
seed reproduces the same matrix byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .gateir import Circuit, ControlledGate, GenericGate, PartySpace
from .permdecomp import ComplexPermutation, decompose_perm3


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-like n x n unitary: QR of a complex Gaussian with phase fix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph[None, :]


def random_permutation(dims, seed: int) -> ComplexPermutation:
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    perm = rng.permutation(n)
    return ComplexPermutation(dims, tuple(int(x) for x in perm), (1.0,) * n)


def random_complex_permutation(dims, seed: int) -> ComplexPermutation:
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    perm = rng.permutation(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    return ComplexPermutation(dims, tuple(int(x) for x in perm), tuple(phases))


def swap_permutation(d: int) -> ComplexPermutation:
    """The two-qudit SWAP on a d x d system as an exact permutation."""
    targets = tuple(b * d + a for a in range(d) for b in range(d))
    return ComplexPermutation((d, d), targets, (1.0,) * (d * d))


def swap_unitary(d: int) -> np.ndarray:
    return swap_permutation(d).matrix()


def random_controlled(da: int, db: int, seed: int, side: str = "A") -> np.ndarray:
    """Random computational-basis controlled unitary on (da, db)."""
    rng = np.random.default_rng(seed)
    out = np.zeros((da * db, da * db), dtype=complex)
    if side == "A":
        for j in range(da):
            out[j * db : (j + 1) * db, j * db : (j + 1) * db] = haar_unitary(
                db, int(rng.integers(1 << 62))
            )
    else:
        for b in range(db):
            blk = haar_unitary(da, int(rng.integers(1 << 62)))
            out[b::db, b::db] = blk
    return out


def random_two_term(da: int, db: int, seed: int, rank1: int | None = None):
    """Seeded two-term controlled gate P1 (x) V1 + P2 (x) V2 with random projectors."""
    rng = np.random.default_rng(seed)
    if rank1 is None:
        rank1 = int(rng.integers(1, da))
    basis = haar_unitary(da, int(rng.integers(1 << 62)))
    p1 = basis[:, :rank1] @ basis[:, :rank1].conj().T
    p2 = np.eye(da) - p1
    v1 = haar_unitary(db, int(rng.integers(1 << 62)))
    v2 = haar_unitary(db, int(rng.integers(1 << 62)))
    gate = np.kron(p1, v1) + np.kron(p2, v2)
    return p1, v1, p2, v2, gate


EXAMPLE2_FLAGS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def example2_flags() -> np.ndarray:
    """The fixed 3 x 3 flag matrix of the shipped `example2` instance."""
    return np.array(EXAMPLE2_FLAGS, dtype=np.int64)


def swap_conjugated_unitary(d: int, seed: int):
    """A Schmidt-rank-d^2 bipartite unitary with a 6-controlled-gate circuit.

    Builds V (x) I on parties (C, D, B) where V is a seeded d x d-system
    unitary acting on C and B.  Across the (C,D) | B cut the Schmidt rank is
    that of V (generically d^2), yet the returned circuit implements it with
    six controlled gates: swap D with B (three controlled-permutation gates),
    apply V inside the left group, and swap back.

    Returns:
        (matrix, circuit, dims): the 3-party dims are (d, d, d) with the
        bipartite cut after the first two parties.
    """
    v = haar_unitary(d * d, seed)
    v4 = v.reshape(d, d, d, d)  # (c, b, c', b')
    eye = np.eye(d)
    u = np.einsum("cbCB,dD->cdbCDB", v4, eye).reshape(d**3, d**3)

    ps = decompose_perm3(swap_permutation(d))
    lifted = []
    for g in ps.circuit.gates:
        if g.controls == (0,):  # controlled from the D slot, acting on B
            lifted.append(ControlledGate((1,), (2,), g.palette, g.index))
        else:  # controlled from B, acting on the D slot
            lifted.append(ControlledGate((2,), (1,), g.palette, g.index))
    middle = GenericGate((0, 1), v, cut=2)
    space = PartySpace(parties=(("C", d), ("D", d), ("B", d)))
    circuit = Circuit(space, tuple(lifted) + (middle,) + tuple(lifted))
    return u, circuit, (d, d, d)
