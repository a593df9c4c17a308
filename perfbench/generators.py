"""Seeded instance generators for the benchmark workloads.

They use numpy only, so the instances depend on the seed and never on the
library under test.  One seed gives byte-identical instances.
"""

from __future__ import annotations

import numpy as np


def sparse_state(rng: np.random.Generator, n: int, nnz: int) -> dict[int, complex]:
    """Unit state on ``n`` qubits with ``nnz`` complex Gaussian amplitudes
    at distinct uniformly drawn basis indices."""
    pos = rng.choice(1 << n, size=nnz, replace=False)
    amps = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    amps /= np.linalg.norm(amps)
    return {int(p): complex(a) for p, a in zip(pos, amps)}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random ``2^n x 2^n`` unitary (QR of a complex Ginibre matrix,
    with the phases of R's diagonal divided out)."""
    dim = 1 << n
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_u2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sparse_isometry(
    rng: np.random.Generator, n: int, m: int, nnz_lo: int, nnz_hi: int
) -> np.ndarray:
    """Dense ``2^n x 2^m`` array of an exact sparse isometry with
    ``nnz_lo <= nnz <= nnz_hi`` nonzeros.

    Starts from a phased partial permutation and applies random 2-row
    unitary rotations until ``nnz_lo`` is reached.  Every rotation mixes
    an occupied row with another row, so the columns come to share rows.
    A draw that overshoots ``nnz_hi`` is discarded and drawn again.
    """
    rows_total, cols = 1 << n, 1 << m
    while True:
        a = np.zeros((rows_total, cols), dtype=complex)
        rows = rng.choice(rows_total, size=cols, replace=False)
        a[rows, np.arange(cols)] = np.exp(2j * np.pi * rng.uniform(size=cols))
        while np.count_nonzero(a) < nnz_lo:
            occupied = np.flatnonzero(np.any(a != 0, axis=1))
            r1 = int(rng.choice(occupied))
            r2 = int(rng.integers(rows_total - 1))
            r2 += r2 >= r1  # any row but r1
            a[[r1, r2], :] = _random_u2(rng) @ a[[r1, r2], :]
        if np.count_nonzero(a) <= nnz_hi:
            return a
