"""Dense and column-stored sparse complex matrices.

Index conventions used throughout the package:

* Basis states on ``n`` qubits are the integers ``0 .. 2**n - 1``, read as
  bitstrings most-significant-bit first.  Qubit ``0`` carries the most
  significant bit, so qubit ``q`` of index ``i`` is ``(i >> (n - 1 - q)) & 1``.
* A permutation is an integer array ``perm`` where ``perm[i]`` is the image
  of ``i``.  Applying row/column permutations ``(rho, sigma)`` to a matrix
  moves the entry at ``(i, j)`` to ``(rho[i], sigma[j])``.
* Amplitudes with magnitude at most ``EPS0`` count as exact zeros and are
  never stored in sparse containers.

Sparse state vectors are plain ``dict[int, complex]`` maps from basis index
to amplitude; sparse matrices use :class:`SparseIsometry`, which stores one
such map per column and assembles a row from the columns when one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS0 = 1e-12
MAX_QUBITS = 62  # basis indices are int64


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def qubit_count(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    if not is_power_of_two(dim):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def check_permutation(perm, size: int) -> np.ndarray:
    p = np.asarray(perm)
    if p.size and not np.issubdtype(p.dtype, np.integer):
        raise ValueError(f"permutation entries must be integers, got {p.dtype} values")
    p = p.astype(np.int64)
    if p.shape != (size,) or not np.array_equal(np.sort(p), np.arange(size)):
        raise ValueError(f"not a bijection on {size} indices")
    return p


def int_field(x, name: str) -> int:
    """An integer field of an input file; booleans, floats and strings are
    refused."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} {x!r} is not an integer")
    return int(x)


def typed_field(x, kind: type, name: str):
    """A field of an input file that must hold a JSON ``kind``: ``bool``,
    ``str``, or ``float``, which takes any number but a boolean."""
    kinds = (int, float, np.integer, np.floating) if kind is float else kind
    if isinstance(x, bool) != (kind is bool) or not isinstance(x, kinds):
        what = "number" if kind is float else kind.__name__
        raise ValueError(f"{name} {x!r} is not a JSON {what}")
    return kind(x)


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


# ---------------------------------------------------------------------------
# sparse state helpers (dict[int, complex])


def amplitude_norm(amps: np.ndarray) -> float:
    """The 2-norm of a complex array, ``sqrt(fsum(|a|^2))``: exactly
    rounded over the squares, so it does not depend on their order.
    ``np.hypot`` and ``np.float_power`` round as Python's ``abs`` and
    ``** 2`` do (numpy's complex ``abs`` and ``x * x`` do not)."""
    return math.sqrt(math.fsum(np.float_power(np.hypot(amps.real, amps.imag), 2).tolist()))


def prune_state(v: dict[int, complex]) -> dict[int, complex]:
    """``v`` without its zero amplitudes; raises ValueError on a NaN one,
    which ``|a| > EPS0`` would drop as if it were zero."""
    out = {k: complex(a) for k, a in v.items() if abs(a) > EPS0}
    if len(out) < len(v) and any(math.isnan(abs(a)) for a in v.values()):
        raise ValueError("amplitude is NaN")
    return out


def state_to_vector(v: dict[int, complex], n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=complex)
    for k, a in v.items():
        out[k] = a
    return out


# ---------------------------------------------------------------------------
# sparse isometry storage


class SparseIsometry:
    """A ``2**n x 2**m`` complex matrix stored by column.

    ``cols[j]`` maps row -> amplitude for column ``j``, and nothing else is
    stored: no stored amplitude has magnitude <= ``EPS0``, and storage is
    O(2**m + nnz) whatever n is.  A row read (:meth:`row`, :attr:`rows`)
    is assembled from the columns, so it costs O(2**m).  Instances are not
    safe for concurrent mutation.
    """

    __slots__ = ("n", "m", "cols")

    def __init__(self, n: int, m: int, entries=None):
        if n < 0 or m < 0:
            raise ValueError("negative qubit count")
        if m > n:
            raise ValueError(f"isometry needs rows >= cols, got n={n} < m={m}")
        self.n = n
        self.m = m
        self.cols: list[dict[int, complex]] = [{} for _ in range(1 << m)]
        if entries is not None:
            for i, j, a in entries:
                self.set(int(i), int(j), complex(a))

    @property
    def shape(self) -> tuple[int, int]:
        return (1 << self.n, 1 << self.m)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.cols))

    def get(self, i: int, j: int) -> complex:
        return self.cols[j].get(i, 0j)

    def set(self, i: int, j: int, a: complex) -> None:
        """Create, overwrite or remove entry ``(i, j)``.

        Values with ``|a| <= EPS0`` delete the entry.
        """
        if not (0 <= i < (1 << self.n)) or not (0 <= j < (1 << self.m)):
            raise IndexError(f"entry ({i}, {j}) out of range for shape {self.shape}")
        if abs(a) <= EPS0:
            self.cols[j].pop(i, None)
        else:
            self.cols[j][i] = a

    def row(self, i: int) -> dict[int, complex]:
        """Row ``i`` as a new map (column -> amplitude), in column order."""
        return {j: col[i] for j, col in enumerate(self.cols) if i in col}

    @property
    def rows(self) -> dict[int, dict[int, complex]]:
        """The occupied rows as new maps, sorted by row, each in column
        order."""
        rows: dict[int, dict[int, complex]] = {}
        for j, col in enumerate(self.cols):
            for i, a in col.items():
                rows.setdefault(i, {})[j] = a
        return dict(sorted(rows.items()))

    def col(self, j: int) -> dict[int, complex]:
        """Live column map (row -> amplitude); do not mutate directly."""
        return self.cols[j]

    def entries(self):
        """Deterministic (i, j, amplitude) iteration in row-major order."""
        for i, row in self.rows.items():
            for j, a in row.items():
                yield i, j, a

    def pattern(self) -> set[tuple[int, int]]:
        return {(i, j) for j, col in enumerate(self.cols) for i in col}

    def copy(self) -> "SparseIsometry":
        out = SparseIsometry(self.n, self.m)
        out.cols = [dict(col) for col in self.cols]
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        for j, col in enumerate(self.cols):
            for i, a in col.items():
                out[i, j] = a
        return out

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseIsometry":
        a = np.asarray(a, dtype=complex)
        if a.ndim == 1:
            a = a[:, None]
        n = qubit_count(a.shape[0])
        m = qubit_count(a.shape[1])
        out = cls(n, m)
        for i, j in zip(*np.nonzero(np.abs(a) > EPS0)):
            out.set(int(i), int(j), complex(a[i, j]))
        return out


def apply_permutations(w: SparseIsometry, rho, sigma) -> SparseIsometry:
    """Return the matrix with entry (i, j) moved to (rho[i], sigma[j])."""
    rho = check_permutation(rho, 1 << w.n)
    sigma = check_permutation(sigma, 1 << w.m)
    out = SparseIsometry(w.n, w.m)
    for i, j, a in w.entries():
        out.set(int(rho[i]), int(sigma[j]), a)
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_deviation: float
    worst: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"ok (max |V^dag V - I| = {self.max_deviation:.3e})"
        j, k = self.worst
        return (
            f"not an isometry: |(V^dag V - I)[{j},{k}]| = "
            f"{self.max_deviation:.3e}"
        )


class NotAnIsometryError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report


def validate_isometry(mat, tol: float = 1e-10) -> ValidationReport:
    """Check ``V^dag V = I`` entrywise within ``tol``.

    Accepts a :class:`SparseIsometry` or a dense array whose dimensions must
    be powers of two with at least as many rows as columns.  A dense array
    with a NaN or infinite entry fails with deviation ``inf``, reported at
    the diagonal Gram entry of its first such column.
    """
    if isinstance(mat, SparseIsometry):
        # V^dag V is zero off the column pairs that share a row: accumulate
        # only those, row by row as a dense product does, and the diagonal
        gram = {(j, j): 0j for j in range(1 << mat.m)}
        for row in mat.rows.values():  # sorted by row, each in column order
            for j, aj in row.items():
                cj = aj.conjugate()
                for k, ak in row.items():
                    gram[j, k] = gram.get((j, k), 0j) + cj * ak
        pairs = sorted(gram)  # row-major, as a dense Gram is searched
        jk = np.array(pairs, dtype=np.int64)
        dev = np.abs(np.array([gram[p] for p in pairs]) - (jk[:, 0] == jk[:, 1]))
        at = int(np.argmax(dev))  # the first NaN, if any
        worst = (int(jk[at, 0]), int(jk[at, 1]))
    else:
        a = np.asarray(mat, dtype=complex)
        if a.ndim == 1:
            a = a[:, None]
        qubit_count(a.shape[0])
        qubit_count(a.shape[1])
        if a.shape[0] < a.shape[1]:
            raise ValueError("isometry needs rows >= cols")
        finite = np.isfinite(a).all(axis=0)
        if not finite.all():
            # refused before the product, which an infinity turns into NaN
            bad = int(np.argmin(finite))  # the first column with a non-finite entry
            return ValidationReport(False, math.inf, (bad, bad))
        ncols = a.shape[1]
        dev = np.abs(a.conj().T @ a - np.eye(ncols)).ravel()
        at = int(np.argmax(dev))  # the first NaN, if any
        worst = (at // ncols, at % ncols)
    max_dev = float(dev[at])
    ok = max_dev <= tol
    return ValidationReport(ok, max_dev, None if ok else worst)


# ---------------------------------------------------------------------------
# matrix file format
#
# JSON object {"n": int, "m": int, "entries": [[i, j, re, im], ...]} or the
# dense alternative {"n": int, "m": int, "dense": [[...], ...]} where each
# dense element is a real number or an [re, im] pair, rows listed in index
# order.


def matrix_to_dict(w: SparseIsometry) -> dict:
    return {
        "n": w.n,
        "m": w.m,
        "entries": [[i, j, a.real, a.imag] for i, j, a in w.entries()],
    }


def _parse_scalar(x) -> complex:
    """A dense matrix element: a real number or an ``[re, im]`` pair."""
    pair = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0.0)
    return complex(*(typed_field(p, float, "matrix element") for p in pair))


def matrix_from_dict(d: dict) -> SparseIsometry:
    if "n" not in d or "m" not in d:
        raise ValueError('matrix object needs "n" and "m" fields')
    n, m = int_field(d["n"], "n"), int_field(d["m"], "m")
    if n > MAX_QUBITS:
        raise ValueError(f"n = {n} exceeds {MAX_QUBITS} qubits (int64 basis indices)")
    if "entries" in d and 0 <= m <= n and len(d["entries"]) < 1 << m:
        # an isometry has a nonzero in every column: refused before the
        # 2^m column index is built
        raise ValueError(
            f"{len(d['entries'])} entries cannot fill the 2^{m} columns of an isometry"
        )
    out = SparseIsometry(n, m)
    if "entries" in d:
        seen = set()
        for item in d["entries"]:
            i, j, re, im = item
            i, j = int_field(i, "row index"), int_field(j, "column index")
            if not (0 <= i < (1 << n) and 0 <= j < (1 << m)):
                raise ValueError(f"entry ({i}, {j}) out of range for shape {out.shape}")
            if (i, j) in seen:
                raise ValueError(f"entry ({i}, {j}) given twice")
            seen.add((i, j))
            out.set(i, j, complex(typed_field(re, float, "entry"), typed_field(im, float, "entry")))
    elif "dense" in d:
        rows = d["dense"]
        if len(rows) != (1 << n):
            raise ValueError("dense matrix has wrong number of rows")
        for i, row in enumerate(rows):
            if len(row) != (1 << m):
                raise ValueError("dense matrix has wrong number of columns")
            for j, x in enumerate(row):
                out.set(i, j, _parse_scalar(x))
    else:
        raise ValueError('matrix object needs "entries" or "dense"')
    return out
