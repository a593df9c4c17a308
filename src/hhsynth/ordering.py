"""Envelope machinery and elimination strategies for sparse reduction.

An elimination strategy is a pair ``(rho, sigma)`` of row/column position
maps: reducing ``W`` with strategy ``(rho, sigma)`` is, step by step, the
trivial reduction of ``apply_permutations(W, rho, sigma)`` — at step ``i``
the original column ``sigma^{-1}(i)`` is sent to the original row
``rho^{-1}(i)``.  A strategy holds ``sigma`` and ``rows``, ``rho^{-1}`` on
its first positions (at least ``2^m``), so it needs no ``2^n`` array; the
full ``rho`` (the unplaced rows after them, ascending) is built when read.

``envelope`` computes, per column, the running maximum of the lowest
nonzero row index (non-decreasing by definition); ``ed`` sums the gaps
between that profile and the diagonal and upper-bounds the eliminations any
strategy with that permuted profile can incur.

The elimination count runs on the sparsity pattern only.  Every entry the
update formula touches is treated as structurally nonzero, so accidental
numeric cancellations make the count an upper bound on the numeric one,
matching the direction of every bound built on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import SparseIsometry, check_permutation, invert_permutation


@dataclass(frozen=True)
class EliminationStrategy:
    n: int
    rows: np.ndarray  # original row at each chosen position, positions 0 .. 2^m - 1 at least
    sigma: np.ndarray  # column position map on 2^m

    @cached_property
    def rho(self) -> np.ndarray:
        """Row position map on 2^n: the chosen rows, then the others ascending."""
        try:
            rho = np.full(1 << self.n, -1, dtype=np.int64)
        except ValueError as e:  # numpy refuses a size past its address space
            raise MemoryError(str(e)) from None
        rho[self.rows] = np.arange(len(self.rows))
        rho[rho < 0] = np.arange(len(self.rows), 1 << self.n)
        return rho

    @classmethod
    def identity(cls, n: int, m: int) -> "EliminationStrategy":
        return cls(n, np.arange(1 << m), np.arange(1 << m))

    @classmethod
    def checked(cls, rho, sigma, n: int, m: int) -> "EliminationStrategy":
        rows = invert_permutation(check_permutation(rho, 1 << n))
        return cls(n, rows, check_permutation(sigma, 1 << m))


@dataclass(frozen=True)
class EnvelopeProfile:
    env: np.ndarray  # one row index per column, non-decreasing
    ed: int  # sum of env(j) - j


def envelope(w: SparseIsometry) -> EnvelopeProfile:
    """Running max of the lowest nonzero row per column, and its diagonal gap."""
    env = np.zeros(1 << w.m, dtype=np.int64)
    running = -1
    for j in range(1 << w.m):
        col = w.col(j)
        lowest = max(col) if col else -1
        running = max(running, lowest)
        env[j] = running
    ed = int(np.sum(env - np.arange(1 << w.m)))
    return EnvelopeProfile(env, ed)


def _pack_rows(w: SparseIsometry, order) -> np.ndarray:
    """The rows placed by packing, column by column in ``order``, the
    not-yet-placed rows of each column into the next free positions
    (ascending original row index within a group), listed by position."""
    placed: dict[int, None] = {}
    for j in order:
        placed.update(dict.fromkeys(sorted(set(w.col(j)).difference(placed))))
    return np.fromiter(placed, dtype=np.int64, count=len(placed))


def optimal_row_perm(w: SparseIsometry) -> np.ndarray:
    """Row position map minimizing the envelope pointwise for fixed columns.

    Packs the rows column by column, left to right (:func:`_pack_rows`);
    the unplaced rows follow in ascending order.  The result dominates
    every other row permutation column-wise.
    """
    cols = np.arange(1 << w.m)
    return EliminationStrategy(w.n, _pack_rows(w, cols), cols).rho


def greedy_order(w: SparseIsometry) -> EliminationStrategy:
    """Min-heap greedy strategy: repeatedly take the sparsest live column.

    At each step the column with the fewest not-yet-deleted nonzeros is
    appended to the column order (ties: smallest column index) and its live
    rows are deleted from every other column.  The rows are then packed in
    that column order (:func:`_pack_rows`), so each column's live rows take
    the next row positions, which is :func:`optimal_row_perm` of the
    column-permuted matrix.  Runs in O(n nnz(W)) heap operations.
    """
    ncols = 1 << w.m
    live_cols = {j: set(w.col(j)) for j in range(ncols)}
    row_entries = {i: set(row) for i, row in w.rows.items()}
    heap = [(len(rows), j) for j, rows in live_cols.items()]
    heapq.heapify(heap)
    order: list[int] = []
    done = set()
    while heap:
        # every count change pushes a fresh entry, the column's smallest, so
        # a column's first entry popped is exact and later ones are stale
        _, j = heapq.heappop(heap)
        if j in done:
            continue
        done.add(j)
        order.append(j)
        for r in live_cols[j]:
            for j2 in row_entries[r]:
                if j2 != j and j2 not in done:
                    live_cols[j2].discard(r)
                    heapq.heappush(heap, (len(live_cols[j2]), j2))
        live_cols[j] = set()
    sigma = invert_permutation(np.array(order, dtype=np.int64))
    return EliminationStrategy(w.n, _pack_rows(w, order), sigma)


# ---------------------------------------------------------------------------
# pattern-level reduction


@dataclass
class PatternStep:
    step: int
    column: int  # original column index
    target: int  # original row index
    nnz: int  # structural nonzeros of the column when reduced
    col_support: frozenset = frozenset()  # rows of the column, pre-step
    eliminated: set = field(default_factory=set)  # column entries removed ("x")
    orth_eliminated: set = field(default_factory=set)  # target-row entries ("-")
    fill_in: set = field(default_factory=set)  # new nonzeros ("+")


def simulate_pattern_reduction(
    pattern: set[tuple[int, int]],
    schedule: list[tuple[int, int]],
) -> tuple[int, list[PatternStep]]:
    """Structural run of the column-by-column reduction.

    ``schedule`` lists (column, target row) per step.  Touched entries are
    treated as nonzero, so the returned elimination total upper-bounds the
    numeric count.  Returns (total eliminations, per-step traces).
    """
    cols: dict[int, set[int]] = {}
    rows: dict[int, set[int]] = {}
    for (i, j) in pattern:
        cols.setdefault(j, set()).add(i)
        rows.setdefault(i, set()).add(j)

    def remove(i, j):
        cols[j].discard(i)
        rows[i].discard(j)

    def add(i, j):
        cols.setdefault(j, set()).add(i)
        rows.setdefault(i, set()).add(j)

    total = 0
    steps: list[PatternStep] = []
    for k, (j, t) in enumerate(schedule):
        col = set(cols.get(j, ()))
        row = set(rows.get(t, ()))
        st = PatternStep(step=k, column=j, target=t, nnz=len(col), col_support=frozenset(col))
        total += max(0, len(col) - 1)
        for s in col:
            if s == t:
                continue
            for t2 in row:
                if t2 == j:
                    continue
                if s not in cols.get(t2, set()):
                    st.fill_in.add((s, t2))
                add(s, t2)
        for t2 in row:
            if t2 != j:
                st.orth_eliminated.add((t, t2))
                remove(t, t2)
        for s in col:
            if s != t:
                st.eliminated.add((s, j))
                remove(s, j)
        add(t, j)
        steps.append(st)
    return total, steps


def elim_count(w: SparseIsometry, strategy: EliminationStrategy) -> int:
    """Total eliminations under the strategy, pattern-level.

    Equals sum_i (nnz(w_i) - 1) where w_i is the column reduced at step i
    of the structural run; bounded by ed(apply_permutations(W, rho, sigma)).
    """
    sigma_inv = invert_permutation(strategy.sigma)
    schedule = [(int(sigma_inv[i]), int(strategy.rows[i])) for i in range(1 << w.m)]
    total, _ = simulate_pattern_reduction(w.pattern(), schedule)
    return total
