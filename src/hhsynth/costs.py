"""Closed-form CNOT counts and the circuit cost auditor.

Every cost here is an upper bound on the CNOTs needed to expand the gate
with the stated ancilla resources, so taking the minimum over applicable
constructions is sound.  Single-qubit gates are free; a raw CNOT costs 1.

Ancilla accounting: a gate inside a circuit may borrow any circuit qubit it
does not touch as a *dirty* ancilla.  Clean ancillas only come from the
:class:`AncillaRegime` (mid-circuit, a declared-clean circuit qubit is not
guaranteed to be |0>, so spare circuit qubits count as dirty only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gates as G

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AncillaRegime:
    """Extra helper qubits assumed available next to the circuit.

    Clean ancillas start in |0> and must be returned to |0>; dirty ancillas
    start in an unknown state and must be restored.  A clean ancilla can
    always stand in for a dirty one.
    """

    clean: int = 0
    dirty: int = 0

    def __post_init__(self):
        if self.clean < 0 or self.dirty < 0:
            raise ValueError("ancilla counts must be >= 0")

    @classmethod
    def none(cls) -> "AncillaRegime":
        return cls(0, 0)

    @classmethod
    def with_dirty(cls, k: int) -> "AncillaRegime":
        return cls(0, k)

    @classmethod
    def with_clean(cls, k: int) -> "AncillaRegime":
        return cls(k, 0)


def parse_regime(text: str) -> AncillaRegime:
    """Parse 'none', 'dirty:K', 'clean:K' or 'clean:K+dirty:K'."""
    text = text.strip().lower()
    if text in ("", "none"):
        return AncillaRegime.none()
    clean = dirty = 0
    for part in text.split("+"):
        kind, _, num = part.partition(":")
        count = int(num) if num else 1
        if kind == "dirty":
            dirty += count
        elif kind == "clean":
            clean += count
        else:
            raise ValueError(f"bad regime {text!r}")
    return AncillaRegime(clean, dirty)


@dataclass
class CostReport:
    total: int
    breakdown: list[tuple[str, str, int]]  # (gate, formula, count)

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "breakdown": [
                {"gate": g, "formula": f, "cnots": c} for g, f, c in self.breakdown
            ],
        }


# ---------------------------------------------------------------------------
# multi-controlled gates


def cost_mcx_detail(k: int, n_total: int, regime: AncillaRegime) -> tuple[int, str]:
    """Cheapest known k-controlled NOT given ``n_total`` circuit qubits.

    Spare circuit qubits (not among the k+1 the gate touches) act as dirty
    ancillas; the regime adds more.
    """
    if k < 0:
        raise ValueError("negative control count")
    if k + 1 > n_total:
        raise ValueError(f"C_{k}(X) does not fit on {n_total} qubits")
    if k == 0:
        return 0, "x"
    if k == 1:
        return 1, "cnot"
    if k == 2:
        return 6, "toffoli"
    spare = n_total - (k + 1)
    dirty_avail = spare + regime.dirty + regime.clean
    clean_avail = regime.clean
    n_eff = n_total + regime.dirty + regime.clean
    cands: list[tuple[int, str]] = [(16 * k * k - 28 * k - 2, "as-mcu")]
    if dirty_avail >= 1:
        cands.append((16 * k - 8, "one-dirty"))
    if n_eff >= 5 and k <= (n_eff + 1) // 2:
        cands.append((8 * k - 6, "half-register"))
    if k >= 5 and dirty_avail >= (k - 1) // 2:
        cands.append((8 * k - 12, "many-dirty"))
    if clean_avail >= (k - 1) // 2:
        cands.append((6 * k - 6, "many-clean"))
    return min(cands)


def cost_mcx(k: int, n_total: int, regime: AncillaRegime = AncillaRegime.none()) -> int:
    return cost_mcx_detail(k, n_total, regime)[0]


def cost_mcu_detail(k: int, regime: AncillaRegime) -> tuple[int, str]:
    """Cheapest known k-controlled single-qubit unitary."""
    if k < 0:
        raise ValueError("negative control count")
    if k == 0:
        return 0, "single-qubit"
    if k == 1:
        return 2, "two-cnot"
    cands = [(16 * k * k - 28 * k - 2, "no-ancilla")]
    if regime.clean >= k - 1:
        cands.append((6 * k - 4, "clean-chain"))
    return min(cands)


def cost_mcu(k: int, regime: AncillaRegime = AncillaRegime.none()) -> int:
    return cost_mcu_detail(k, regime)[0]


# ---------------------------------------------------------------------------
# state preparation, diagonals, permutations


def cost_dense_sp(n: int) -> int:
    """Dense n-qubit state preparation: ceil(23/24 2^n - 2^{n/2+1} + 5/3).

    On 0 or 1 qubits no two-qubit gate can occur, so the cost is 0 (the
    formula's small-case slack starts at n = 2).
    """
    if n < 0:
        raise ValueError("negative qubit count")
    if n <= 1:
        return 0
    rational = Fraction(23 * (1 << n), 24) + Fraction(5, 3)
    if n % 2 == 0:
        val = rational - (1 << (n // 2 + 1))
        return max(0, math.ceil(val))
    power = (1 << ((n + 1) // 2)) * _SQRT2
    return max(0, math.ceil(float(rational) - power))


def cost_diagonal(m: int) -> int:
    """Diagonal gate on m qubits: 2^m - 2 (zero below two qubits)."""
    if m < 0:
        raise ValueError("negative qubit count")
    return max(0, (1 << m) - 2)


def perm_formula_no_ancilla(n: int) -> int:
    """(27n - 62) 2^n + 44n^2 - 96n - 23, valid for n >= 3."""
    if n < 3:
        raise ValueError("formula requires n >= 3")
    return (27 * n - 62) * (1 << n) + 44 * n * n - 96 * n - 23


def perm_formula_one_dirty(n: int) -> int:
    """(18n - 26)(2^n - 1), valid for n >= 2 (reflection-pair synthesis)."""
    if n < 2:
        raise ValueError("formula requires n >= 2")
    return (18 * n - 26) * ((1 << n) - 1)


def unitary_cnot_bound(n: int) -> int:
    """ceil(23/48 4^n - 3/2 2^n + 4/3): any n-qubit unitary, no ancilla."""
    if n < 2:
        raise ValueError("formula requires n >= 2")
    val = Fraction(23 * (1 << (2 * n)), 48) - Fraction(3 * (1 << n), 2) + Fraction(4, 3)
    return math.ceil(val)


def cost_permutation_detail(n: int, regime: AncillaRegime) -> tuple[int, str]:
    """Cheapest known permutation gate on n qubits under the regime."""
    if n < 0:
        raise ValueError("negative qubit count")
    if n <= 1:
        return 0, "single-qubit"
    cands = [(unitary_cnot_bound(n), "as-unitary")]
    if n >= 3:
        cands.append((perm_formula_no_ancilla(n), "even-perm-network"))
    if regime.dirty + regime.clean >= 1:
        cands.append((perm_formula_one_dirty(n), "reflection-pairs"))
    return min(cands)


def cost_permutation(n: int, regime: AncillaRegime = AncillaRegime.none()) -> int:
    return cost_permutation_detail(n, regime)[0]


def cost_decrement(n: int, n_total: int, regime: AncillaRegime) -> int:
    """Multi-controlled ladder: sum_k cost_mcx(k) for k = 0..n-1."""
    return sum(cost_mcx(k, n_total, regime) for k in range(n))


# ---------------------------------------------------------------------------
# pivot-count bound variants (dirty-ancilla counts; a = available dirty)


def pivot_count_bound(n: int, s: int, nnz: int, dirty: int = 0) -> int:
    """Best applicable closed-form bound on pivoting CNOTs.

    ``dirty`` counts extra ancillas beyond the n register qubits.  Variants
    and their preconditions:
      * (n + 16 s^2 - 28 s - 3) nnz   for n + a >= s + 1
      * 27 n 2^n                      for n + a >= s + 1
      * (n + 16 s - 9) nnz            for n + a >= s + 2
      * (n + 8 s - 13) nnz            for n + a >= s + ceil(s/2), s >= 5
    """
    if s < 0 or s > n:
        raise ValueError("need 0 <= s <= n")
    if s == 0:
        return (n - 1) * nnz if n >= 1 else 0
    avail = n + dirty
    cands = []
    if avail >= s + 1:
        if s >= 2:
            cands.append((n + 16 * s * s - 28 * s - 3) * nnz)
        else:
            cands.append(n * nnz)  # the 1-controlled NOT is a plain CNOT
        cands.append(27 * n * (1 << n))
    if avail >= s + 2:
        cands.append((n + 16 * s - 9) * nnz)
    if s >= 5 and avail >= s + (s + 1) // 2:
        cands.append((n + 8 * s - 13) * nnz)
    if not cands:
        raise ValueError(f"no pivot bound applies for n={n}, s={s}, dirty={dirty}")
    return min(cands)


# ---------------------------------------------------------------------------
# composite closed forms (used as acceptance bounds)


def ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


def bound_pivot_dirty(n: int, s: int, nnz: int) -> int:
    """(n + 16s - 9) nnz: pivoting with a dirty helper (s <= n - 2 or 1 dirty)."""
    return (n + 16 * s - 9) * nnz


def bound_pivot_clean(n: int, s: int, nnz: int) -> int:
    """(n + 6s - 7) nnz: pivoting with ceil(s/2 - 1) clean ancillas."""
    return (n + 6 * s - 7) * nnz


def bound_hr_up_to_clean(n: int, s: int, nnz: int) -> int:
    """(n + 6s - 3) nnz + 6n: reflection up to diag x perm, clean ancillas."""
    return (n + 6 * s - 3) * nnz + 6 * n


def bound_perm_diag_clean(n: int, m: int) -> int:
    """(n + 24m - 32) 2^m: permuted diagonal isometry, clean ancillas."""
    return (n + 24 * m - 32) * (1 << m)


def bound_ssp(n: int, s: int, nnz: int) -> int:
    """(n + 16s - 9) nnz + ceil(23/24 2^s); needs a dirty helper qubit,
    available among the register itself for s <= n - 2."""
    return (n + 16 * s - 9) * nnz + ceil_frac(23 * (1 << s), 24)


def bound_ssp_clean(n: int, s: int, nnz: int) -> int:
    """(n + 6s - 7) nnz + ceil(23/24 2^s) with ceil(s/2 - 1) clean ancillas,
    valid for s >= 1."""
    if s < 1:
        raise ValueError("formula requires s >= 1")
    return (n + 6 * s - 7) * nnz + ceil_frac(23 * (1 << s), 24)


def bound_hr_up_to_dirty(n: int, s: int, nnz: int) -> int:
    """(n + 16s - 5) nnz + 16n: reflection up to diag x perm, one dirty."""
    return (n + 16 * s - 5) * nnz + 16 * n


def bound_perm_diag_dirty(n: int, m: int) -> int:
    """(n + 34m - 34) 2^m: permuted diagonal isometry, one dirty."""
    return (n + 34 * m - 34) * (1 << m)


def bound_sparse_basic_dirty(n: int, m: int, elim: int) -> int:
    """(17n - 5) elim + (51n + 34m - 44) 2^m, one dirty ancilla."""
    return (17 * n - 5) * elim + (51 * n + 34 * m - 44) * (1 << m)


def bound_sparse_basic_clean(n: int, m: int, elim: int) -> int:
    """(7n - 3) elim + (21n + 24m - 38) 2^m, ceil((n-3)/2) clean ancillas,
    valid for n >= 2."""
    if n < 2:
        raise ValueError("formula requires n >= 2")
    return (7 * n - 3) * elim + (21 * n + 24 * m - 38) * (1 << m)


def bound_no_fill_in_dirty(n: int, m: int, nnz: int) -> int:
    """(17n + 12) nnz + (34n + 34m - 5) 2^m, one clean + one dirty."""
    return (17 * n + 12) * nnz + (34 * n + 34 * m - 5) * (1 << m)


def bound_no_fill_in_clean(n: int, m: int, nnz: int) -> int:
    """(7n + 4) nnz + (14n + 24m - 21) 2^m, ceil(n/2) clean ancillas."""
    return (7 * n + 4) * nnz + (14 * n + 24 * m - 21) * (1 << m)


def bound_dense_iso(m: int, n: int) -> float:
    """Dense isometry bound, valid for n >= 5 (even/odd branch selected)."""
    if n % 2 == 0:
        return (
            23.0 / 24.0 * ((1 << (m + n)) + (1 << n))
            + 23.0 / 12.0 * (1 << m) * 2.0 ** (n / 2.0)
            - (1 << m) * 2.0 ** (n / 4.0 + 2.0)
            + (16 * n - 23) * (1 << m)
            - 2.0 / 3.0
        )
    return (
        115.0 / 96.0 * ((1 << (m + n)) + (1 << n))
        + 23.0 / 12.0 * (1 << m) * 2.0 ** ((n - 1) / 2.0)
        - (1 << m) * 2.0 ** ((n - 1) / 4.0 + 2.0)
        + (16 * n - 23) * (1 << m)
        - 2.0 / 3.0
    )


def bound_dense_unitary(n: int) -> float:
    """Halving-scheme bound: sum over k of the controlled-isometry pieces."""
    total = 0.0
    for k in range(n):
        total += (
            bound_dense_iso(n - k - 1, n - k)
            + k * (1 << (n - k + 3))
            + (1 << (n - 1)) * (1.0 - 2.0 ** (-k))
        )
    return total


def fig_dashed_ssp_bound(n: int, s: int) -> float:
    """(n + 6s - 7 + 23/24) 2^s, the clean-ancilla reference line."""
    return (n + 6 * s - 7 + 23.0 / 24.0) * (1 << s)


# ---------------------------------------------------------------------------
# circuit auditor


def _gate_cost(g: G.Gate, n_total: int, regime: AncillaRegime) -> tuple[str, str, int]:
    if isinstance(g, G.CNOT):
        return "cnot", "unit", 1
    if isinstance(g, G.SingleQubit):
        return f"single[{g.label}]", "free", 0
    if isinstance(g, G.MCX):
        k = len(g.controls)
        c, rule = cost_mcx_detail(k, n_total, regime)
        return f"mcx[k={k}]", rule, c
    if isinstance(g, G.MCU):
        k = len(g.controls)
        c, rule = cost_mcu_detail(k, regime)
        return f"mcu[k={k}]", rule, c
    if isinstance(g, G.Diagonal):
        return f"diagonal[{len(g.qubits)}q]", "2^m-2", cost_diagonal(len(g.qubits))
    if isinstance(g, G.PermutationGate):
        spare = n_total - len(g.qubits)
        eff = AncillaRegime(regime.clean, regime.dirty + spare)
        c, rule = cost_permutation_detail(len(g.qubits), eff)
        return f"permutation[{len(g.qubits)}q]", rule, c
    if isinstance(g, G.Decrement):
        k = len(g.qubits)
        return f"decrement[{k}q]", "mcx-ladder", cost_decrement(k, n_total, regime)
    if isinstance(g, G.SPBlock):
        k = len(g.qubits)
        return f"spblock[{k}q]", "dense-sp", cost_dense_sp(k)
    if isinstance(g, G.H0Phase):
        k = len(g.qubits) - 1
        if math.isclose(abs(math.remainder(g.phi, 2 * math.pi)), math.pi, abs_tol=1e-12):
            c, rule = cost_mcx_detail(k, n_total, regime)  # dressed C_k(-Z)
            return f"h0[pi,{k + 1}q]", rule, c
        c, rule = cost_mcu_detail(k, regime)
        return f"h0[phi,{k + 1}q]", rule, c
    raise TypeError(f"no cost rule for {g!r}")


def audit_circuit(circuit: G.StructuredCircuit, regime: AncillaRegime = AncillaRegime.none()) -> CostReport:
    """Per-gate CNOT audit under the regime.

    Adjacent prepare/unprepare SPBlock pairs on the same subset are charged
    as a single state-preparation: the merged construction implements the
    product at one block's cost, which is what makes the halved dense counts
    attainable.
    """
    n_total = circuit.total_qubits
    items: list[tuple[str, str, int]] = []
    gs = circuit.gates
    i = 0
    while i < len(gs):
        g = gs[i]
        nxt = gs[i + 1] if i + 1 < len(gs) else None
        if (
            isinstance(g, G.SPBlock)
            and isinstance(nxt, G.SPBlock)
            and g.qubits == nxt.qubits
            and g.inverted != nxt.inverted
        ):
            k = len(g.qubits)
            items.append((f"spblock-pair[{k}q]", "merged-sp", cost_dense_sp(k)))
            i += 2
            continue
        items.append(_gate_cost(g, n_total, regime))
        i += 1
    return CostReport(sum(c for _, _, c in items), items)
