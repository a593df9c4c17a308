"""The benchmark's workloads: fixed shapes, seeded instances, exact checks.

Every call into the library goes through a module attribute
(``pivoting.sparse_state_prep_on``, ``methods.no_fill_in_iso``, ...) that
is looked up at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import generators as gen
from hhsynth import costs, gates, methods, ordering, pivoting
from hhsynth.numerics import SparseIsometry

COMPILE_SEED = 0  # fixed compile seed, as the CLI's default --seed
TOL = 1e-9  # Frobenius residual of an exact verdict

NONE = costs.AncillaRegime.none()
DIRTY1 = costs.AncillaRegime.with_dirty(1)
CLEAN1_DIRTY1 = costs.AncillaRegime(clean=1, dirty=1)


@dataclass
class Outcome:
    """One method's compile of one instance, and the checks made on it."""

    method: str
    circuit: gates.StructuredCircuit | None = None
    cnots: int = 0
    bound: int | None = None  # closed-form CNOT bound, None where there is none
    residual: float = math.inf
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.residual <= TOL
            and (self.bound is None or self.cnots <= self.bound)
        )

    def problem(self) -> str:
        if self.error is not None:
            return self.error
        if not self.residual <= TOL:
            return f"residual {self.residual:.3e} > {TOL}"
        return f"audit {self.cnots} CNOTs > bound {self.bound}"


def _attempt(method: str, compile_fn, bound) -> Outcome:
    """Run one compile; ``compile_fn`` returns (circuit, audited CNOTs)."""
    try:
        circuit, cnots = compile_fn()
    except Exception as exc:  # a failed compile is counted, the run goes on
        return Outcome(method, bound=bound, error=f"compile raised {exc!r}")
    return Outcome(method, circuit, cnots, bound)


def _check(outcome: Outcome, residual_fn) -> None:
    """Fill in the residual; ``residual_fn`` maps the circuit to it."""
    if outcome.error is not None:
        return
    try:
        outcome.residual = float(residual_fn(outcome.circuit))
    except Exception as exc:  # a failed verdict is counted, the run goes on
        outcome.error = f"verify raised {exc!r}"


def _decomposition(result) -> tuple[gates.StructuredCircuit, int]:
    return result.circuit, result.audit.total


class Workload:
    """``instances`` per pass; each is compiled ``compile_repeats`` times
    per untraced pass and verified once.  Repeats give a verify-bound
    workload enough compile samples for a steady median; they must
    reproduce the verified circuits exactly."""

    def __init__(self, instances: int, compile_repeats: int = 1):
        self.instances, self.compile_repeats = instances, compile_repeats


class StatePrep(Workload):
    """Sparse state preparation, checked by simulating the circuit on
    |0...0> (``equivalent`` refuses more than ``SIM_CAP`` qubits)."""

    def __init__(self, n: int, nnz: int, instances: int):
        super().__init__(instances)
        self.n, self.nnz = n, nnz

    def generate(self, rng, count: int) -> list[dict[int, complex]]:
        return [gen.sparse_state(rng, self.n, self.nnz) for _ in range(count)]

    def compile(self, v) -> list[Outcome]:
        n, nnz = self.n, self.nnz
        s = (nnz - 1).bit_length()

        def run():
            circuit = pivoting.sparse_state_prep_on(v, n, seed=COMPILE_SEED)
            return circuit, costs.audit_circuit(circuit, NONE).total

        return [_attempt("ssp", run, costs.bound_ssp(n, s, nnz))]

    def verify(self, v, outcomes: list[Outcome]) -> None:
        dim = 1 << self.n
        target = np.zeros(dim, dtype=complex)
        target[list(v)] = list(v.values())

        def residual(circuit):
            zero = np.zeros(dim, dtype=complex)
            zero[0] = 1.0
            return np.linalg.norm(gates.apply_circuit(zero, circuit) - target)

        _check(outcomes[0], residual)


class SparseIso(Workload):
    """Sparse isometries through the three sparse methods, each checked by
    ``equivalent`` in exact mode."""

    def __init__(self, n: int, m: int, nnz_lo: int, nnz_hi: int, instances: int, compile_repeats: int):
        super().__init__(instances, compile_repeats)
        self.n, self.m = n, m
        self.nnz_lo, self.nnz_hi = nnz_lo, nnz_hi

    def generate(self, rng, count: int) -> list[SparseIsometry]:
        return [
            SparseIsometry.from_dense(
                gen.sparse_isometry(rng, self.n, self.m, self.nnz_lo, self.nnz_hi)
            )
            for _ in range(count)
        ]

    def compile(self, w) -> list[Outcome]:
        n, m = self.n, self.m
        try:
            strategy = ordering.greedy_order(w)
            elim = ordering.elim_count(w, strategy)
        except Exception as exc:  # every method of the instance fails
            return [
                Outcome(k, error=f"ordering raised {exc!r}")
                for k in ("sparse", "fixed-env", "no-fill-in")
            ]
        return [
            _attempt(
                "sparse",
                lambda: _decomposition(
                    methods.sparse_householder_iso(w, strategy, DIRTY1, seed=COMPILE_SEED)
                ),
                costs.bound_sparse_basic_dirty(n, m, elim),
            ),
            _attempt(
                "fixed-env",
                lambda: _decomposition(
                    methods.fixed_envelope_iso(w, strategy, DIRTY1, seed=COMPILE_SEED)
                ),
                None,
            ),
            _attempt(
                "no-fill-in",
                lambda: _decomposition(
                    methods.no_fill_in_iso(w, CLEAN1_DIRTY1, seed=COMPILE_SEED)
                ),
                costs.bound_no_fill_in_dirty(n, m, w.nnz),
            ),
        ]

    def verify(self, w, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            _check(o, lambda c: gates.equivalent(c, w, "exact", TOL).residual)


class DenseUnitary(Workload):
    """Haar-random unitaries through the dense Householder path, checked
    by ``equivalent`` in exact mode."""

    def __init__(self, n: int, instances: int):
        super().__init__(instances)
        self.n = n
        self.bound = math.ceil(costs.bound_dense_unitary(n))

    def generate(self, rng, count: int) -> list[np.ndarray]:
        return [gen.haar_unitary(rng, self.n) for _ in range(count)]

    def compile(self, u) -> list[Outcome]:
        return [
            _attempt(
                "unitary",
                lambda: _decomposition(methods.dense_householder_unitary(u, DIRTY1)),
                self.bound,
            )
        ]

    def verify(self, u, outcomes: list[Outcome]) -> None:
        _check(outcomes[0], lambda c: gates.equivalent(c, u, "exact", TOL).residual)


# Shapes are fixed.  The instance counts make one pass take a quarter to a
# third of a 30 s run on a 2-core box.  iso-sparse spends about 90 % of a
# pass verifying, so its compiles repeat.  ssp-packed is not in
# BENCHMARK.json: its Python-bound compile drifted more than the gate's
# bound between runs on that box (see README.md); run it by name.
WORKLOADS = {
    "ssp-wide": StatePrep(n=18, nnz=8, instances=10),
    "ssp-packed": StatePrep(n=12, nnz=256, instances=6),
    "iso-sparse": SparseIso(n=8, m=5, nnz_lo=100, nnz_hi=120, instances=3, compile_repeats=3),
    "unitary-dense": DenseUnitary(n=7, instances=5),
}
