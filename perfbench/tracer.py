"""Spans and counters around the library's layer functions, installed from
the benchmark's own code.

A span wrapper replaces a function at every binding the library resolves
at call time: the defining module, every ``hhsynth`` module that imported
it by value, and the class for methods.  Each span records its name,
start, end, parent span, instance and pass; spans stay in memory until
the run ends.  Hot leaf helpers get a count-only wrapper, so their time
stays in the caller's self time.  Library functions without a wrapper are
likewise part of their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

PERM_PHASE = (
    "gates.PermPhase.compose",
    "gates.PermPhase.apply_to_state",
    "gates.PermPhase.apply_to_sparse",
    "gates.gate_perm_phase",
    "gates.sequence_perm_phase",
    "gates.relaxed_mcx2",
)
GROUPS = {"gates.perm_phase": PERM_PHASE}
MODULES = ("pivoting", "gates", "householder", "numerics", "ordering", "methods", "costs")


def _add_steps(counts, args, result):
    counts["methods.steps"] += sum(1 for t in result.trace if not t.skipped)
    counts["methods.skipped"] += sum(1 for t in result.trace if t.skipped)


def _add_reduction(counts, args, result):
    counts["householder.modified"] += len(result.modified)
    counts["householder.fill_in"] += len(result.fill_in)


# span name -> hook(counts, args, result) adding counts read from the call
SPANS = {
    "pivoting.sparse_state_prep_on": None,
    "pivoting.choose_splitting": None,
    "pivoting.pivot_plan": lambda c, a, r: c.update({"pivoting.insertions": len(r.steps)}),
    "pivoting.hypercube_multisource_bfs": None,
    "gates.PermPhase.compose": lambda c, a, r: c.update({"gates.perm_phase.entries": a[0].dim}),
    "gates.PermPhase.apply_to_state": None,
    "gates.PermPhase.apply_to_sparse": None,
    "gates.gate_perm_phase": None,
    "gates.sequence_perm_phase": None,
    "gates.relaxed_mcx2": None,
    "gates.apply_gate": lambda c, a, r: c.update({"gates.sim_amplitudes": a[0].size}),
    "gates.apply_circuit": None,
    "gates.circuit_unitary": None,
    "gates.equivalent": None,
    "gates.complete_state_prep": None,
    "gates.StructuredCircuit.validate": None,
    "householder.reduce_column": _add_reduction,
    "householder.HouseholderSpec.dense": None,
    "householder.generalized_pair_reflection": None,
    "householder.standard_pair_reflection": None,
    "numerics.validate_isometry": None,
    "numerics.apply_permutations": None,
    "numerics.SparseIsometry.copy": None,
    "numerics.SparseIsometry.to_dense": None,
    "ordering.greedy_order": None,
    "ordering.elim_count": lambda c, a, r: c.update({"ordering.elim": r}),
    "ordering.envelope": None,
    "ordering.simulate_pattern_reduction": None,
    "methods.sparse_householder_iso": _add_steps,
    "methods.fixed_envelope_iso": _add_steps,
    "methods.no_fill_in_iso": _add_steps,
    "methods.dense_householder_unitary": _add_steps,
    "methods.householder_up_to": None,
    "methods.perm_diag_reduce": None,
    "costs.audit_circuit": None,
}
COUNTED = ("pivoting.QubitSplitting.split", "numerics.SparseIsometry.set")


class Tracer:
    """Installs and removes the wrappers and holds what they record."""

    def __init__(self):
        # [name, start, end, parent index or -1, instance, pass]
        self.spans: list[list] = []
        self.counts: list[Counter] = []  # one Counter per traced pass
        self.missing: list[str] = []  # names the library no longer has
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Start a traced pass: wrap every binding, open a fresh Counter."""
        self.counts.append(Counter())
        self.missing = []
        modules = [
            m for k, m in sys.modules.items() if k == "hhsynth" or k.startswith("hhsynth.")
        ]
        for name, hook in SPANS.items():
            self._patch(name, modules, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name in COUNTED:
            self._patch(name, modules, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, name: str, modules, make) -> None:
        module, *path = name.split(".")
        owner = sys.modules.get(f"hhsynth.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, path[-1], owner.__dict__[path[-1]]))
            setattr(owner, path[-1], wrapper)
            return
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, pass_id = self.counts[-1], len(self.counts) - 1
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, pass_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts[-1]
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str, instance: int):
        """A root span of the benchmark's own, around one phase of one
        instance; its self time is what no wrapped span covers."""
        self.instance = instance
        rec = [name, 0.0, 0.0, -1, instance, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self) -> list[int]:
        """Index of each span's root span (parents precede children)."""
        out = []
        for i, rec in enumerate(self.spans):
            out.append(i if rec[3] < 0 else out[rec[3]])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
