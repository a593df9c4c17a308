"""Generated-input properties of the three sparse isometry methods.

Every shape n = 1..5, m = 0..n is run (m = n and n = 1 included); for each
one, hypothesis draws the isometry's entries and the compile seed.  It runs
derandomized, so a failure replays.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import ordering as O

from helpers import random_sparse_isometry

D1 = C.AncillaRegime.with_dirty(1)
CLEAN1_DIRTY1 = C.AncillaRegime(clean=1, dirty=1)

SHAPES = pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(n + 1)])
SETTINGS = settings(derandomize=True, max_examples=4, deadline=None)
DRAWS = given(rotations=st.integers(0, 10), data_seed=st.integers(0, 2**32 - 1),
              seed=st.integers(0, 1000))


def _check_common(compile_, w, regime):
    """Exact, deterministic and JSON round-trip safe; returns the result."""
    res = compile_()
    assert G.equivalent(res.circuit, w, "exact", 1e-9).residual <= 1e-9
    text = json.dumps(G.circuit_to_dict(res.circuit), sort_keys=True)
    assert json.dumps(G.circuit_to_dict(compile_().circuit), sort_keys=True) == text
    back = G.circuit_from_dict(json.loads(text))
    assert json.dumps(G.circuit_to_dict(back), sort_keys=True) == text
    assert C.audit_circuit(back, regime).total == res.audit.total
    return res


@SHAPES
@SETTINGS
@DRAWS
def test_sparse_householder_properties(n, m, rotations, data_seed, seed):
    w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
    strategy = O.greedy_order(w)
    elim = O.elim_count(w, strategy)
    res = _check_common(lambda: M.sparse_householder_iso(w, strategy, D1, seed=seed), w, D1)
    assert res.audit.total <= C.bound_sparse_basic_dirty(n, m, elim)


@SHAPES
@SETTINGS
@DRAWS
def test_fixed_envelope_properties(n, m, rotations, data_seed, seed):
    w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
    _check_common(lambda: M.fixed_envelope_iso(w, None, D1, seed=seed), w, D1)


@SHAPES
@SETTINGS
@DRAWS
def test_no_fill_in_properties(n, m, rotations, data_seed, seed):
    w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
    res = _check_common(lambda: M.no_fill_in_iso(w, CLEAN1_DIRTY1, seed=seed), w, CLEAN1_DIRTY1)
    assert res.audit.total <= C.bound_no_fill_in_dirty(n, m, w.nnz)
    assert not any(t.fill_in for t in res.trace)
