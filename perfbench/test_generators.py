"""The benchmark's generators: one seed gives byte-identical instances,
another seed gives different ones, and every instance has its shape.

    python3 -m pytest perfbench
"""

import numpy as np

import generators as gen


def _instances(seed):
    rng = np.random.default_rng(seed)
    return (
        gen.sparse_state(rng, 18, 8),
        gen.sparse_state(rng, 12, 256),
        gen.sparse_isometry(rng, 8, 5, 100, 120),
        gen.haar_unitary(rng, 7),
    )


def _bytes(x) -> bytes:
    return x.tobytes() if isinstance(x, np.ndarray) else repr(sorted(x.items())).encode()


def test_same_seed_gives_identical_instances():
    for a, b in zip(_instances(7), _instances(7)):
        assert _bytes(a) == _bytes(b)


def test_other_seed_gives_different_instances():
    for a, b in zip(_instances(7), _instances(8)):
        assert _bytes(a) != _bytes(b)


def test_instances_have_their_shapes():
    wide, packed, iso, u = _instances(3)
    for v, n, nnz in ((wide, 18, 8), (packed, 12, 256)):
        assert len(v) == nnz and max(v) < 1 << n
        assert abs(sum(abs(a) ** 2 for a in v.values()) - 1.0) < 1e-12
    assert iso.shape == (256, 32)
    assert 100 <= np.count_nonzero(iso) <= 120
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(32))) < 1e-12
    assert np.any(np.count_nonzero(iso, axis=1) > 1)  # columns share rows
    assert np.max(np.abs(u.conj().T @ u - np.eye(128))) < 1e-12
