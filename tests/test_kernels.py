"""Kernel checks: RNG reference values and the projection against a brute-force oracle.

The counting kernels are checked against the dense solver in test_spectrum.
"""

import numpy as np

from crt_spectra import _kernels, excursion
from crt_spectra.dendrite import structure


def test_mix64_reference_values():
    # state 0 gives the published first splitmix64 output; the second value
    # is frozen as a regression guard
    assert int(_kernels.mix64(np.uint64(0))) == 0xE220A8397B1DCDAF
    assert int(_kernels.mix64(np.uint64(1))) == 0x910A2DEC89025CC1


def test_unit_open_interval():
    x = _kernels.mix64(np.arange(10_000, dtype=np.uint64))
    u = _kernels._unit_open(x)
    assert (u > 0).all() and (u < 1).all()


def test_triples_deterministic_and_vector_scalar_match():
    key = _kernels.derive_key(5, 77)
    codes = np.arange(64, dtype=np.uint64)
    t1 = _kernels.dirichlet_half_triples(key, codes)
    t2 = _kernels.dirichlet_half_triples(key, codes)
    np.testing.assert_array_equal(t1, t2)
    one = _kernels.dirichlet_half_triples(key, codes[7:8])
    np.testing.assert_array_equal(one[0], t1[7])


def test_nearest_vertex_matches_brute_force():
    path = excursion.sample_excursion(2**10, 7)
    tree = excursion.reduced_tree(path, 30, seed=5)
    f = path.values
    # every vertex twice: a higher-numbered duplicate must never win its tie
    tv = np.concatenate([tree.time_idx, tree.time_idx[::-1]])
    # d(i, v) = f(i) + f(t_v) - 2 min f over [i, t_v], one slice minimum per pair
    dist = np.empty((f.shape[0], tv.shape[0]))
    for i in range(f.shape[0]):
        for v, t in enumerate(tv):
            lo, hi = min(i, t), max(i, t)
            dist[i, v] = f[i] + f[t] - 2.0 * f[lo : hi + 1].min()
    owner, best = _kernels.nearest_vertex(f, tv)
    np.testing.assert_array_equal(owner, dist.argmin(axis=1))  # argmin: ties to the lowest vertex
    np.testing.assert_array_equal(best, dist.min(axis=1))


def test_structure_flat_offsets():
    st = structure(4)
    assert st.ep0_flat.shape[0] == (3**4 - 1) // 2
    for q in range(4):
        lo, hi = st.pass_offsets[q], st.pass_offsets[q + 1]
        np.testing.assert_array_equal(st.ep0_flat[lo:hi], st.ep0_levels[q])
