"""Seeded PRNG determinism, state round-trip, and a distribution sanity
oracle for the gaussian transform."""

import numpy as np

from tinypeft.rng import RngState


def test_same_seed_same_stream():
    a = RngState(123).gaussian(0.0, 1.0, (1000,))
    b = RngState(123).gaussian(0.0, 1.0, (1000,))
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(1).gaussian(0.0, 1.0, (100,))
    b = RngState(2).gaussian(0.0, 1.0, (100,))
    assert not np.array_equal(a, b)


def test_state_roundtrip_resumes_stream():
    r = RngState(7)
    r.uniform((13,))  # advance
    snap = r.get_state()
    want = r.gaussian(0.0, 1.0, (50,))
    r2 = RngState(0)
    r2.set_state(snap)
    np.testing.assert_array_equal(r2.gaussian(0.0, 1.0, (50,)), want)


def test_state_dict_is_json_safe():
    import json
    snap = RngState(5).get_state()
    back = json.loads(json.dumps(snap))
    assert back == snap
    assert snap["algorithm_id"] == "pcg64"
    # 256 bits of internal state: 128-bit state + 128-bit increment
    assert int(snap["state"]) < 2**128 and int(snap["inc"]) < 2**128


def test_gaussian_moments():
    # loose but unfakeable: 1e5 draws, mean/std within 4 sigma of truth
    x = RngState(42).gaussian(2.0, 3.0, (100_000,)).astype(np.float64)
    n = x.size
    assert abs(x.mean() - 2.0) < 4 * 3.0 / np.sqrt(n)
    assert abs(x.std() - 3.0) < 0.05
    assert x.dtype == np.float64 and np.isfinite(x).all()


def test_gaussian_zero_std_is_constant():
    x = RngState(0).gaussian(1.5, 0.0, (10,))
    np.testing.assert_array_equal(x, np.full(10, np.float32(1.5)))


def test_permutation_is_a_permutation():
    p = RngState(3).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_choice_weighted_frequencies():
    r = RngState(17)
    probs = np.array([0.1, 0.6, 0.3], dtype=np.float32)
    draws = np.bincount([r.choice_weighted(probs) for _ in range(20_000)], minlength=3)
    freq = draws / draws.sum()
    np.testing.assert_allclose(freq, probs, atol=0.02)


def test_choice_weighted_degenerate():
    r = RngState(0)
    probs = np.array([0.0, 1.0, 0.0], dtype=np.float32)
    assert all(r.choice_weighted(probs) == 1 for _ in range(100))
