"""AdamW against a hand-computed scalar oracle, clipping exactness, and
bitwise paging transparency."""

import os

import numpy as np
import pytest

from tinypeft.errors import ConfigError, NumericError, StateError
from tinypeft.optim import AdamW, PageTable, clip_global_norm
from tinypeft.tensor import Parameter


def scalar_adamw_oracle(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Independent f64 reference for a single scalar parameter."""
    w, m, v = float(w0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
        w -= lr * wd * w
    return w


def test_adamw_matches_scalar_oracle():
    p = Parameter(np.array([0.5], dtype=np.float32), "w")
    opt = AdamW([p])
    grads = [0.3, -0.1, 0.7, 0.05, -0.4]
    for g in grads:
        p.grad = np.array([g], dtype=np.float32)
        opt.step(1e-2)
    want = scalar_adamw_oracle(0.5, grads, 1e-2)
    assert abs(float(p.data[0]) - want) < 1e-6


def test_adamw_weight_decay_is_decoupled():
    p = Parameter(np.array([2.0], dtype=np.float32), "w")
    opt = AdamW([p], weight_decay=0.1)
    p.grad = np.array([0.0], dtype=np.float32)
    opt.step(1e-2)
    # zero grad means the only movement is the decay term
    want = scalar_adamw_oracle(2.0, [0.0], 1e-2, wd=0.1)
    assert abs(float(p.data[0]) - want) < 1e-7


def test_adamw_first_step_is_lr_signed_grad():
    # with bias correction, step 1 moves by ~lr * sign(g)
    p = Parameter(np.array([0.0], dtype=np.float32), "w")
    opt = AdamW([p])
    p.grad = np.array([0.123], dtype=np.float32)
    opt.step(1e-3)
    assert abs(float(p.data[0]) + 1e-3) < 1e-8


def test_adamw_missing_grad_raises():
    p = Parameter(np.zeros(2, np.float32), "w")
    opt = AdamW([p])
    with pytest.raises(StateError, match="w"):
        opt.step(1e-3)


def test_adamw_skips_frozen_params():
    p, q = Parameter(np.zeros(2, np.float32), "a"), Parameter(np.zeros(2, np.float32), "b")
    q.freeze()
    opt = AdamW([p, q])
    assert [x.name for x in opt.params] == ["a"]


def test_clip_scales_to_max_norm():
    p = Parameter(np.zeros(2, np.float32), "w")
    p.grad = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
    factor = clip_global_norm([p], 2.5)
    assert abs(factor - 0.5) < 1e-6
    assert abs(np.linalg.norm(p.grad) - 2.5) < 1e-6


def test_clip_noop_inside_threshold():
    p = Parameter(np.zeros(2, np.float32), "w")
    g = np.array([0.1, 0.2], dtype=np.float32)
    p.grad = g.copy()
    assert clip_global_norm([p], 1.0) == 1.0
    np.testing.assert_array_equal(p.grad, g)


def test_clip_is_idempotent():
    p = Parameter(np.zeros(1000, np.float32), "w")
    p.grad = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
    clip_global_norm([p], 0.3)
    once = p.grad.copy()
    assert clip_global_norm([p], 0.3) == 1.0
    np.testing.assert_array_equal(p.grad, once)


def test_clip_global_across_params():
    a, b = Parameter(np.zeros(1, np.float32), "a"), Parameter(np.zeros(1, np.float32), "b")
    a.grad = np.array([3.0], dtype=np.float32)
    b.grad = np.array([4.0], dtype=np.float32)
    clip_global_norm([a, b], 1.0)
    total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert abs(total - 1.0) < 1e-6


def test_clip_rejects_bad_max_norm():
    with pytest.raises(ConfigError):
        clip_global_norm([], 0.0)


def test_clip_rejects_nonfinite_gradient_unscaled():
    a, b = Parameter(np.zeros(2, np.float32), "a"), Parameter(np.zeros(2, np.float32), "b")
    a.grad = np.array([30.0, 40.0], dtype=np.float32)
    b.grad = np.array([1.0, np.inf], dtype=np.float32)
    with pytest.raises(NumericError, match="'b'"):
        clip_global_norm([a, b], 1.0)
    np.testing.assert_array_equal(a.grad, [30.0, 40.0])


def test_clip_ignores_none_grads():
    p = Parameter(np.zeros(2, np.float32), "w")
    assert clip_global_norm([p], 1.0) == 1.0


# -- paging -------------------------------------------------------------------


def test_page_table_roundtrip_and_evictions(tmp_path):
    pt = PageTable(str(tmp_path), budget=2, shapes={f"p{i}": (4,) for i in range(5)})
    arrays = {f"p{i}": (np.full(4, i, np.float32), np.full(4, -i, np.float32))
              for i in range(5)}
    for name, (m, v) in arrays.items():
        pt.put(name, m, v)
    assert pt.evictions >= 3
    for name, (m, v) in arrays.items():
        got_m, got_v = pt.get(name)
        np.testing.assert_array_equal(got_m, m)
        np.testing.assert_array_equal(got_v, v)


def test_page_table_flush_sees_everything(tmp_path):
    pt = PageTable(str(tmp_path), budget=1, shapes={f"p{i}": (2,) for i in range(4)})
    for i in range(4):
        pt.put(f"p{i}", np.full(2, i, np.float32), np.zeros(2, np.float32))
    flushed = pt.flush()
    assert set(flushed) == {f"p{i}" for i in range(4)}


def test_page_table_budget_validation(tmp_path):
    with pytest.raises(ConfigError):
        PageTable(str(tmp_path), budget=0, shapes={})


def test_page_table_keeps_every_page_in_one_slab(tmp_path):
    shapes = {"a": (2, 3), "b": (5,), "c": ()}
    pt = PageTable(str(tmp_path), budget=1, shapes=shapes)
    for i, (name, shape) in enumerate(shapes.items()):
        pt.put(name, np.full(shape, i, np.float32), np.full(shape, -i, np.float32))
    assert os.listdir(tmp_path) == ["moments.f32"]
    # 6 + 5 + 1 elements, an m and a v each
    assert os.path.getsize(tmp_path / "moments.f32") == 2 * 12 * 4
    for i, (name, shape) in enumerate(shapes.items()):
        m, v = pt.get(name)
        assert m.shape == shape and type(m) is np.ndarray
        np.testing.assert_array_equal(m, np.full(shape, i, np.float32))
        np.testing.assert_array_equal(v, np.full(shape, -i, np.float32))


def test_page_table_ignores_an_earlier_tables_pages(tmp_path):
    old = PageTable(str(tmp_path), budget=1, shapes={"old.a": (3,), "old.b": (3,)})
    for name in ("old.a", "old.b"):
        old.put(name, np.ones(3, np.float32), np.ones(3, np.float32))
    np.savez(tmp_path / "older.c.npz", m=np.ones(1, np.float32), v=np.ones(1, np.float32))

    new = PageTable(str(tmp_path), budget=1, shapes={"w": (2,), "u": (2,)})
    new.put("w", np.full(2, 3.0, np.float32), np.zeros(2, np.float32))
    new.put("u", np.full(2, 4.0, np.float32), np.zeros(2, np.float32))
    flushed = new.flush()
    assert set(flushed) == {"w", "u"}
    np.testing.assert_array_equal(flushed["w"][0], [3.0, 3.0])
    # the earlier table still reads its own slab, not the new one
    np.testing.assert_array_equal(old.get("old.a")[0], np.ones(3, np.float32))


def test_paged_eviction_count_follows_lru(tmp_path):
    """16 pages over a budget of 8, touched in the same order every step:
    the first 8 evictions happen at enable time, then every get misses."""
    params = [Parameter(np.zeros(3, np.float32), f"p{i}") for i in range(16)]
    opt = AdamW(params)
    opt.enable_paging(str(tmp_path), budget=8)
    assert opt.evictions == 8
    for step in range(1, 4):
        for p in params:
            p.grad = np.ones(3, np.float32)
        opt.step(1e-3)
        assert opt.evictions == 8 + 16 * step


def test_paged_adamw_bitwise_equals_unpaged(tmp_path):
    def run(paged: bool):
        rng = np.random.default_rng(5)
        params = [Parameter(rng.standard_normal(16).astype(np.float32), f"p{i}")
                  for i in range(6)]
        opt = AdamW(params)
        if paged:
            opt.enable_paging(str(tmp_path / "scratch"), budget=1)
        for step in range(10):
            grng = np.random.default_rng(100 + step)
            for p in params:
                p.grad = grng.standard_normal(16).astype(np.float32)
            opt.step(1e-3)
        return [p.data.copy() for p in params], opt.evictions, opt.state_tensors()

    plain, _, plain_state = run(False)
    paged, evictions, paged_state = run(True)
    assert evictions > 0
    for a, b in zip(plain, paged):
        np.testing.assert_array_equal(a, b)
    assert set(plain_state) == set(paged_state)
    for name, a in plain_state.items():
        assert a.tobytes() == paged_state[name].tobytes()


def test_state_tensors_roundtrip():
    p = Parameter(np.ones(4, np.float32), "w")
    opt = AdamW([p])
    p.grad = np.full(4, 0.5, np.float32)
    opt.step(1e-3)
    state = {k: v.copy() for k, v in opt.state_tensors().items()}
    assert set(state) == {"optim.m.w", "optim.v.w"}

    fresh = AdamW([Parameter(np.ones(4, np.float32), "w")])
    fresh.load_state_tensors(state, opt.step_count)
    assert fresh.step_count == 1
    for k, v in fresh.state_tensors().items():
        np.testing.assert_array_equal(v, state[k])
