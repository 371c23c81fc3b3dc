import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akisub import autodiff as ad
from akisub.autodiff import Tape, Tensor, backward
from akisub.errors import ArgumentError, DimensionError
from oracles import exp, finite_difference_grads, max_relative_error


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ad.matmul(eye, m).data, m.data)


def test_matmul_1x1():
    assert ad.matmul(Tensor([[2.0]]), Tensor([[3.0]])).data[0, 0] == 6.0


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    # hand evaluation of the definition
    assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_symmetry_and_shift():
    assert np.allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    for c in (-7.0, 0.0, 3.5):
        assert np.allclose(ad.softmax(Tensor([c, c, c])).data, [1 / 3] * 3)


def test_softmax_closed_form():
    y = ad.softmax(Tensor([1.0, 2.0, 3.0])).data
    e = np.exp([1.0, 2.0, 3.0])
    assert np.allclose(y, e / e.sum())
    assert np.allclose(y, [0.09003057, 0.24472847, 0.66524096])


def test_softmax_empty_input():
    with pytest.raises(ArgumentError):
        ad.softmax(Tensor(np.zeros(0)))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
       st.floats(min_value=-30, max_value=30))
def test_softmax_probability_vector_and_shift_invariance(vals, shift):
    y = ad.softmax(Tensor(vals)).data
    assert np.all(y > 0)
    assert abs(y.sum() - 1.0) <= 1e-12
    y2 = ad.softmax(Tensor(np.asarray(vals) + shift)).data
    assert np.allclose(y, y2, atol=1e-12)


def test_softmax_extreme_inputs_stay_finite():
    y = ad.softmax(Tensor([1e4, -1e4, 0.0])).data
    assert np.all(np.isfinite(y)) and abs(y.sum() - 1.0) <= 1e-12


def test_cross_entropy_values():
    assert ad.cross_entropy(Tensor(1.0 - 1e-12), [1.0]).item() == pytest.approx(0.0, abs=1e-9)
    assert ad.cross_entropy(Tensor(0.5), [0.0]).item() == pytest.approx(np.log(2.0))
    assert ad.cross_entropy(Tensor(0.9), [0.0]).item() == pytest.approx(-np.log(0.1))


def test_cross_entropy_batch_sum():
    p = Tensor([0.9, 0.5])
    total = ad.cross_entropy(p, [1.0, 0.0]).item()
    assert total == pytest.approx(-np.log(0.9) + np.log(2.0))


def test_cross_entropy_bad_label():
    with pytest.raises(ArgumentError):
        ad.cross_entropy(Tensor(0.5), [2.0])


def test_backward_identity_and_product_rule():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        loss = ad.mul(x, y)
    grads = backward(tape, loss)
    assert grads[x] == pytest.approx(3.0)
    assert grads[y] == pytest.approx(2.0)

    x2 = Tensor(5.0, requires_grad=True)
    with Tape() as tape2:
        pass
    grads2 = backward(tape2, x2)
    assert grads2[x2] == pytest.approx(1.0)

    # the replayed tape is emptied; only the leaves' and the loss's gradients remain
    with Tape() as tape3:
        xy = ad.mul(x, y)
        loss3 = ad.mul(xy, xy)
    grads3 = backward(tape3, loss3)
    assert len(tape3) == 0
    assert xy not in grads3
    assert set(map(id, grads3)) == {id(x), id(y), id(loss3)}
    assert (grads3[x], grads3[y], grads3[loss3]) == (36.0, 24.0, 1.0)


def test_backward_requires_scalar():
    v = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad.mul(v, v)
    with pytest.raises(ArgumentError):
        backward(tape, out)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def run():
        with Tape() as tape:
            y = ad.reduce_sum(ad.tanh(ad.matmul(a, b)))
        return backward(tape, y)

    g1, g2 = run(), run()
    assert np.array_equal(g1[a], g2[a]) and np.array_equal(g1[b], g2[b])


def _composite_loss(params):
    # small composite net: matmul, broadcast add, sigmoid/tanh/softmax, gather, concat
    x = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
    h = ad.tanh(ad.add(ad.matmul(Tensor(x), params["w1"]), params["b1"]))
    h2 = ad.sigmoid(ad.matmul(h, params["w2"]))
    att = ad.softmax(h2)
    row = ad.gather_rows(params["table"], [1, 0])
    joined = ad.concat([att, row], axis=1)
    p = ad.sigmoid(ad.reduce_sum(joined, axis=1))
    return ad.cross_entropy(p, [1.0, 0.0])


def test_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = {
        "w1": Tensor(rng.uniform(-0.5, 0.5, (3, 4)), requires_grad=True),
        "b1": Tensor(rng.uniform(-0.5, 0.5, 4), requires_grad=True),
        "w2": Tensor(rng.uniform(-0.5, 0.5, (4, 4)), requires_grad=True),
        "table": Tensor(rng.uniform(-0.5, 0.5, (3, 4)), requires_grad=True),
    }
    with Tape() as tape:
        loss = _composite_loss(params)
    analytic = backward(tape, loss)
    numeric = finite_difference_grads(lambda ps: _composite_loss(ps).item(), params)
    for name, p in params.items():
        assert max_relative_error(analytic[p], numeric[name]) < 1e-4


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_primitive_gradients_match_finite_differences(rows, cols, seed):
    rng = np.random.default_rng(seed)
    params = {"a": Tensor(rng.uniform(-1, 1, (rows, cols)), requires_grad=True)}

    def loss_fn(ps):
        z = ad.mul(exp(ad.mul(ps["a"], 0.3)), ad.sigmoid(ps["a"]))
        return ad.reduce_sum(ad.softmax(z))

    with Tape() as tape:
        loss = loss_fn(params)
    analytic = backward(tape, loss)
    numeric = finite_difference_grads(lambda ps: loss_fn(ps).item(), params)
    assert max_relative_error(analytic[params["a"]], numeric["a"]) < 1e-4


def test_values_finite_after_public_ops():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-30, 30, (5, 5)))
    for out in (ad.softmax(a), ad.sigmoid(a), ad.tanh(a), exp(ad.clip(a, -20, 20)),
                ad.log(ad.clip(ad.sigmoid(a), 1e-12, 1.0))):
        assert np.all(np.isfinite(out.data))


def test_slice_and_reshape_roundtrip_gradient():
    v = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        part = ad.slice_axis(v, 1, 3, axis=1)
        loss = ad.reduce_sum(ad.mul(ad.reshape(part, (6,)), 2.0))
    grads = backward(tape, loss)
    expected = np.zeros((3, 4))
    expected[:, 1:3] = 2.0
    assert np.array_equal(grads[v], expected)


def _seeded_grad(seed, barrier=None):
    """d(loss)/dw of a 40-op recorded chain over a seeded w, after `barrier`."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(scale=0.5, size=(6, 6)), requires_grad=True)
    h = Tensor(rng.normal(size=(4, 6)))
    if barrier is not None:
        barrier.wait(timeout=30)
    with Tape() as tape:
        for _ in range(20):
            h = ad.tanh(ad.matmul(h, w))
        loss = ad.reduce_sum(h)
    return backward(tape, loss)[w]


def test_threads_record_and_backpropagate_concurrently():
    n_threads = 4  # more threads than cores, switching as often as possible
    serial = [_seeded_grad(seed) for seed in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def run(seed):
        try:
            results[seed] = _seeded_grad(seed, barrier)
        except Exception as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


def _in_thread(fn):
    """Run `fn` in a new thread and return its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def test_open_tape_records_no_other_threads_ops():
    w = Tensor(np.eye(2), requires_grad=True)

    def other_thread():
        untaped = ad.matmul(w, w)
        with Tape() as own:
            ad.matmul(w, w)
        return untaped.requires_grad, len(own)

    with Tape() as tape:
        assert _in_thread(other_thread) == (False, 1)
        ad.matmul(w, w)
    assert len(tape) == 1


def test_recording_is_false_in_a_thread_without_a_tape():
    w = Tensor(np.eye(2), requires_grad=True)
    with Tape():
        assert ad.recording([w])
        assert _in_thread(lambda: ad.recording([w])) is False
