import numpy as np
import pytest

from akisub import autodiff as ad
from akisub import nn
from akisub.autodiff import Tape, Tensor, backward
from akisub.errors import ArgumentError, DimensionError, OptimizationError
from oracles import (adam_step_reference, finite_difference_grads, lstm_sequence_reference,
                     max_relative_error, scaled_error)


def _zero_lstm(d, h):
    return nn.LstmParams(
        wx=Tensor(np.zeros((d, 4 * h)), requires_grad=True),
        wh=Tensor(np.zeros((h, 4 * h)), requires_grad=True),
        b=Tensor(np.zeros(4 * h), requires_grad=True),
    )


def test_lstm_cell_zero_params_zero_state():
    params = _zero_lstm(3, 2)
    x = Tensor(np.array([[1.0, -2.0, 0.5]]))
    h = Tensor(np.zeros((1, 2)))
    c = Tensor(np.zeros((1, 2)))
    h2, c2 = nn.lstm_cell(x, h, c, params)
    # zero params: i=f=o=0.5, g=0 -> c'=0.5*c=0, h'=0
    assert np.allclose(c2.data, 0.0)
    assert np.allclose(h2.data, 0.0)

    c_big = Tensor(np.full((1, 2), 8.0))
    _, c3 = nn.lstm_cell(x, h, c_big, params)
    assert np.allclose(c3.data, 4.0)  # f=0.5 halves the carry


def test_lstm_cell_memory_carry_limit():
    d, h = 2, 2
    params = _zero_lstm(d, h)
    b = np.zeros(4 * h)
    b[h:2 * h] = 30.0  # saturate the forget gate
    params = nn.LstmParams(wx=params.wx, wh=params.wh, b=Tensor(b, requires_grad=True))
    c = Tensor(np.full((1, h), 1000.0))
    _, c2 = nn.lstm_cell(Tensor(np.zeros((1, d))), Tensor(np.zeros((1, h))), c, params)
    assert np.allclose(c2.data, 1000.0, rtol=1e-9)


def test_lstm_cell_gate_range_and_shapes():
    rng = np.random.default_rng(5)
    params = nn.init_lstm(rng, 3, 4)
    h2, c2 = nn.lstm_cell(Tensor(rng.normal(size=(6, 3))), Tensor(np.zeros((6, 4))),
                          Tensor(np.zeros((6, 4))), params)
    assert h2.shape == (6, 4) and c2.shape == (6, 4)
    assert np.all(np.abs(h2.data) < 1.0)


def test_lstm_cell_shape_mismatch():
    params = _zero_lstm(3, 2)
    with pytest.raises(DimensionError):
        nn.lstm_cell(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2))),
                     Tensor(np.zeros((1, 2))), params)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    d, h, steps = 3, 4, 3
    params = {
        "wx": nn.uniform_init(rng, d, 4 * h),
        "wh": nn.uniform_init(rng, h, 4 * h),
        "b": nn.uniform_init(rng, 4 * h),
    }
    xs = rng.normal(size=(steps, 2, d))

    def loss_fn(ps):
        lstm = nn.LstmParams(wx=ps["wx"], wh=ps["wh"], b=ps["b"])
        hcur = Tensor(np.zeros((2, h)))
        ccur = Tensor(np.zeros((2, h)))
        for t in range(steps):
            hcur, ccur = nn.lstm_cell(Tensor(xs[t]), hcur, ccur, lstm)
        p = ad.sigmoid(ad.reduce_sum(hcur, axis=1))
        return ad.cross_entropy(p, [1.0, 0.0])

    with Tape() as tape:
        loss = loss_fn(params)
    analytic = backward(tape, loss)
    numeric = finite_difference_grads(lambda ps: loss_fn(ps).item(), params)
    for name, p in params.items():
        assert max_relative_error(analytic[p], numeric[name]) < 1e-4


# ragged, unsorted, with ties and length-1 rows
RAGGED_LENGTHS = [3, 5, 1, 3, 5, 2, 1]


def _sequence_case(seed, d=3, h=4, steps=5):
    rng = np.random.default_rng(seed)
    params = {
        "x": Tensor(rng.normal(size=(len(RAGGED_LENGTHS), steps, d)), requires_grad=True),
        "wx": nn.uniform_init(rng, d, 4 * h),
        "wh": nn.uniform_init(rng, h, 4 * h),
        "b": nn.uniform_init(rng, 4 * h),
    }
    weights = Tensor(rng.normal(size=(len(RAGGED_LENGTHS), h)))

    def loss_fn(ps, layer=nn.lstm_sequence):
        lstm = nn.LstmParams(wx=ps["wx"], wh=ps["wh"], b=ps["b"])
        out = layer(ps["x"], RAGGED_LENGTHS, lstm)
        return ad.reduce_sum(ad.mul(ad.tanh(out), weights))

    return params, loss_fn


def test_lstm_sequence_matches_cell_reference():
    params, loss_fn = _sequence_case(7)
    results = []
    for layer in (nn.lstm_sequence, lstm_sequence_reference):
        with Tape() as tape:
            loss = loss_fn(params, layer)
        grads = backward(tape, loss)
        results.append((loss.item(), {name: grads[p] for name, p in params.items()}))
    (loss, grads), (ref_loss, ref_grads) = results
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for name in params:
        assert scaled_error(grads[name], ref_grads[name]) < 1e-12, name
    # rows are independent: padding past a row's length is never read
    x_pad = params["x"].data.copy()
    for r, n in enumerate(RAGGED_LENGTHS):
        x_pad[r, n:] = 1e3
    lstm = nn.LstmParams(params["wx"], params["wh"], params["b"])
    assert np.array_equal(nn.lstm_sequence(Tensor(x_pad), RAGGED_LENGTHS, lstm).data,
                          nn.lstm_sequence(params["x"], RAGGED_LENGTHS, lstm).data)


def test_lstm_sequence_gradients_match_finite_differences():
    params, loss_fn = _sequence_case(8)
    with Tape() as tape:
        loss = loss_fn(params)
    analytic = backward(tape, loss)
    numeric = finite_difference_grads(lambda ps: loss_fn(ps).item(), params)
    for name, p in params.items():
        assert max_relative_error(analytic[p], numeric[name]) < 1e-4, name


def test_lstm_sequence_without_grad_records_nothing():
    params, _ = _sequence_case(10)
    frozen = {name: Tensor(p.data) for name, p in params.items()}
    lstm = nn.LstmParams(frozen["wx"], frozen["wh"], frozen["b"])
    with Tape() as tape:
        out = nn.lstm_sequence(frozen["x"], RAGGED_LENGTHS, lstm)
    assert len(tape) == 0 and not out.requires_grad
    ref = lstm_sequence_reference(frozen["x"], RAGGED_LENGTHS, lstm)
    assert np.max(np.abs(out.data - ref.data)) < 1e-12


@pytest.mark.parametrize("lengths", [[0, 2], [2, 4], [-1, 1]])
def test_lstm_sequence_rejects_lengths_outside_range(lengths):
    lstm = _zero_lstm(3, 2)
    with pytest.raises(ArgumentError):
        nn.lstm_sequence(Tensor(np.zeros((2, 3, 3))), lengths, lstm)


def test_lstm_sequence_shape_mismatch():
    lstm = _zero_lstm(3, 2)
    with pytest.raises(DimensionError):
        nn.lstm_sequence(Tensor(np.zeros((2, 3, 4))), [1, 1], lstm)
    with pytest.raises(DimensionError):
        nn.lstm_sequence(Tensor(np.zeros((2, 3, 3))), [1, 1, 1], lstm)


def test_adam_zero_gradient_is_identity():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = nn.Adam(lr=0.1)
    p2 = opt.step({"p": p}, {p: np.zeros(3)})["p"]
    assert np.array_equal(p2.data, p.data)
    assert opt.updates["p"] == 1
    assert np.all(opt.moments["p"][1] >= 0)


def test_adam_single_step_hand_value():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p2 = nn.Adam(lr=0.01).step({"p": p}, {p: np.array([1.0])})["p"]
    # bias-corrected m_hat/sqrt(s_hat) = 1 -> delta = -lr
    assert p2.data[0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_constant_gradient_limit():
    params = {"p": Tensor(np.array([0.0]), requires_grad=True)}
    opt = nn.Adam(lr=0.01)
    prev = params["p"].data.copy()
    step_size = None
    for _ in range(400):
        params = opt.step(params, {params["p"]: np.array([2.5])})
        step_size = prev - params["p"].data
        prev = params["p"].data.copy()
    assert step_size[0] == pytest.approx(0.01, rel=1e-3)  # approaches lr * sign(g)


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(OptimizationError, match="badparam"):
        nn.Adam(lr=0.01).step({"badparam": p}, {p: np.array([np.nan])})


def test_adam_rejects_bad_lr_and_shape():
    with pytest.raises(OptimizationError, match="lr must be positive"):
        nn.Adam(lr=0.0)
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(DimensionError, match="'w'"):
        nn.Adam(lr=0.01).step({"w": p}, {p: np.zeros(4)})


def test_adam_skips_a_parameter_without_gradient():
    a, b = (Tensor(np.ones(2), requires_grad=True) for _ in range(2))
    opt = nn.Adam(lr=0.1)
    out = opt.step({"a": a, "b": b}, {a: np.ones(2)})
    assert out["b"] is b and "b" not in opt.updates and opt.updates["a"] == 1


def test_adam_in_place_matches_out_of_place_reference_bitwise():
    rng = np.random.default_rng(5)
    shape = (7, 12)
    params = {"p": Tensor(rng.normal(size=shape), requires_grad=True)}
    opt = nn.Adam(lr=0.003)
    ref_p, ref_m, ref_s = params["p"].data.copy(), np.zeros(shape), np.zeros(shape)
    for k in range(20):
        g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=shape)
        params = opt.step(params, {params["p"]: g})
        ref_p, ref_m, ref_s = adam_step_reference(ref_p, g, ref_m, ref_s, k, lr=0.003)
        m, s = opt.moments["p"]
        if k == 0:
            first_m, first_s = m, s
        assert opt.updates["p"] == k + 1
        assert params["p"].data.tobytes() == ref_p.tobytes()
        assert m.tobytes() == ref_m.tobytes()
        assert s.tobytes() == ref_s.tobytes()
    assert m is first_m and s is first_s  # moments updated in place


def test_adam_optimizer_converges_on_quadratic():
    rng = np.random.default_rng(2)
    target = rng.normal(size=4)
    params = {"w": Tensor(np.zeros(4), requires_grad=True)}
    opt = nn.Adam(lr=0.05)
    for _ in range(500):
        with Tape() as tape:
            diff = ad.add(params["w"], Tensor(-target))
            loss = ad.reduce_sum(ad.mul(diff, diff))
        grads = backward(tape, loss)
        params = opt.step(params, grads)
    assert np.allclose(params["w"].data, target, atol=1e-3)


def test_init_lstm_forget_bias():
    params = nn.init_lstm(np.random.default_rng(0), 3, 5)
    assert np.all(params.b.data[5:10] == nn.FORGET_BIAS)
    assert np.all(np.abs(params.wx.data) <= nn.INIT_SCALE)
