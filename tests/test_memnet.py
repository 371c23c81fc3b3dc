import hashlib
import json
import pickle
import time
import zipfile

import numpy as np
import pytest

from akisub import memnet, nn
from akisub.autodiff import Tape, Tensor, backward
from akisub.errors import ArgumentError, DimensionError, ParseError, TrainingError
from akisub.memnet import (HyperConfig, PreparedStay, TrainResult, batch_loss, embed_stays,
                           encode_notes_batch, forward_batch, init_params, memory_read_batch,
                           multi_hop_batch, predict_stays, train)
from oracles import (batched_rows_reference, finite_difference_grads, lstm_sequence_reference,
                     max_relative_error, memnet_train_reference, params_checksum,
                     scaled_error)

MICRO = HyperConfig(memory_size=4, emb_dim=8, bottom_hidden=5, top_hidden=8,
                    word_emb_dim=6, static_proj_dim=4, hops=2, batch_size=4,
                    lr=0.05, epochs=0, max_note_len=6, seed=0)
VOCAB = 12
# SHA-256 of the checkpoint TestCheckpoint.test_file_bytes_are_pinned writes
CHECKPOINT_SHA256 = "477fe68cfecff7a38a54e40cad27cf22d27e7deb76a4824c6d3c89aa2ef05f6d"


def micro_params(seed=0, hyper=MICRO):
    rng = np.random.default_rng(seed)
    return init_params(rng, hyper, VOCAB, feature_dim=3, static_dim=20)


def micro_batch(seed=0, n=4, hyper=MICRO, d=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        seqs = [list(rng.integers(1, VOCAB, size=rng.integers(1, 5)))
                for _ in range(rng.integers(0, 4))]
        out.append(PreparedStay(
            stay_id=f"s{i}",
            tensor=rng.uniform(size=(hyper.memory_size, d)),
            static=rng.uniform(size=20),
            note_seqs=[[int(t) for t in s] for s in seqs],
            label=int(i % 2),
        ))
    return out


def packed_and_reference(fn):
    """fn() with the packed LSTM layer, then with the per-step lstm_cell reference."""
    packed = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "lstm_sequence", lstm_sequence_reference)
        return packed, fn()


def encode_one(params, note_seqs):
    return encode_notes_batch(params, [note_seqs], MICRO).data[0]


class TestEncodeNotes:
    def test_single_one_token_note_structural_identity(self):
        params = micro_params()
        u = encode_one(params, [[3]])
        bottom = nn.LstmParams(params["bottom_wx"], params["bottom_wh"], params["bottom_b"])
        top = nn.LstmParams(params["top_wx"], params["top_wh"], params["top_b"])
        x = Tensor(params["word_emb"].data[[3]])
        h1, _ = nn.lstm_cell(x, Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 5))), bottom)
        h2, _ = nn.lstm_cell(h1, Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))), top)
        assert np.allclose(u, h2.data[0], atol=1e-12)

    def test_note_order_sensitivity(self):
        params = micro_params(3)
        a = encode_one(params, [[1, 2], [5], [7, 8, 9]])
        b = encode_one(params, [[7, 8, 9], [5], [1, 2]])
        assert not np.allclose(a, b)

    def test_zero_parameters_give_zero_query(self):
        params = {k: Tensor(np.zeros_like(v.data), requires_grad=True)
                  for k, v in micro_params().items()}
        u = encode_one(params, [[1, 2, 3], [4]])
        assert np.allclose(u, 0.0)

    def test_zero_notes_use_null_note(self):
        params = micro_params(5)
        u_empty = encode_one(params, [])
        # manually: top LSTM one step over the null-note vector
        top = nn.LstmParams(params["top_wx"], params["top_wh"], params["top_b"])
        h, _ = nn.lstm_cell(Tensor(params["null_note"].data),
                            Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))), top)
        assert np.allclose(u_empty, h.data[0], atol=1e-12)


    def test_empty_note_sequence_rejected(self):
        with pytest.raises(ArgumentError):
            encode_one(micro_params(), [[1, 2], []])


class TestPackedLstmParity:
    """From identical parameters, the packed layer reproduces the per-step
    lstm_cell composition up to the rounding of reordered sums."""

    def test_batch_loss_gradients(self):
        params = micro_params(12)
        batch = micro_batch(14, n=12)

        def loss_and_grads():
            with Tape() as tape:
                loss = batch_loss(params, batch, MICRO)
            nodes = len(tape)  # backward empties the tape
            grads = backward(tape, loss)
            return loss.item(), {name: grads[p] for name, p in params.items()}, nodes

        (loss, grads, nodes), (ref_loss, ref_grads, ref_nodes) = \
            packed_and_reference(loss_and_grads)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name in params:
            assert scaled_error(grads[name], ref_grads[name]) < 1e-12, name
        assert nodes < 50 < ref_nodes

    def test_forward_outputs(self):
        batch = micro_batch(15, n=12)
        result = TrainResult(micro_params(16), [], MICRO)
        (rows, probs), (ref_rows, ref_probs) = packed_and_reference(
            lambda: (embed_stays(result, batch), predict_stays(result, batch)))
        assert np.max(np.abs(rows - ref_rows)) < 1e-12
        assert np.max(np.abs(probs - ref_probs)) < 1e-12

    def test_first_epoch_loss(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
        batch = micro_batch(17, n=12)
        loss, ref = packed_and_reference(lambda: train(batch, hyper, VOCAB).loss_history[0])
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_no_lstm_cell_calls(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("nn.lstm_cell called")

        monkeypatch.setattr(nn, "lstm_cell", forbidden)
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
        batch = micro_batch(18, n=6)
        embed_stays(train(batch, hyper, VOCAB), batch)


def read_one(params, u, tensor):
    """alpha and o of one attention read over a single stay tensor (t, d)."""
    alpha, o = memory_read_batch(params, Tensor(u[None, :]), tensor[None])
    return alpha.data[0], o.data[0]


def hops_one(params, u, tensor, hops):
    """u_final, last alpha and last o of `hops` reads over one stay tensor."""
    u_t, alpha, o = multi_hop_batch(params, Tensor(u[None, :]), tensor[None], hops)
    return u_t.data[0], alpha.data[0], o.data[0]


class TestMemoryRead:
    def test_identical_rows_uniform_attention(self):
        params = micro_params(1)
        tensor = np.tile(np.array([[0.2, 0.5, 0.9]]), (4, 1))
        alpha, o = read_one(params, np.random.default_rng(0).normal(size=8), tensor)
        assert np.allclose(alpha, 0.25)
        assert np.allclose(o, tensor[0] @ params["B"].data, atol=1e-12)

    def test_single_slot(self):
        params = micro_params(1)
        tensor = np.array([[0.1, 0.2, 0.3]])
        alpha, o = read_one(params, np.ones(8), tensor)
        assert np.allclose(alpha, [1.0])
        assert np.allclose(o, tensor[0] @ params["B"].data)

    def test_alpha_is_probability_vector(self):
        params = micro_params(2)
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha, _ = read_one(params, rng.normal(size=8), rng.uniform(size=(6, 3)))
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_temperature_limit_concentrates_on_argmax(self):
        params = micro_params(4)
        rng = np.random.default_rng(1)
        u = rng.normal(size=8)
        tensor = rng.uniform(size=(5, 3))
        j = int(np.argmax(tensor @ params["A"].data @ u))
        alpha_hot, _ = read_one(params, 5000.0 * u, tensor)
        assert np.argmax(alpha_hot) == j
        assert alpha_hot[j] > 0.999

    def test_scaling_query_preserves_argmax(self):
        params = micro_params(4)
        rng = np.random.default_rng(2)
        u = rng.normal(size=8)
        tensor = rng.uniform(size=(5, 3))
        base = np.argmax(read_one(params, u, tensor)[0])
        for c in (0.1, 2.0, 50.0):
            assert np.argmax(read_one(params, c * u, tensor)[0]) == base

    def test_row_count_mismatch(self):
        params = micro_params(1)
        batch = micro_batch()
        batch[0].tensor = np.zeros((7, 3))
        with pytest.raises(DimensionError):
            memnet.forward_batch(params, batch[:1], MICRO)


class TestMultiHop:
    def test_single_hop_is_h_u_plus_o(self):
        params = micro_params(6)
        rng = np.random.default_rng(3)
        u = rng.normal(size=8)
        tensor = rng.uniform(size=(4, 3))
        alpha1, o1 = read_one(params, u, tensor)
        u1, alpha, _ = hops_one(params, u, tensor, hops=1)
        assert np.allclose(u1, u @ params["H"].data + o1, atol=1e-12)
        assert np.allclose(alpha, alpha1)

    def test_identity_fixed_point_with_zero_output_memory(self):
        params = micro_params(6)
        params["H"] = Tensor(np.eye(8), requires_grad=True)
        params["B"] = Tensor(np.zeros((3, 8)), requires_grad=True)
        u = np.random.default_rng(4).normal(size=8)
        tensor = np.random.default_rng(5).uniform(size=(4, 3))
        for hops in (1, 2, 3):
            u_out, _, _ = hops_one(params, u, tensor, hops)
            assert np.allclose(u_out, u, atol=1e-12)

    def test_two_hops_match_manual_unroll(self):
        params = micro_params(7)
        rng = np.random.default_rng(6)
        u = rng.normal(size=8)
        tensor = rng.uniform(size=(4, 3))
        u_out, _, _ = hops_one(params, u, tensor, hops=2)
        cur = u
        for _ in range(2):
            cur = cur @ params["H"].data + read_one(params, cur, tensor)[1]
        assert np.allclose(u_out, cur, atol=1e-12)

    def test_rejects_zero_hops(self):
        params = micro_params(7)
        with pytest.raises(ArgumentError):
            hops_one(params, np.zeros(8), np.zeros((4, 3)), hops=0)

    def test_layer_tying_is_structural(self):
        params = micro_params(0)
        assert sum(1 for k in params if k in ("A", "B")) == 2  # one A, one B total


def one_stay(seed=0, hyper=MICRO, d=3, static_dim=20):
    rng = np.random.default_rng(seed)
    return PreparedStay("s", rng.uniform(size=(hyper.memory_size, d)),
                        rng.uniform(size=static_dim), [[1, 2], [3]], label=1)


class TestFuseAndPredict:
    """The fused representation v = concat(u_final + o, static W_s) and the
    softmax head, through `forward_batch` on a batch of one stay."""

    def test_zero_static_pads_with_zeros(self):
        params = micro_params(1)
        stay = one_stay(1)
        stay.static = np.zeros(20)
        _, v = forward_batch(params, [stay], MICRO)
        u0 = encode_notes_batch(params, [stay.note_seqs], MICRO)
        u_final, _, o = multi_hop_batch(params, u0, stay.tensor[None], MICRO.hops)
        assert v.shape == (1, 12)
        assert np.array_equal(v.data[0, :8], (u_final.data + o.data)[0])
        assert np.allclose(v.data[0, 8:], 0.0)

    def test_default_dims_give_144(self):
        hyper = HyperConfig()
        hyper.validate()
        assert hyper.representation_dim == 144
        rng = np.random.default_rng(0)
        params = init_params(rng, hyper, vocab_size=30, feature_dim=21, static_dim=20)
        _, v = forward_batch(params, [one_stay(2, hyper, d=21)], hyper)
        assert v.shape == (1, 144)

    def test_static_perturbation_only_touches_static_block(self):
        params = micro_params(2)
        stay = one_stay(9)
        _, v0 = forward_batch(params, [stay], MICRO)
        stay.static = stay.static.copy()
        stay.static[5] += 1.0
        _, v1 = forward_batch(params, [stay], MICRO)
        assert np.array_equal(v0.data[0, :8], v1.data[0, :8])
        assert not np.array_equal(v0.data[0, 8:], v1.data[0, 8:])

    def test_predict_uninformative_weights(self):
        params = micro_params(3)
        stay = one_stay(0)
        params["w_out"] = Tensor(np.zeros((12, 2)), requires_grad=True)
        assert np.allclose(forward_batch(params, [stay], MICRO)[0].data, [[0.5, 0.5]])
        column = np.random.default_rng(1).normal(size=(12, 1))
        params["w_out"] = Tensor(np.tile(column, (1, 2)), requires_grad=True)
        assert np.allclose(forward_batch(params, [stay], MICRO)[0].data, [[0.5, 0.5]])

    def test_predict_matches_direct_softmax(self):
        params = micro_params(4)
        probs, v = forward_batch(params, [one_stay(2)], MICRO)
        logits = v.data[0] @ params["w_out"].data
        e = np.exp(logits - logits.max())
        assert np.allclose(probs.data[0], e / e.sum())
        assert probs.data[0].sum() == pytest.approx(1.0)


class TestTraining:
    def test_end_to_end_gradients_match_finite_differences(self):
        params = micro_params(11)
        batch = micro_batch(13)

        def loss_fn(ps):
            return batch_loss(ps, batch, MICRO).item()

        with Tape() as tape:
            loss = batch_loss(params, batch, MICRO)
        analytic = backward(tape, loss)
        numeric = finite_difference_grads(loss_fn, params)
        for name, p in params.items():
            err = max_relative_error(analytic[p], numeric[name])
            assert err < 1e-4, f"{name}: rel err {err:.2e}"

    def test_epochs_zero_returns_initialization(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 0})
        batch = micro_batch(1)
        result = train(batch, hyper, vocab_size=VOCAB)
        fresh = init_params(np.random.default_rng(hyper.seed), hyper, VOCAB, 3, 20)
        assert params_checksum(result.params) == params_checksum(fresh)
        assert result.loss_history == []

    def test_separable_toy_converges(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 50, "lr": 0.05})
        rng = np.random.default_rng(0)
        a = PreparedStay("a", np.full((4, 3), 0.9), np.ones(20), [[1, 1]], label=1)
        b = PreparedStay("b", np.full((4, 3), 0.1), np.zeros(20), [[2, 2]], label=0)
        result = train([a, b], hyper, vocab_size=VOCAB)
        assert result.loss_history[-1] < 0.1

    def test_fixed_seed_bit_identical_history(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 3})
        batch = micro_batch(21, n=6)
        r1 = train(batch, hyper, vocab_size=VOCAB)
        r2 = train(batch, hyper, vocab_size=VOCAB)
        assert r1.loss_history == r2.loss_history
        assert params_checksum(r1.params) == params_checksum(r2.params)

    def test_fit_updates_params_in_place(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
        params = micro_params(3)
        initial = {name: t.data for name, t in params.items()}
        result = memnet.fit(micro_batch(4), hyper, params, batch_loss,
                            np.random.default_rng(0))
        assert result.params is params
        assert all(params[name].data is not initial[name] for name in params)

    def test_single_class_rejected(self):
        batch = micro_batch(2)
        for s in batch:
            s.label = 1
        with pytest.raises(TrainingError):
            train(batch, MICRO, vocab_size=VOCAB)

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            train([], MICRO, vocab_size=VOCAB)


class TestEmbed:
    def test_shape_duplicates_and_purity(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
        batch = micro_batch(31, n=5)
        batch[3] = PreparedStay("dup", batch[1].tensor.copy(), batch[1].static.copy(),
                                [list(s) for s in batch[1].note_seqs], label=batch[1].label)
        result = train(batch, hyper, vocab_size=VOCAB)
        before = params_checksum(result.params)
        rows = embed_stays(result, batch)
        assert rows.shape == (5, hyper.representation_dim)
        assert np.allclose(rows[1], rows[3], atol=1e-12)
        assert params_checksum(result.params) == before
        probs = predict_stays(result, batch)
        assert np.all((probs > 0) & (probs < 1))

    def test_checkpoint_round_trip(self, tmp_path):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
        batch = micro_batch(41, n=4)
        result = train(batch, hyper, vocab_size=VOCAB)
        path = tmp_path / "ckpt.npz"
        memnet.save_checkpoint(result, path)
        loaded = memnet.load_checkpoint(path)
        assert list(loaded.params) == list(result.params)
        for name, t in result.params.items():
            assert np.array_equal(loaded.params[name].data, t.data), name
        assert loaded.hyper == result.hyper
        assert loaded.loss_history == result.loss_history
        assert np.array_equal(embed_stays(loaded, batch), embed_stays(result, batch))

    def test_empty_input_rejected(self):
        result = TrainResult(micro_params(42), [], MICRO)
        with pytest.raises(ArgumentError):
            predict_stays(result, [])


def assert_same_fit(result, params, history):
    """`result` holds exactly the reference's parameters (names and order) and history."""
    assert result.loss_history == history
    assert list(result.params) == list(params)
    for name in params:
        assert np.array_equal(result.params[name].data, params[name].data), name


class TestSharedLoopParity:
    """`fit` and `infer` reproduce the memory network's own training and batched
    inference loops bit for bit."""

    def test_train_matches_own_loop(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 2})
        batch = micro_batch(51, n=10)
        assert_same_fit(train(batch, hyper, VOCAB),
                        *memnet_train_reference(batch, hyper, VOCAB, forward_batch))

    def test_predict_and_embed_match_own_loops(self):
        batch = micro_batch(52, n=300)  # two inference batches
        result = TrainResult(micro_params(53), [], MICRO)

        def forward(b):
            return forward_batch(result.params, b, MICRO)

        assert np.array_equal(predict_stays(result, batch), batched_rows_reference(
            lambda b: forward(b)[0].data[:, 1], batch))
        assert np.array_equal(embed_stays(result, batch), batched_rows_reference(
            lambda b: forward(b)[1].data, batch, MICRO.representation_dim))


@pytest.fixture
def checkpoint(tmp_path):
    hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 1})
    path = tmp_path / "ckpt.npz"
    memnet.save_checkpoint(train(micro_batch(41, n=4), hyper, vocab_size=VOCAB), path)
    return path


def read_members(path) -> dict:
    """Every member of a checkpoint archive; `meta` decoded from its JSON."""
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    members["meta"] = json.loads(members["meta"].item())
    return members


def write_members(path, members: dict) -> None:
    """An npz archive of `members`: a dict is stored as its JSON string, bytes as a raw
    zip member under the name given, anything else as an npy member (pickled if it
    holds objects)."""
    arrays = {name: np.array(json.dumps(v)) if isinstance(v, dict) else v
              for name, v in members.items() if not isinstance(v, bytes)}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with zipfile.ZipFile(path, "a") as zf:
        for name, v in members.items():
            if isinstance(v, bytes):
                zf.writestr(name, v)


def _set_flat(array, index, value):
    array.flat[index] = value


def _pickled_nulls(array):
    out = array.astype(object)
    out.flat[0] = None
    return out


PARAM_NAMES = tuple(micro_params())

BAD_CHECKPOINTS = {
    "format": lambda m: m["meta"].update(format="other"),
    "version": lambda m: m["meta"].update(version=1),
    "missing_hyper": lambda m: m["meta"].pop("hyper"),
    "missing_vocab_size": lambda m: m["meta"].pop("vocab_size"),
    "missing_static_dim": lambda m: m["meta"].pop("static_dim"),
    "missing_feature_dim": lambda m: m["meta"].pop("feature_dim"),
    "missing_loss_history": lambda m: m["meta"].pop("loss_history"),
    "missing_tensors": lambda m: [m.pop(name) for name in PARAM_NAMES],
    "tensors_not_object": lambda m: m.update({"A.npy": json.dumps(m.pop("A").tolist()).encode()}),
    "unknown_hyper_field": lambda m: m["meta"]["hyper"].update(width=3),
    "missing_hyper_field": lambda m: m["meta"]["hyper"].pop("hops"),
    "invalid_hyper": lambda m: m["meta"]["hyper"].update(hops=0),
    "string_size": lambda m: m["meta"].update(vocab_size="12"),
    "huge_vocab_size": lambda m: m["meta"].update(vocab_size=10**12),
    "missing_values": lambda m: m.update(A=np.zeros(0)),
    "short_values": lambda m: m.update(A=m["A"].ravel()[:-1]),
    "ragged_values": lambda m: m.update(B=np.array([np.zeros(8), np.zeros(1)], dtype=object)),
    "text_values": lambda m: m.update(H=m["H"].astype(str)),
    "null_value": lambda m: m.update(H=_pickled_nulls(m["H"])),
    "nan_value": lambda m: _set_flat(m["w_out"], 1, np.nan),
    "infinite_value": lambda m: _set_flat(m["A"], 2, np.inf),
    "text_shape": lambda m: m.update(A=m["A"].ravel()),
    "reshaped_tensor": lambda m: m.update(A=m["A"].reshape(8, 3)),
    "missing_tensor": lambda m: m.pop("H"),
    "extra_tensor": lambda m: m.update(extra=np.zeros(1)),
    "hyper_disagrees": lambda m: m["meta"]["hyper"].update(emb_dim=6, top_hidden=6),
    "vocab_size_disagrees": lambda m: m["meta"].update(vocab_size=VOCAB + 1),
    "feature_dim_disagrees": lambda m: m["meta"].update(feature_dim=4),
    "static_dim_disagrees": lambda m: m["meta"].update(static_dim=19),
    "object_member": lambda m: m.update(meta=np.array(m["meta"], dtype=object)),
    "extra_member": lambda m: m.update({"notes.txt": b"trained on seed 0"}),
    "missing_meta": lambda m: m.pop("meta"),
    "meta_not_json": lambda m: m.update(meta=np.array("{not json")),
    "meta_not_string": lambda m: m.update(meta=np.zeros(())),
    "single_precision": lambda m: m.update(H=m["H"].astype(np.float32)),
}


def _no_unpickling(*args, **kwargs):
    raise AssertionError("the checkpoint loader unpickled data")


class TestCheckpoint:
    def test_file_bytes_are_pinned(self, tmp_path):
        """The file written for fixed tensors, byte for byte: how it is encoded may
        change, the bytes may not."""
        params = {}
        for name, t in micro_params().items():
            codes = np.arange(t.data.size) * 37 % 101 - 50
            params[name] = Tensor((codes / 7.0).reshape(t.shape))
        result = TrainResult(params=params, loss_history=[0.75, 1 / 3, 1e-300],
                             hyper=MICRO)
        path = tmp_path / "ckpt.npz"
        memnet.save_checkpoint(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        result = TrainResult(micro_params(), [0.5], MICRO)
        written = []
        for now in (1.0e9, 1.7e9 + 2.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            monkeypatch.setattr(time, "localtime", lambda secs=None, now=now: time.gmtime(now))
            path = tmp_path / f"ckpt{len(written)}.npz"
            memnet.save_checkpoint(result, path)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_records_model_sizes_from_tensor_shapes(self, checkpoint):
        meta = read_members(checkpoint)["meta"]
        assert (meta["vocab_size"], meta["feature_dim"], meta["static_dim"]) == (VOCAB, 3, 20)
        assert (meta["format"], meta["version"]) == ("akisub-checkpoint", 2)

    @pytest.mark.parametrize("kept", [0.0, 0.5, 0.999])
    def test_truncated_file_is_a_parse_error(self, checkpoint, kept):
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[:int(kept * len(data))])
        with pytest.raises(ParseError, match="not a readable npz archive"):
            memnet.load_checkpoint(checkpoint)

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1, 2]", b"null"])
    def test_other_file_is_a_parse_error(self, checkpoint, content):
        checkpoint.write_bytes(content)
        with pytest.raises(ParseError):
            memnet.load_checkpoint(checkpoint)

    def test_npy_array_is_a_parse_error(self, checkpoint):
        with open(checkpoint, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(ParseError, match="not an npz archive"):
            memnet.load_checkpoint(checkpoint)

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_malformed_content_is_a_parse_error(self, checkpoint, case, monkeypatch):
        members = read_members(checkpoint)
        BAD_CHECKPOINTS[case](members)
        write_members(checkpoint, members)
        monkeypatch.setattr(pickle, "load", _no_unpickling)
        monkeypatch.setattr(pickle, "loads", _no_unpickling)
        with pytest.raises(ParseError):
            memnet.load_checkpoint(checkpoint)

    def test_unchanged_members_load(self, checkpoint):
        """`write_members` itself writes a checkpoint the loader accepts."""
        before = memnet.load_checkpoint(checkpoint)
        write_members(checkpoint, read_members(checkpoint))
        after = memnet.load_checkpoint(checkpoint)
        assert all(np.array_equal(after.params[n].data, before.params[n].data)
                   for n in PARAM_NAMES)
