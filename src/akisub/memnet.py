"""Memory network over structured stay tensors with a hierarchical-LSTM note query.

Architecture: a word-level LSTM encodes each note (last hidden state), a
note-level LSTM consumes the note vectors in timestamp order, and its final
hidden state is the query u. The stay tensor rows s_j are embedded into input
memory z_j = s_j A and output memory e_j = s_j B; attention weights
alpha = softmax(u . z) produce the read o = sum_j alpha_j e_j, and each hop
updates the query as u' = u H + o with A and B shared across hops. The stay
representation is v = concat(u_final + o, static W_s), a 144-vector with
default dimensions, classified by a two-class softmax head.

Both LSTM layers run as one packed `nn.lstm_sequence` call each: the word
layer over every note of the batch (padded word ids gathered in one
`gather_rows`), the note layer over each stay's note vectors (gathered by row
index; a stay without notes reads the null-note row). Each records a single
tape node, and steps past a sequence's length are never computed.

All parameters live in one flat name->Tensor dict, so layer tying is
structural: there is exactly one stored A and one stored B.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tape, Tensor, backward
from .errors import ArgumentError, DimensionError, TrainingError

REPRESENTATION_DIM = 144


@dataclass
class HyperConfig:
    memory_size: int = 12
    emb_dim: int = 128
    bottom_hidden: int = 200
    top_hidden: int = 128
    word_emb_dim: int = 64
    static_proj_dim: int = 16
    hops: int = 1
    batch_size: int = 32
    lr: float = 0.01
    epochs: int = 10
    max_note_len: int = 32
    seed: int = 0

    def validate(self):
        for name in ("memory_size", "emb_dim", "bottom_hidden", "top_hidden",
                     "word_emb_dim", "static_proj_dim", "hops", "batch_size",
                     "max_note_len"):
            if getattr(self, name) <= 0:
                raise ArgumentError(f"HyperConfig.{name} must be positive")
        if self.lr <= 0 or self.epochs < 0:
            raise ArgumentError("lr must be positive and epochs non-negative")
        if self.top_hidden != self.emb_dim:
            raise ArgumentError("top_hidden must equal emb_dim so the query matches "
                                "the memory embedding")

    @property
    def representation_dim(self) -> int:
        return self.emb_dim + self.static_proj_dim


@dataclass
class PreparedStay:
    """Model-ready view of one stay (scaled tensor, static vector, note ids)."""

    stay_id: str
    tensor: np.ndarray             # (t, d), scaled to [0, 1]
    static: np.ndarray             # (static_dim,)
    note_seqs: list[list[int]]
    label: int | None = None


@dataclass
class MemoryState:
    """One memory read: input/output memories, attention, and the read vector."""

    z: np.ndarray      # (t, emb)
    e: np.ndarray      # (t, emb)
    alpha: np.ndarray  # (t,)
    o: np.ndarray      # (emb,)


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    loss_history: list[float]
    hyper: HyperConfig
    vocab_size: int
    static_dim: int
    feature_dim: int


def init_params(rng: np.random.Generator, hyper: HyperConfig, vocab_size: int,
                feature_dim: int, static_dim: int) -> dict[str, Tensor]:
    bottom = nn.init_lstm(rng, hyper.word_emb_dim, hyper.bottom_hidden)
    top = nn.init_lstm(rng, hyper.bottom_hidden, hyper.top_hidden)
    return {
        "word_emb": nn.uniform_init(rng, vocab_size, hyper.word_emb_dim),
        "bottom_wx": bottom.wx, "bottom_wh": bottom.wh, "bottom_b": bottom.b,
        "top_wx": top.wx, "top_wh": top.wh, "top_b": top.b,
        "null_note": nn.uniform_init(rng, 1, hyper.bottom_hidden),
        "A": nn.uniform_init(rng, feature_dim, hyper.emb_dim),
        "B": nn.uniform_init(rng, feature_dim, hyper.emb_dim),
        "H": nn.uniform_init(rng, hyper.emb_dim, hyper.emb_dim),
        "W_static": nn.uniform_init(rng, static_dim, hyper.static_proj_dim),
        "w_out": nn.uniform_init(rng, hyper.representation_dim, 2),
    }


def _bottom_lstm(params, seqs: list[list[int]], hyper: HyperConfig) -> Tensor:
    """Encode every note in the batch at once; returns (n_notes + 1, bottom_hidden)
    with the learned null-note vector appended as the last row."""
    if not seqs:
        return params["null_note"]
    lengths = [len(seq) for seq in seqs]
    ids = np.zeros((len(seqs), max(lengths)), dtype=np.intp)
    for i, seq in enumerate(seqs):
        ids[i, :len(seq)] = seq
    x = ad.reshape(ad.gather_rows(params["word_emb"], ids.ravel()),
                   ids.shape + (hyper.word_emb_dim,))
    lstm = nn.LstmParams(params["bottom_wx"], params["bottom_wh"], params["bottom_b"])
    return ad.concat([nn.lstm_sequence(x, lengths, lstm), params["null_note"]], axis=0)


def encode_notes_batch(params, batch_seqs: list[list[list[int]]],
                       hyper: HyperConfig) -> Tensor:
    """HieLSTM query for a batch of stays; zero-note stays read the null-note row."""
    flat = [seq for seqs in batch_seqs for seq in seqs]
    lengths = [max(len(seqs), 1) for seqs in batch_seqs]
    # rows of the note matrix; padding and zero-note stays point at the null note
    rows = np.full((len(batch_seqs), max(lengths)), len(flat), dtype=np.intp)
    start = 0
    for i, seqs in enumerate(batch_seqs):
        rows[i, :len(seqs)] = np.arange(start, start + len(seqs))
        start += len(seqs)
    note_vecs = _bottom_lstm(params, flat, hyper)
    x = ad.reshape(ad.gather_rows(note_vecs, rows.ravel()),
                   rows.shape + (hyper.bottom_hidden,))
    lstm = nn.LstmParams(params["top_wx"], params["top_wh"], params["top_b"])
    return nn.lstm_sequence(x, lengths, lstm)


def memory_read_batch(params, u: Tensor, tensors: np.ndarray) -> tuple[Tensor, Tensor]:
    """alpha = softmax(u . z_j), o = sum_j alpha_j e_j over a (b, t, d) batch."""
    b, t, d = tensors.shape
    if params["A"].shape[0] != d:
        raise DimensionError(f"memory_read: tensor has d={d} but A expects "
                             f"{params['A'].shape[0]}")
    flat = Tensor(tensors.reshape(b * t, d))
    z = ad.reshape(ad.matmul(flat, params["A"]), (b, t, -1))
    e = ad.reshape(ad.matmul(flat, params["B"]), (b, t, -1))
    u3 = ad.reshape(u, (b, 1, -1))
    scores = ad.reduce_sum(ad.mul(z, u3), axis=2)
    alpha = ad.softmax(scores)
    alpha3 = ad.reshape(alpha, (b, t, 1))
    o = ad.reduce_sum(ad.mul(e, alpha3), axis=1)
    return alpha, o


def multi_hop_batch(params, u: Tensor, tensors: np.ndarray,
                    hops: int) -> tuple[Tensor, Tensor, Tensor]:
    """Iterate u <- u H + o; returns (u_final, last alpha, last o)."""
    if hops < 1:
        raise ArgumentError(f"hop count must be >= 1, got {hops}")
    alpha = o = None
    for _ in range(hops):
        alpha, o = memory_read_batch(params, u, tensors)
        u = ad.add(ad.matmul(u, params["H"]), o)
    return u, alpha, o


def forward_batch(params, batch: list[PreparedStay], hyper: HyperConfig,
                  ) -> tuple[Tensor, Tensor]:
    """Probabilities (b, 2) and representations (b, emb+static_proj) for a batch."""
    tensors = np.stack([s.tensor for s in batch])
    if tensors.shape[1] != hyper.memory_size:
        raise DimensionError(f"stay tensors have {tensors.shape[1]} rows but memory "
                             f"size is {hyper.memory_size}")
    static = np.stack([s.static for s in batch])
    u0 = encode_notes_batch(params, [s.note_seqs for s in batch], hyper)
    u_final, _, o = multi_hop_batch(params, u0, tensors, hyper.hops)
    proj = ad.matmul(Tensor(static), params["W_static"])
    v = ad.concat([ad.add(u_final, o), proj], axis=1)
    probs = ad.softmax(ad.matmul(v, params["w_out"]))
    return probs, v


def batch_loss(params, batch: list[PreparedStay], hyper: HyperConfig) -> Tensor:
    probs, _ = forward_batch(params, batch, hyper)
    p_case = ad.reshape(ad.slice_axis(probs, 1, 2, axis=1), (len(batch),))
    labels = np.array([s.label for s in batch], dtype=np.float64)
    return ad.cross_entropy(p_case, labels)


# ---------------------------------------------------------------------------
# single-stay views of the core operations
# ---------------------------------------------------------------------------

def encode_notes(params, note_seqs: list[list[int]], hyper: HyperConfig) -> np.ndarray:
    """Query vector u for one stay's note sequences."""
    return encode_notes_batch(params, [note_seqs], hyper).data[0]


def memory_read(params, u: np.ndarray, tensor: np.ndarray) -> MemoryState:
    """One attention read over a single stay tensor (t, d)."""
    alpha_t, o_t = memory_read_batch(params, Tensor(u[None, :]), tensor[None])
    z = tensor @ params["A"].data
    e = tensor @ params["B"].data
    return MemoryState(z=z, e=e, alpha=alpha_t.data[0], o=o_t.data[0])


def multi_hop(params, u: np.ndarray, tensor: np.ndarray,
              hops: int) -> tuple[np.ndarray, MemoryState]:
    u_t, alpha_t, o_t = multi_hop_batch(params, Tensor(u[None, :]), tensor[None], hops)
    z = tensor @ params["A"].data
    e = tensor @ params["B"].data
    return u_t.data[0], MemoryState(z=z, e=e, alpha=alpha_t.data[0], o=o_t.data[0])


def fuse(params, u_final: np.ndarray, o: np.ndarray, static: np.ndarray) -> np.ndarray:
    """Stay representation v = concat(u_final + o, static W_s)."""
    return np.concatenate([u_final + o, static @ params["W_static"].data])


def predict(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Two-class softmax over w v with w shaped (2, dim)."""
    if w.shape != (2, v.shape[0]):
        raise DimensionError(f"predict: w {w.shape} vs v {v.shape}")
    logits = w @ v
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


# ---------------------------------------------------------------------------
# training and embedding
# ---------------------------------------------------------------------------

def _check_labels(prepared: list[PreparedStay]):
    labels = {s.label for s in prepared}
    if not prepared:
        raise TrainingError("empty training set")
    if labels != {0, 1}:
        raise TrainingError(f"training set must contain both classes, got labels {labels}")


def train(prepared: list[PreparedStay], hyper: HyperConfig,
          vocab_size: int) -> TrainResult:
    """Mini-batch Adam on the joint memory-network + HieLSTM parameters."""
    hyper.validate()
    _check_labels(prepared)
    feature_dim = prepared[0].tensor.shape[1]
    static_dim = prepared[0].static.shape[0]
    rng = np.random.default_rng(hyper.seed)
    params = init_params(rng, hyper, vocab_size, feature_dim, static_dim)
    opt = nn.Adam(lr=hyper.lr)
    history: list[float] = []
    n = len(prepared)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = [prepared[i] for i in order[start:start + hyper.batch_size]]
            with Tape() as tape:
                loss = batch_loss(params, batch, hyper)
            grads = backward(tape, loss)
            params = opt.step(params, grads)
            total += loss.item()
        history.append(total / n)
    return TrainResult(params=params, loss_history=history, hyper=hyper,
                       vocab_size=vocab_size, static_dim=static_dim,
                       feature_dim=feature_dim)


def predict_stays(result: TrainResult, prepared: list[PreparedStay],
                  batch_size: int = 256) -> np.ndarray:
    """Case probabilities, inference only."""
    out = np.zeros(len(prepared))
    for start in range(0, len(prepared), batch_size):
        batch = prepared[start:start + batch_size]
        probs, _ = forward_batch(result.params, batch, result.hyper)
        out[start:start + len(batch)] = probs.data[:, 1]
    return out


def embed_stays(result: TrainResult, prepared: list[PreparedStay],
                batch_size: int = 256) -> np.ndarray:
    """One representation row per stay, order preserved; no parameter mutation."""
    rows = np.zeros((len(prepared), result.hyper.representation_dim))
    for start in range(0, len(prepared), batch_size):
        batch = prepared[start:start + batch_size]
        _, v = forward_batch(result.params, batch, result.hyper)
        rows[start:start + len(batch)] = v.data
    return rows


def params_checksum(params: dict[str, Tensor]) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# checkpoint format (versioned JSON with named tensors)
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "akisub-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(result: TrainResult, path) -> None:
    import json
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "hyper": result.hyper.__dict__,
        "vocab_size": result.vocab_size,
        "static_dim": result.static_dim,
        "feature_dim": result.feature_dim,
        "loss_history": result.loss_history,
        "tensors": {name: {"shape": list(t.shape), "values": t.data.ravel().tolist()}
                    for name, t in result.params.items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> TrainResult:
    import json
    from .errors import ParseError
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: not an {CHECKPOINT_FORMAT} file")
    params = {name: Tensor(np.array(rec["values"]).reshape(rec["shape"]),
                           requires_grad=True)
              for name, rec in payload["tensors"].items()}
    return TrainResult(params=params, loss_history=payload["loss_history"],
                       hyper=HyperConfig(**payload["hyper"]),
                       vocab_size=payload["vocab_size"],
                       static_dim=payload["static_dim"],
                       feature_dim=payload["feature_dim"])
