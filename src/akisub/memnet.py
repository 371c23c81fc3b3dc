"""Memory network over structured stay tensors with a hierarchical-LSTM note query.

Architecture: a word-level LSTM encodes each note (last hidden state), a
note-level LSTM consumes the note vectors in timestamp order, and its final
hidden state is the query u. The stay tensor rows s_j are embedded into input
memory z_j = s_j A and output memory e_j = s_j B; attention weights
alpha = softmax(u . z) produce the read o = sum_j alpha_j e_j, and each hop
updates the query as u' = u H + o with A and B shared across hops. The
memory has one slot per tensor row (2-hour window), so its size is the row
count of the input, not a setting: A and B are feature_dim x emb_dim. The stay
representation is v = concat(u_final + o, static W_s), a 144-vector with
default dimensions, classified by a two-class softmax head.

Both LSTM layers run as one packed `nn.lstm_sequence` call each: the word
layer over every note of the batch (padded word ids gathered in one
`gather_rows`), the note layer over each stay's note vectors (gathered by row
index; a stay without notes reads the null-note row). Each records a single
tape node, and steps past a sequence's length are never computed.

All parameters live in one flat name->Tensor dict, so layer tying is
structural: there is exactly one stored A and one stored B.

The three neural models (this one and the two in `baselines`) share `fit`,
the one minibatch Adam loop over a `loss_fn(params, batch, hyper)`, `infer`,
the one loop over inference batches, `case_loss` and `TrainResult`; this
model and the HieLSTM-only baseline extend the note encoder `init_hielstm`.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tape, Tensor, backward
from .cohort import replacing
from .errors import ArgumentError, ConfigError, DimensionError, ParseError, TrainingError
from .features import PreparedStay

INFER_BATCH = 256


@dataclass
class HyperConfig:
    emb_dim: int = 128
    bottom_hidden: int = 200
    word_emb_dim: int = 64
    static_proj_dim: int = 16
    hops: int = 1
    batch_size: int = 32
    lr: float = 0.01
    epochs: int = 10
    max_note_len: int = 32
    seed: int = 0

    def validate(self):
        for name in ("emb_dim", "bottom_hidden", "word_emb_dim",
                     "static_proj_dim", "hops", "batch_size", "max_note_len", "lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"'model.{name}' must be > 0, got {getattr(self, name)!r}")
        if not self.epochs >= 0:
            raise ConfigError(f"'model.epochs' must be >= 0, got {self.epochs!r}")

    @property
    def representation_dim(self) -> int:
        return self.emb_dim + self.static_proj_dim


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    loss_history: list[float]
    hyper: HyperConfig


def init_hielstm(rng: np.random.Generator, hyper: HyperConfig,
                 vocab_size: int) -> dict[str, Tensor]:
    """Note encoder parameters, drawn bottom LSTM, top LSTM, word_emb, null_note."""
    bottom = nn.init_lstm(rng, hyper.word_emb_dim, hyper.bottom_hidden)
    top = nn.init_lstm(rng, hyper.bottom_hidden, hyper.emb_dim)
    return {
        "word_emb": nn.uniform_init(rng, vocab_size, hyper.word_emb_dim),
        "bottom_wx": bottom.wx, "bottom_wh": bottom.wh, "bottom_b": bottom.b,
        "top_wx": top.wx, "top_wh": top.wh, "top_b": top.b,
        "null_note": nn.uniform_init(rng, 1, hyper.bottom_hidden),
    }


def init_params(rng: np.random.Generator, hyper: HyperConfig, vocab_size: int,
                feature_dim: int, static_dim: int) -> dict[str, Tensor]:
    return {
        **init_hielstm(rng, hyper, vocab_size),
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
    static = np.stack([s.static for s in batch])
    u0 = encode_notes_batch(params, [s.note_seqs for s in batch], hyper)
    u_final, _, o = multi_hop_batch(params, u0, tensors, hyper.hops)
    proj = ad.matmul(Tensor(static), params["W_static"])
    v = ad.concat([ad.add(u_final, o), proj], axis=1)
    probs = ad.softmax(ad.matmul(v, params["w_out"]))
    return probs, v


def case_loss(probs: Tensor, batch: list[PreparedStay]) -> Tensor:
    """Cross-entropy of the case probability (column 1) against the labels, summed
    over the batch."""
    p_case = ad.reshape(ad.slice_axis(probs, 1, 2, axis=1), (len(batch),))
    labels = np.array([s.label for s in batch], dtype=np.float64)
    return ad.cross_entropy(p_case, labels)


def batch_loss(params, batch: list[PreparedStay], hyper: HyperConfig) -> Tensor:
    return case_loss(forward_batch(params, batch, hyper)[0], batch)


# ---------------------------------------------------------------------------
# training and inference, shared with the neural baselines
# ---------------------------------------------------------------------------

def check_labels(labels) -> None:
    """Raise TrainingError unless the labels are exactly the two classes 0 and 1."""
    classes = set(labels)
    if not classes:
        raise TrainingError("empty training set")
    if classes != {0, 1}:
        raise TrainingError(f"training set must contain both classes, got labels {classes}")


def fit(prepared: list[PreparedStay], hyper: HyperConfig, params: dict[str, Tensor],
        loss_fn, rng: np.random.Generator) -> TrainResult:
    """Mini-batch Adam on `loss_fn(params, batch, hyper)`, shuffling every epoch with
    `rng`; the history holds each epoch's summed batch losses over the stay count.

    `params` is updated in place, so the caller's dict does not keep the
    initial tensors alive for the whole run. One batch's tape is alive at a time:
    `backward` empties it, and the batch's loss and gradients are dropped before
    the next batch's forward."""
    opt = nn.Adam(lr=hyper.lr)
    history: list[float] = []
    n = len(prepared)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = [prepared[i] for i in order[start:start + hyper.batch_size]]
            with Tape() as tape:
                loss = loss_fn(params, batch, hyper)
            grads = backward(tape, loss)
            params.update(opt.step(params, grads))
            total += loss.item()
            del tape, loss, grads
        history.append(total / n)
    return TrainResult(params=params, loss_history=history, hyper=hyper)


def train(prepared: list[PreparedStay], hyper: HyperConfig,
          vocab_size: int) -> TrainResult:
    """Mini-batch Adam on the joint memory-network + HieLSTM parameters; one
    generator seeded with `hyper.seed` draws the initialisation, then the shuffles."""
    hyper.validate()
    check_labels(s.label for s in prepared)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(rng, hyper, vocab_size, prepared[0].tensor.shape[1],
                         prepared[0].static.shape[0])
    return fit(prepared, hyper, params, batch_loss, rng)


def infer(rows_of, prepared: list[PreparedStay]) -> np.ndarray:
    """`rows_of(batch)` over consecutive batches of INFER_BATCH stays, stacked in order."""
    if not prepared:
        raise ArgumentError("no stays to score")
    return np.concatenate([rows_of(prepared[start:start + INFER_BATCH])
                           for start in range(0, len(prepared), INFER_BATCH)])


def predict_stays(result: TrainResult, prepared: list[PreparedStay]) -> np.ndarray:
    """Case probabilities, inference only."""
    return infer(lambda batch: forward_batch(result.params, batch,
                                             result.hyper)[0].data[:, 1], prepared)


def embed_stays(result: TrainResult, prepared: list[PreparedStay]) -> np.ndarray:
    """One representation row per stay, order preserved; no parameter mutation."""
    return infer(lambda batch: forward_batch(result.params, batch,
                                             result.hyper)[1].data, prepared)


# ---------------------------------------------------------------------------
# checkpoint format (versioned npz: one array per parameter and a JSON `meta`)
# ---------------------------------------------------------------------------
#
# `save_checkpoint` writes one uncompressed npz archive. Each parameter is a
# float64 `<name>.npy` member, stored under its `init_params` name with its
# bytes as trained, so a load gives the trained values bit for bit. The member
# `meta.npy` is a 0-d unicode array holding the sorted-key JSON of `format`,
# `version`, `hyper` (every `HyperConfig` field), `vocab_size`, `feature_dim`
# and `static_dim` (the sizes `init_params` takes) and `loss_history`. Zip
# entries carry the fixed 1980 timestamp of `zipfile.ZipInfo`, so one result
# always gives the same bytes. `load_checkpoint` reads without unpickling and
# accepts exactly the members and shapes `init_params` gives for `meta`.
# `hyper` holds no memory size: the memory has as many slots as a stay tensor
# has rows. A file of any version but `CHECKPOINT_VERSION` is a ParseError.

CHECKPOINT_FORMAT = "akisub-checkpoint"
CHECKPOINT_VERSION = 4


def save_checkpoint(result: TrainResult, path) -> None:
    """Write `result` as the npz archive at `path`, atomically (`cohort.replacing`)."""
    params = result.params
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "hyper": result.hyper.__dict__,
        "vocab_size": params["word_emb"].shape[0],
        "static_dim": params["W_static"].shape[0],
        "feature_dim": params["A"].shape[0],
        "loss_history": result.loss_history,
    }
    with replacing(path) as tmp, open(tmp, "xb") as fh:
        np.savez(fh, allow_pickle=False, **{name: t.data for name, t in params.items()},
                 meta=np.array(json.dumps(meta, sort_keys=True)))


class _ZeroDraws:
    """Generator stand-in for `init_params` when only the shapes are wanted. Each draw
    is a writable zero-stride view of one float, so a recorded size allocates nothing,
    however large; a size that is not a non-negative int raises as `np.zeros` does."""

    @staticmethod
    def uniform(low, high, size):
        shape = (size,) if isinstance(size, int) else tuple(size)
        return np.lib.stride_tricks.as_strided(np.zeros(1), shape, (0,) * len(shape),
                                               writeable=True)


def _read_members(path) -> dict:
    """Every member of the npz archive at `path`, by name; any file that is not an
    npz archive of arrays a load without unpickling can read raises ParseError."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("an npy array, not an npz archive")
            with archive:
                return {name: archive[name] for name in archive.files}
        # zipfile raises RuntimeError for encrypted or unsupported entries and
        # OSError for a seek past a damaged offset
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError) as e:
            raise ParseError(f"{path}: not a readable npz archive "
                             f"({type(e).__name__}: {e})") from None


def load_checkpoint(path) -> TrainResult:
    """Read a `save_checkpoint` file; content it could not have written (a damaged
    archive, a member that is not a float64 parameter of the recorded model or
    `meta`, or non-finite values) raises ParseError."""
    members = _read_members(path)
    meta = members.pop("meta", None)
    if not (isinstance(meta, np.ndarray) and meta.shape == () and meta.dtype.kind == "U"):
        raise ParseError(f"{path}: no 0-d string member 'meta'")
    try:
        meta = json.loads(meta.item())
    except ValueError as e:
        raise ParseError(f"{path}: 'meta' is not valid JSON ({e})") from None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT \
            or meta.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: not an {CHECKPOINT_FORMAT} file of version "
                         f"{CHECKPOINT_VERSION}")
    try:
        hyper = HyperConfig(**meta["hyper"])
        lacking = sorted(hyper.__dict__.keys() - meta["hyper"].keys())
        if lacking:
            raise ValueError(f"hyper lacks {lacking}")
        hyper.validate()
        sizes = [meta[key] for key in ("vocab_size", "feature_dim", "static_dim")]
        expected = {name: t.shape
                    for name, t in init_params(_ZeroDraws(), hyper, *sizes).items()}
        loss_history = meta["loss_history"]
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as e:
        raise ParseError(f"{path}: malformed checkpoint ({type(e).__name__}: {e})") from None
    found = {name: getattr(a, "shape", type(a).__name__) for name, a in members.items()}
    wrong = sorted(name for name in found.keys() | expected.keys()
                   if found.get(name) != expected.get(name))
    if wrong:
        raise ParseError(f"{path}: members {({n: found.get(n) for n in wrong})} do not fit "
                         f"the recorded model, which has {({n: expected.get(n) for n in wrong})}")
    if any(a.dtype != np.float64 for a in members.values()):
        raise ParseError(f"{path}: tensor values must be float64")
    if not all(np.isfinite(a).all() for a in members.values()):
        raise ParseError(f"{path}: tensor values must be finite numbers")
    params = {name: Tensor(members[name], requires_grad=True) for name in expected}
    return TrainResult(params=params, loss_history=loss_history, hyper=hyper)
