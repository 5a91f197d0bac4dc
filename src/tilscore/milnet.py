"""Gated attention-MIL regressor with hand-written reverse-mode gradients.

One bag of tile features h_k goes through a shared ReLU post-encoder
e_k = relu(W h_k + b); a gated attention head scores each tile with
logit_k = w . (tanh(V e_k + c) * sigmoid(U e_k + d)) and softmax-normalises
over the bag; a sigmoid score head maps each tile to s_k in (0, 1); the
slide prediction is the attention-weighted mean of the tile scores.

Training uses analytic gradients (verified against central finite
differences), ADAM with in-gradient L2 weight decay, and early stopping on
validation explained variance.  Training stacks the tiles of several bags
in one buffer, so the encoder forward and the encoder weight gradient are
one GEMM each over those rows; every other gradient, and the attention and
score heads, are formed per bag.  Everything is float64 and deterministic
for a fixed seed; the parameters are views into one buffer in checkpoint order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import TilscoreError, check_rules

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per ADAM pass: at 16K its six working arrays (768 KiB) sit in a
# 2 MiB L2, where 32K blocks nearly filled it and ran slower
ADAM_BLOCK = 1 << 14

# Row cap of the stacked tile buffers in `train` (64 MiB of f64 at 2048-d):
# a batch with more tiles is encoded, and folds its encoder weight gradient,
# in several chunks.
STACK_ROWS = 4096

# Ceiling of the model state `train` holds: five float64 copies of the
# parameters (themselves, the batch gradient, both ADAM moments and the best
# snapshot).  The paper shape takes 47 MB; a size past this is a typo.
MAX_STATE_BYTES = 1 << 32

CKPT_MAGIC = b"ECTM"
CKPT_VERSION = 1
_CKPT_HYPER = "<ddIIIddIII"  # every HyperParams field in declared order, then dim


@dataclass
class HyperParams:
    lr: float = 1e-4
    weight_decay: float = 6e-4
    batch_size: int = 16
    attn_hidden: int = 128
    enc_out: int = 512
    dropout_feature: float = 0.4
    dropout_tile: float = 0.1
    max_epochs: int = 50
    patience: int = 15

    def validate(self) -> None:
        """Raise TilscoreError naming the first field out of its range."""
        check_rules(self, [
            ("lr", "finite and above 0", 0.0 < self.lr < math.inf),
            ("weight_decay", "finite and not negative", 0.0 <= self.weight_decay < math.inf),
            # a checkpoint stores each count as uint32 (_CKPT_HYPER)
            *((name, "in [1, 4294967295]", 1 <= getattr(self, name) <= 0xFFFFFFFF)
              for name in ("batch_size", "max_epochs", "patience", "enc_out", "attn_hidden")),
            *((name, "in [0, 1)", 0.0 <= getattr(self, name) < 1.0)
              for name in ("dropout_feature", "dropout_tile"))])


class ModelParams:
    """All trainable tensors, shaped as `param_shapes` says: views into one buffer,
    `flat`, in PARAM_FIELDS (checkpoint) order.  Also reused as a gradient container."""

    enc_w: np.ndarray
    enc_b: np.ndarray
    attn_v: np.ndarray
    attn_v_b: np.ndarray
    attn_u: np.ndarray
    attn_u_b: np.ndarray
    attn_w: np.ndarray
    score_w: np.ndarray
    score_b: np.ndarray

    def __init__(self, flat: np.ndarray | None = None, shapes: dict | None = None, **tensors):
        """Views into `flat` (any dtype) shaped, in order, as `shapes` says; or
        f64 copies of the tensors given by name, packed into a new buffer."""
        if flat is None:
            shapes = {f: np.shape(tensors[f]) for f in PARAM_FIELDS}
            flat = np.concatenate([np.ravel(tensors[f]) for f in PARAM_FIELDS], dtype=np.float64)
        self.flat, self.shapes, end = flat, shapes, 0
        for name, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            setattr(self, name, flat[start:end].reshape(shape))

    @property
    def dim(self) -> int:
        return self.enc_w.shape[1]

    @property
    def enc_out(self) -> int:
        return self.enc_w.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.shapes)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(np.zeros_like(self.flat), self.shapes)


PARAM_FIELDS = tuple(ModelParams.__annotations__)


def param_shapes(hyper: HyperParams, dim: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in PARAM_FIELDS order (the checkpoint order)."""
    e, h = hyper.enc_out, hyper.attn_hidden
    return {"enc_w": (e, dim), "enc_b": (e,), "attn_v": (h, e), "attn_v_b": (h,),
            "attn_u": (h, e), "attn_u_b": (h,), "attn_w": (h,), "score_w": (e,),
            "score_b": (1,)}


def check_state_bytes(hyper: HyperParams, dim: int) -> None:
    """Raise TilscoreError if training at `dim` would hold over MAX_STATE_BYTES of model state."""
    need = 5 * 8 * sum(math.prod(shape) for shape in param_shapes(hyper, dim).values())
    if need > MAX_STATE_BYTES:
        raise TilscoreError(f"enc_out {hyper.enc_out} and attn_hidden {hyper.attn_hidden} at bag "
                            f"dim {dim} need {need / 2**30:.3g} GiB of model state, over the "
                            f"{MAX_STATE_BYTES / 2**30:g} GiB ceiling")


def init_params(seed: int, hyper: HyperParams, dim: int = 2048) -> ModelParams:
    """Uniform +/- 1/sqrt(fan_in) weights, zero biases; deterministic per seed.

    Weights are drawn in field order, and a weight's fan-in is its last axis.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(hyper, dim)
    params = ModelParams(np.zeros(sum(map(math.prod, shapes.values()))), shapes)
    for name, shape in shapes.items():
        if not name.endswith("_b"):
            np.divide(rng.uniform(-1.0, 1.0, size=shape), np.sqrt(shape[-1]),
                      out=getattr(params, name))
    return params


@dataclass
class ForwardTrace:
    """Forward activations cached for the backward pass."""

    features: np.ndarray  # (K, dim) float64
    embeddings: np.ndarray  # (K, enc_out), post-ReLU
    gate_t: np.ndarray  # tanh branch (K, attn_hidden)
    gate_g: np.ndarray  # sigmoid branch (K, attn_hidden)
    attention: np.ndarray  # (K,), sums to 1
    score_input: np.ndarray  # (K, enc_out): embeddings after dropout mask
    tile_scores: np.ndarray  # (K,), each in (0, 1)
    prediction: float
    dropout_mask: np.ndarray | None  # None without dropout


def _keep_scaled(draws: np.ndarray, keep: float) -> np.ndarray:
    """(draws < keep) / keep, written over the uniform draws."""
    np.less(draws, keep, out=draws)
    draws /= keep
    return draws


def _dropout_mask(shape, hyper: HyperParams, rng: np.random.Generator) -> np.ndarray:
    """Combined tile- and feature-level inverted-scaling mask for the score head,
    built in place over its own uniform draws (feature draws first)."""
    k, e = shape
    if hyper.dropout_feature > 0.0:
        mask = _keep_scaled(rng.random(shape), 1.0 - hyper.dropout_feature)
    else:
        mask = np.ones(shape)
    if hyper.dropout_tile > 0.0:
        mask *= _keep_scaled(rng.random(k), 1.0 - hyper.dropout_tile)[:, None]
    return mask


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), scipy.special.expit's formula, written over `x`.

    exp(-x) overflows to inf for x below about -709, which gives exactly 0.
    """
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _encode(params: ModelParams, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """relu(h @ enc_w.T + enc_b), the post-ReLU tile embeddings, into `out`."""
    emb = np.matmul(h, params.enc_w.T, out=out)
    emb += params.enc_b
    return np.maximum(emb, 0.0, out=emb)


def forward(params: ModelParams, bag, dropout_mask: np.ndarray | None = None,
            embeddings: np.ndarray | None = None) -> ForwardTrace:
    """Run the model over one bag: a `(K, dim)` array, or any object whose
    `features` is one.

    Deterministic.  A `dropout_mask` (K x enc_out, as `_dropout_mask` draws
    it) multiplies the embeddings the score head sees; the attention path
    always sees them undropped.  Given `embeddings` (the bag's post-ReLU
    encoder output, K x enc_out, computed by the caller), the encoder is not
    run again; the trace then holds that array, which `backward` may
    overwrite with its `d_pre`.
    """
    h = np.asarray(getattr(bag, "features", bag), dtype=np.float64)
    if h.ndim != 2:
        raise TilscoreError("bag features must be 2-d")
    if h.shape[1] != params.dim:
        raise TilscoreError(f"bag dim {h.shape[1]} does not match model dim {params.dim}")

    if embeddings is None:
        emb = _encode(params, h)
    elif embeddings.shape == (h.shape[0], params.enc_out):
        emb = embeddings
    else:
        raise TilscoreError(f"embeddings of shape {embeddings.shape} do not match the bag's "
                            f"{(h.shape[0], params.enc_out)}")
    if dropout_mask is not None and dropout_mask.shape != emb.shape:
        raise TilscoreError(f"dropout mask of shape {dropout_mask.shape} does not match the "
                            f"bag's {emb.shape}")
    gate_t = np.tanh(emb @ params.attn_v.T + params.attn_v_b)
    gate_g = _sigmoid(emb @ params.attn_u.T + params.attn_u_b)
    logits = (gate_t * gate_g) @ params.attn_w
    shifted = np.exp(logits - logits.max())
    attention = shifted / shifted.sum()

    score_in = emb if dropout_mask is None else emb * dropout_mask
    tile_scores = _sigmoid(score_in @ params.score_w + params.score_b[0])
    prediction = float(attention @ tile_scores)
    return ForwardTrace(features=h, embeddings=emb, gate_t=gate_t, gate_g=gate_g,
                        attention=attention, score_input=score_in, tile_scores=tile_scores,
                        prediction=prediction, dropout_mask=dropout_mask)


def loss(prediction: float, label: float) -> float:
    """Squared error on the [0, 1] scale."""
    return (prediction - label) ** 2


def loss_grad(prediction: float, label: float) -> float:
    return 2.0 * (prediction - label)


def backward(trace: ForwardTrace, params: ModelParams, d_prediction: float, *,
             acc: ModelParams | None = None, d_pre: np.ndarray | None = None) -> ModelParams:
    """Exact gradients of d_prediction * prediction w.r.t. every parameter,
    under the dropout masks realised in `trace`, added into `acc` in place
    (a fresh zero container when none is given), which is returned.

    Given `d_pre` (a K x enc_out array), the gradient at the encoder
    pre-activations is written there and `acc.enc_w` is left alone: the
    caller forms the `enc_w` gradient as d_pre.T @ features, once over the
    stacked tiles of a batch.
    """
    if trace.embeddings.shape[1] != params.enc_out or trace.features.shape[1] != params.dim:
        raise TilscoreError("trace does not match parameter shapes")
    if acc is None:
        acc = params.zeros_like()
    stacked = d_pre is not None
    a = trace.attention
    s = trace.tile_scores

    d_s = d_prediction * a
    d_a = d_prediction * s
    d_logits = a * (d_a - float(a @ d_a))

    d_sv = d_s * s * (1.0 - s)
    acc.score_w += trace.score_input.T @ d_sv
    acc.score_b += d_sv.sum()
    d_score_in = np.outer(d_sv, params.score_w)
    d_emb = d_score_in if trace.dropout_mask is None else d_score_in * trace.dropout_mask

    d_gate = np.outer(d_logits, params.attn_w)
    d_t = d_gate * trace.gate_g
    d_g = d_gate * trace.gate_t
    d_tv = d_t * (1.0 - trace.gate_t**2)
    d_uv = d_g * trace.gate_g * (1.0 - trace.gate_g)
    acc.attn_w += (trace.gate_t * trace.gate_g).T @ d_logits
    acc.attn_v += d_tv.T @ trace.embeddings
    acc.attn_v_b += d_tv.sum(axis=0)
    acc.attn_u += d_uv.T @ trace.embeddings
    acc.attn_u_b += d_uv.sum(axis=0)
    d_emb = d_emb + d_tv @ params.attn_v + d_uv @ params.attn_u

    d_pre = np.multiply(d_emb, trace.embeddings > 0.0, out=d_pre)
    acc.enc_b += d_pre.sum(axis=0)
    if not stacked:
        acc.enc_w += d_pre.T @ trace.features
    return acc


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_update_array(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                      t: int, lr: float, weight_decay: float) -> None:
    """One bias-corrected ADAM step on a single tensor, in place.

    The L2 term weight_decay * theta joins the gradient before the moment
    update (in-gradient regularisation, not AdamW-style decoupling).  The
    operations are those of the textbook expression, in its order, so the
    result is bit-identical to it; only two temporaries are allocated.
    """
    g = grad + weight_decay * theta
    tmp = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += tmp
    np.square(g, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += tmp
    # theta -= lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=g)
    g *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    g /= tmp
    theta -= g


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              hyper: HyperParams) -> None:
    """One optimizer step over the flat buffers (mutates params and state), in
    blocks of ADAM_BLOCK elements so the scratch of `adam_update_array` stays
    in cache; the update is elementwise, so the blocks do not change its bits."""
    state.t += 1
    for lo in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        adam_update_array(params.flat[block], grads.flat[block], state.m.flat[block],
                          state.v.flat[block], state.t, hyper.lr, hyper.weight_decay)


def explained_variance(preds, labels) -> float:
    """1 - Var(labels - preds) / Var(labels); the early-stopping signal."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise TilscoreError("explained variance needs matching non-empty vectors")
    var_y = float(np.var(y))
    if var_y == 0.0:
        raise TilscoreError("explained variance undefined: labels have zero variance")
    return 1.0 - float(np.var(y - p)) / var_y


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_ev: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    best_epoch: int
    best_val_ev: float
    val_preds: np.ndarray  # predictions of the best snapshot on the val set


def train(bags: list, labels, train_idx, val_idx,
          hyper: HyperParams | None = None, seed: int = 0) -> TrainResult:
    """Fit on train bags, early-stop on validation explained variance.

    A bag is any object with `slide_id`, `n_tiles`, `dim` and `features`:
    a `FeatureBag` in memory, or a `bagio.BagFile` whose `features` reads
    its file again.  `features` is asked for once per batch step and once
    per validation pass of a bag, and nothing keeps it afterwards.

    Labels are fractions in [0, 1].  Gradients are averaged per batch of
    bags (no padding; bag sizes vary freely).  A batch's bags are cast into
    rows of one f64 buffer (in several chunks only if they overflow it), and
    each chunk is encoded in one GEMM; each bag's heads then run over its
    rows, in batch order, and the `enc_w` gradient is one GEMM per chunk.
    The validation pass stacks its bags the same way.  At the paper shape a
    bag of 2 or more tiles gets the embeddings of `forward` on it alone, bit
    for bit; a 1-tile bag's (numpy runs a one-row product as GEMV), or a
    small bag's at some small model shapes, can differ in the last bit.
    One generator, seeded from `seed`, draws each epoch's bag order and then,
    right before each training bag's `forward`, that bag's dropout mask
    under `hyper`'s rates; validation runs without dropout.  Every bag's
    dim is checked before the first epoch, and a non-finite loss or
    validation prediction raises TilscoreError naming the epoch and slide.
    Returns the snapshot from the best validation epoch, kept by copying
    each improving epoch into one buffer.  Deterministic for a fixed seed.
    """
    hyper = hyper or HyperParams()
    hyper.validate()
    labels = np.asarray(labels, dtype=np.float64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise TilscoreError("empty training set")
    if np.isin(val_idx, train_idx).any():  # np.intersect1d would import numpy.ma
        raise TilscoreError("train and validation sets overlap")
    if np.any(labels < 0.0) or np.any(labels > 1.0):
        raise TilscoreError("labels must be fractions in [0, 1]")
    if val_idx.size == 0:
        raise TilscoreError("empty validation set")
    if np.var(labels[val_idx]) == 0.0:
        raise TilscoreError("validation labels are constant; explained variance undefined")

    dim = bags[train_idx[0]].dim
    every_idx = np.concatenate([train_idx, val_idx])
    for i in every_idx:
        if bags[i].dim != dim:
            raise TilscoreError(f"bag {bags[i].slide_id!r} has dim {bags[i].dim}, "
                                f"the first training bag {dim}")
    params = init_params(seed, hyper, dim)
    state = AdamState.for_params(params)
    grad_mean = params.zeros_like()  # the batch-mean gradient, reused every batch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    # the stacked rows of one batch, capped, but never fewer than the largest
    # bag of either set; `emb` holds their embeddings, then their d_pre
    sizes = sorted(bags[i].n_tiles for i in train_idx)
    rows = max(max(bags[i].n_tiles for i in every_idx),
               min(STACK_ROWS, sum(sizes[-hyper.batch_size:])))
    feats = np.empty((rows, dim))
    emb = np.empty((rows, hyper.enc_out))

    def chunks(idx):
        """Split bag indices, in order, into runs of at most `rows` tiles."""
        run, used = [], 0
        for i in idx:
            if used + bags[i].n_tiles > rows:
                yield run
                run, used = [], 0
            run.append(i)
            used += bags[i].n_tiles
        yield run

    def encode(p: ModelParams, chunk) -> list[slice]:
        """Stack the chunk's bags into `feats` and encode them into `emb` in
        one GEMM; returns each bag's rows."""
        spans, used = [], 0
        for i in chunk:
            spans.append(slice(used, used + bags[i].n_tiles))
            np.copyto(feats[spans[-1]], bags[i].features)
            used = spans[-1].stop
        _encode(p, feats[:used], out=emb[:used])
        return spans

    def val_predictions(p: ModelParams) -> np.ndarray:
        preds = []
        for chunk in chunks(val_idx):
            for i, span in zip(chunk, encode(p, chunk)):
                preds.append(forward(p, feats[span], embeddings=emb[span]).prediction)
                if not math.isfinite(preds[-1]):
                    raise TilscoreError(f"non-finite validation prediction {preds[-1]} in epoch "
                                        f"{epoch} on slide {bags[i].slide_id!r} at lr {hyper.lr!r}")
        return np.array(preds)

    best = None  # (ev, epoch, preds) of the epoch whose parameters `snapshot` holds
    snapshot = params.zeros_like()
    history: list[EpochRecord] = []
    for epoch in range(1, hyper.max_epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, order.size, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            grad_mean.flat.fill(0.0)
            batch_chunks = list(chunks(batch))
            for chunk in batch_chunks:
                spans = encode(params, chunk)
                for i, span in zip(chunk, spans):
                    mask = _dropout_mask(emb[span].shape, hyper, rng)
                    trace = forward(params, feats[span], mask, embeddings=emb[span])
                    bag_loss = loss(trace.prediction, labels[i])
                    if not math.isfinite(bag_loss):
                        raise TilscoreError(f"non-finite loss {bag_loss} in epoch {epoch} "
                                            f"on slide {bags[i].slide_id!r} at lr {hyper.lr!r}")
                    epoch_loss += bag_loss
                    # backward is linear in d_prediction: scaling it averages
                    # the batch; it writes d_pre over the bag's embeddings
                    backward(trace, params, loss_grad(trace.prediction, labels[i]) / batch.size,
                             acc=grad_mean, d_pre=emb[span])
                used = spans[-1].stop
                if len(batch_chunks) == 1:
                    np.matmul(emb[:used].T, feats[:used], out=grad_mean.enc_w)
                else:
                    grad_mean.enc_w += emb[:used].T @ feats[:used]
            adam_step(params, grad_mean, state, hyper)
        preds = val_predictions(params)
        ev = explained_variance(preds, labels[val_idx])
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss / order.size, val_ev=ev))
        if best is None or ev > best[0]:
            best = (ev, epoch, preds)
            np.copyto(snapshot.flat, params.flat)
        elif epoch - best[1] >= hyper.patience:
            break
    return TrainResult(params=snapshot, history=history, best_epoch=best[1],
                       best_val_ev=best[0], val_preds=best[2])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, hyper: HyperParams, path) -> None:
    """Binary snapshot: magic, version, hyper block, then `params.flat` f64 LE."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<H", CKPT_VERSION))
        fh.write(struct.pack(_CKPT_HYPER, *astuple(hyper), params.dim))
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path) -> tuple[ModelParams, HyperParams]:
    """Read a checkpoint written by `save_checkpoint`; a bad magic, version
    or length, or a non-finite value, raises TilscoreError naming the file."""
    data = Path(path).read_bytes()
    header = 6 + struct.calcsize(_CKPT_HYPER)
    if data[:4] != CKPT_MAGIC:
        raise TilscoreError(f"{path}: bad checkpoint magic {data[:4]!r}")
    if len(data) < header:
        raise TilscoreError(f"{path}: checkpoint truncated in its header "
                            f"({len(data)} of {header} bytes)")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CKPT_VERSION:
        raise TilscoreError(f"{path}: unsupported checkpoint version {version}")
    *values, dim = struct.unpack_from(_CKPT_HYPER, data, 6)
    hyper = HyperParams(*values)
    shapes = param_shapes(hyper, dim)
    offset = header
    for name, shape in shapes.items():
        count = math.prod(shape)
        if offset + 8 * count > len(data):
            raise TilscoreError(f"{path}: checkpoint truncated in tensor {name} "
                                f"({len(data) - offset} of {8 * count} bytes)")
        if not np.isfinite(np.frombuffer(data, dtype="<f8", count=count, offset=offset)).all():
            raise TilscoreError(f"{path}: checkpoint tensor {name} holds non-finite values")
        offset += count * 8
    if offset != len(data):
        raise TilscoreError(f"{path}: checkpoint has {len(data) - offset} trailing bytes")
    return ModelParams(np.frombuffer(data, "<f8", offset=header).astype(float), shapes), hyper
