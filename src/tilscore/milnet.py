"""Gated attention-MIL regressor with hand-written reverse-mode gradients.

One bag of tile features h_k goes through a shared ReLU post-encoder
e_k = relu(W h_k + b); a gated attention head scores each tile with
logit_k = w . (tanh(V e_k + c) * sigmoid(U e_k + d)) and softmax-normalises
over the bag; a sigmoid score head maps each tile to s_k in (0, 1); the
slide prediction is the attention-weighted mean of the tile scores.

Training uses per-bag analytic gradients (verified against central finite
differences), ADAM with in-gradient L2 weight decay, and early stopping on
validation explained variance.  Everything is float64 and deterministic
for a fixed seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .bagio import FeatureBag

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_MAGIC = b"ECTM"
CKPT_VERSION = 1
_CKPT_HYPER = "<ddIIIddIII"  # lr, decay, batch, hidden, enc_out, dropouts, epochs, patience, dim


class ModelError(ValueError):
    """Invalid model input (shape mismatch, stale trace, bad labels)."""


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


PARAM_FIELDS = ("enc_w", "enc_b", "attn_v", "attn_v_b", "attn_u", "attn_u_b",
                "attn_w", "score_w", "score_b")


@dataclass
class ModelParams:
    """All trainable tensors (float64). Also reused as a gradient container."""

    enc_w: np.ndarray  # (enc_out, dim)
    enc_b: np.ndarray  # (enc_out,)
    attn_v: np.ndarray  # (attn_hidden, enc_out)
    attn_v_b: np.ndarray  # (attn_hidden,)
    attn_u: np.ndarray  # (attn_hidden, enc_out)
    attn_u_b: np.ndarray  # (attn_hidden,)
    attn_w: np.ndarray  # (attn_hidden,)
    score_w: np.ndarray  # (enc_out,)
    score_b: np.ndarray  # (1,)

    @property
    def dim(self) -> int:
        return self.enc_w.shape[1]

    @property
    def enc_out(self) -> int:
        return self.enc_w.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(**{f: getattr(self, f).copy() for f in PARAM_FIELDS})

    def zeros_like(self) -> "ModelParams":
        return ModelParams(**{f: np.zeros_like(getattr(self, f)) for f in PARAM_FIELDS})

    def fill(self, value: float) -> None:
        for f in PARAM_FIELDS:
            getattr(self, f).fill(value)

    def allclose(self, other: "ModelParams", atol: float = 0.0) -> bool:
        return all(np.allclose(getattr(self, f), getattr(other, f), rtol=0.0, atol=atol)
                   for f in PARAM_FIELDS)


def init_params(seed: int, hyper: HyperParams, dim: int = 2048) -> ModelParams:
    """Uniform +/- 1/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)

    def uni(shape, fan_in):
        return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)

    h = hyper
    return ModelParams(
        enc_w=uni((h.enc_out, dim), dim),
        enc_b=np.zeros(h.enc_out),
        attn_v=uni((h.attn_hidden, h.enc_out), h.enc_out),
        attn_v_b=np.zeros(h.attn_hidden),
        attn_u=uni((h.attn_hidden, h.enc_out), h.enc_out),
        attn_u_b=np.zeros(h.attn_hidden),
        attn_w=uni(h.attn_hidden, h.attn_hidden),
        score_w=uni(h.enc_out, h.enc_out),
        score_b=np.zeros(1),
    )


@dataclass
class ForwardTrace:
    """Forward activations cached for the backward pass."""

    features: np.ndarray  # (K, dim) float64
    embeddings: np.ndarray  # (K, enc_out), post-ReLU
    gate_t: np.ndarray  # tanh branch (K, attn_hidden)
    gate_g: np.ndarray  # sigmoid branch (K, attn_hidden)
    attn_logits: np.ndarray  # (K,)
    attention: np.ndarray  # (K,), sums to 1
    score_input: np.ndarray  # (K, enc_out): embeddings after dropout mask
    tile_scores: np.ndarray  # (K,), each in (0, 1)
    prediction: float
    dropout_mask: np.ndarray | None  # None in eval mode


def _dropout_mask(shape, hyper: HyperParams, rng: np.random.Generator) -> np.ndarray:
    """Combined tile- and feature-level inverted-scaling mask for the score head."""
    k, e = shape
    mask = np.ones(shape)
    if hyper.dropout_feature > 0.0:
        keep = 1.0 - hyper.dropout_feature
        mask *= (rng.random(shape) < keep) / keep
    if hyper.dropout_tile > 0.0:
        keep = 1.0 - hyper.dropout_tile
        mask *= ((rng.random(k) < keep) / keep)[:, None]
    return mask


def forward(params: ModelParams, bag: FeatureBag | np.ndarray, hyper: HyperParams | None = None,
            train: bool = False, rng: np.random.Generator | None = None,
            dropout_mask: np.ndarray | None = None) -> ForwardTrace:
    """Run the model over one bag.

    Eval mode (default) is deterministic.  Train mode draws the dropout
    masks from `rng`; the attention path always sees undropped embeddings.
    An explicit `dropout_mask` replays fixed masks (gradient checks).
    """
    h = np.asarray(bag.features if isinstance(bag, FeatureBag) else bag, dtype=np.float64)
    if h.ndim != 2:
        raise ModelError("bag features must be 2-d")
    if h.shape[1] != params.dim:
        raise ModelError(f"bag dim {h.shape[1]} does not match model dim {params.dim}")
    if train and rng is None and dropout_mask is None:
        raise ModelError("train-mode forward needs an rng for dropout")

    emb = np.maximum(h @ params.enc_w.T + params.enc_b, 0.0)
    gate_t = np.tanh(emb @ params.attn_v.T + params.attn_v_b)
    gate_g = expit(emb @ params.attn_u.T + params.attn_u_b)
    logits = (gate_t * gate_g) @ params.attn_w
    shifted = np.exp(logits - logits.max())
    attention = shifted / shifted.sum()

    mask = dropout_mask
    if mask is None and train:
        mask = _dropout_mask(emb.shape, hyper or HyperParams(), rng)
    score_in = emb if mask is None else emb * mask
    tile_scores = expit(score_in @ params.score_w + params.score_b[0])
    prediction = float(attention @ tile_scores)
    return ForwardTrace(features=h, embeddings=emb, gate_t=gate_t, gate_g=gate_g,
                        attn_logits=logits, attention=attention, score_input=score_in,
                        tile_scores=tile_scores, prediction=prediction, dropout_mask=mask)


def loss(prediction: float, label: float) -> float:
    """Squared error on the [0, 1] scale."""
    return (prediction - label) ** 2


def loss_grad(prediction: float, label: float) -> float:
    return 2.0 * (prediction - label)


def backward(trace: ForwardTrace, params: ModelParams, d_prediction: float) -> ModelParams:
    """Exact gradients of d_prediction * prediction w.r.t. every parameter,
    under the dropout masks realised in `trace`."""
    if trace.embeddings.shape[1] != params.enc_out or trace.features.shape[1] != params.dim:
        raise ModelError("trace does not match parameter shapes")
    a = trace.attention
    s = trace.tile_scores

    d_s = d_prediction * a
    d_a = d_prediction * s
    d_logits = a * (d_a - float(a @ d_a))

    d_sv = d_s * s * (1.0 - s)
    g_score_w = trace.score_input.T @ d_sv
    g_score_b = np.array([d_sv.sum()])
    d_score_in = np.outer(d_sv, params.score_w)
    d_emb = d_score_in if trace.dropout_mask is None else d_score_in * trace.dropout_mask

    d_gate = np.outer(d_logits, params.attn_w)
    d_t = d_gate * trace.gate_g
    d_g = d_gate * trace.gate_t
    d_tv = d_t * (1.0 - trace.gate_t**2)
    d_uv = d_g * trace.gate_g * (1.0 - trace.gate_g)
    g_attn_w = (trace.gate_t * trace.gate_g).T @ d_logits
    g_attn_v = d_tv.T @ trace.embeddings
    g_attn_v_b = d_tv.sum(axis=0)
    g_attn_u = d_uv.T @ trace.embeddings
    g_attn_u_b = d_uv.sum(axis=0)
    d_emb = d_emb + d_tv @ params.attn_v + d_uv @ params.attn_u

    d_pre = d_emb * (trace.embeddings > 0.0)
    g_enc_w = d_pre.T @ trace.features
    g_enc_b = d_pre.sum(axis=0)
    return ModelParams(enc_w=g_enc_w, enc_b=g_enc_b, attn_v=g_attn_v, attn_v_b=g_attn_v_b,
                       attn_u=g_attn_u, attn_u_b=g_attn_u_b, attn_w=g_attn_w,
                       score_w=g_score_w, score_b=g_score_b)


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
    """Apply one optimizer step over every tensor (mutates params and state)."""
    state.t += 1
    for name in PARAM_FIELDS:
        adam_update_array(getattr(params, name), getattr(grads, name),
                          getattr(state.m, name), getattr(state.v, name),
                          state.t, hyper.lr, hyper.weight_decay)


def explained_variance(preds, labels) -> float:
    """1 - Var(labels - preds) / Var(labels); the early-stopping signal."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ModelError("explained variance needs matching non-empty vectors")
    var_y = float(np.var(y))
    if var_y == 0.0:
        raise ModelError("explained variance undefined: labels have zero variance")
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


def train(bags: list[FeatureBag], labels, train_idx, val_idx,
          hyper: HyperParams | None = None, seed: int = 0) -> TrainResult:
    """Fit on train bags, early-stop on validation explained variance.

    Labels are fractions in [0, 1].  Gradients are averaged per batch of
    bags (no padding; bag sizes vary freely).  Returns the snapshot from
    the best validation epoch.  Deterministic for a fixed seed.
    """
    hyper = hyper or HyperParams()
    labels = np.asarray(labels, dtype=np.float64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ModelError("empty training set")
    if np.intersect1d(train_idx, val_idx).size:
        raise ModelError("train and validation sets overlap")
    if np.any(labels < 0.0) or np.any(labels > 1.0):
        raise ModelError("labels must be fractions in [0, 1]")
    if val_idx.size and np.var(labels[val_idx]) == 0.0:
        raise ModelError("validation labels are constant; explained variance undefined")
    if val_idx.size == 0:
        raise ModelError("empty validation set")

    dim = bags[train_idx[0]].dim
    params = init_params(seed, hyper, dim)
    state = AdamState.for_params(params)
    grad_mean = params.zeros_like()  # the batch-mean gradient, reused every batch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    def val_predictions(p: ModelParams) -> np.ndarray:
        return np.array([forward(p, bags[i]).prediction for i in val_idx])

    best = None  # (ev, epoch, params, preds)
    history: list[EpochRecord] = []
    since_improve = 0
    for epoch in range(1, hyper.max_epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, order.size, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            grad_mean.fill(0.0)
            for i in batch:
                trace = forward(params, bags[i], hyper, train=True, rng=rng)
                epoch_loss += loss(trace.prediction, labels[i])
                # backward is linear in d_prediction: scaling it averages the batch
                g = backward(trace, params, loss_grad(trace.prediction, labels[i]) / batch.size)
                for name in PARAM_FIELDS:
                    acc = getattr(grad_mean, name)
                    acc += getattr(g, name)
            adam_step(params, grad_mean, state, hyper)
        preds = val_predictions(params)
        ev = explained_variance(preds, labels[val_idx])
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss / order.size, val_ev=ev))
        if best is None or ev > best[0]:
            best = (ev, epoch, params.copy(), preds)
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= hyper.patience:
            break
    return TrainResult(params=best[2], history=history, best_epoch=best[1],
                       best_val_ev=best[0], val_preds=best[3])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, hyper: HyperParams, path) -> None:
    """Binary snapshot: magic, version, hyper block, then all tensors f64 LE."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<H", CKPT_VERSION))
        fh.write(struct.pack(
            _CKPT_HYPER, hyper.lr, hyper.weight_decay, hyper.batch_size,
            hyper.attn_hidden, hyper.enc_out, hyper.dropout_feature,
            hyper.dropout_tile, hyper.max_epochs, hyper.patience, params.dim))
        for name in PARAM_FIELDS:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, HyperParams]:
    """Read a checkpoint written by `save_checkpoint`; a bad magic, version
    or length raises ModelError naming the file."""
    data = Path(path).read_bytes()
    header = 6 + struct.calcsize(_CKPT_HYPER)
    if data[:4] != CKPT_MAGIC:
        raise ModelError(f"{path}: bad checkpoint magic {data[:4]!r}")
    if len(data) < header:
        raise ModelError(f"{path}: checkpoint truncated in its header "
                         f"({len(data)} of {header} bytes)")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CKPT_VERSION:
        raise ModelError(f"{path}: unsupported checkpoint version {version}")
    block = struct.unpack_from(_CKPT_HYPER, data, 6)
    hyper = HyperParams(lr=block[0], weight_decay=block[1], batch_size=block[2],
                        attn_hidden=block[3], enc_out=block[4], dropout_feature=block[5],
                        dropout_tile=block[6], max_epochs=block[7], patience=block[8])
    dim = block[9]
    shapes = {
        "enc_w": (hyper.enc_out, dim), "enc_b": (hyper.enc_out,),
        "attn_v": (hyper.attn_hidden, hyper.enc_out), "attn_v_b": (hyper.attn_hidden,),
        "attn_u": (hyper.attn_hidden, hyper.enc_out), "attn_u_b": (hyper.attn_hidden,),
        "attn_w": (hyper.attn_hidden,), "score_w": (hyper.enc_out,), "score_b": (1,),
    }
    tensors = {}
    offset = header
    for name in PARAM_FIELDS:
        shape = shapes[name]
        count = math.prod(shape)
        if offset + 8 * count > len(data):
            raise ModelError(f"{path}: checkpoint truncated in tensor {name} "
                             f"({len(data) - offset} of {8 * count} bytes)")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        tensors[name] = arr.reshape(shape).astype(np.float64)
    if offset != len(data):
        raise ModelError(f"{path}: checkpoint has {len(data) - offset} trailing bytes")
    return ModelParams(**tensors), hyper
