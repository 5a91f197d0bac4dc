import dataclasses
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from conftest import raises_error
from tilscore import milnet
from tilscore.bagio import BagFile, FeatureBag, write_bag
from tilscore.milnet import (
    ADAM_BLOCK,
    ADAM_EPS,
    PARAM_FIELDS,
    AdamState,
    HyperParams,
    ModelParams,
    TrainResult,
    adam_step,
    adam_update_array,
    backward,
    explained_variance,
    forward,
    init_params,
    load_checkpoint,
    loss,
    loss_grad,
    save_checkpoint,
    train,
)

SMALL = HyperParams(enc_out=16, attn_hidden=8)


def make_bag(rng, n_tiles, dim, slide_id="t"):
    return FeatureBag(
        slide_id=slide_id,
        features=rng.normal(size=(n_tiles, dim)).astype(np.float32),
        tile_xy=np.column_stack([np.arange(n_tiles) * 512, np.zeros(n_tiles, dtype=int)]),
        mpp=0.5,
    )


def naive_forward(params, feats):
    """Straight-line per-tile re-implementation of the same equations."""
    logits, scores = [], []
    for k in range(feats.shape[0]):
        h = feats[k].astype(np.float64)
        e = np.maximum(params.enc_w @ h + params.enc_b, 0.0)
        t = np.tanh(params.attn_v @ e + params.attn_v_b)
        g = 1.0 / (1.0 + np.exp(-(params.attn_u @ e + params.attn_u_b)))
        logits.append(float(params.attn_w @ (t * g)))
        scores.append(1.0 / (1.0 + np.exp(-(params.score_w @ e + params.score_b[0]))))
    logits = np.array(logits)
    ex = np.exp(logits - logits.max())
    attn = ex / ex.sum()
    return float(attn @ np.array(scores))


def loss_of(params, bag, label, mask=None):
    trace = forward(params, bag, dropout_mask=mask)
    return loss(trace.prediction, label)


def fd_gradients(params, bag, label, step=1e-6, mask=None):
    """Central finite differences of the loss over every parameter entry."""
    grads = params.zeros_like()
    for name in PARAM_FIELDS:
        theta = getattr(params, name)
        g = getattr(grads, name)
        flat_t = theta.ravel()
        flat_g = g.ravel()
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + step
            up = loss_of(params, bag, label, mask)
            flat_t[i] = orig - step
            down = loss_of(params, bag, label, mask)
            flat_t[i] = orig
            flat_g[i] = (up - down) / (2.0 * step)
    return grads


def max_rel_error(analytic, numeric, floor=1e-3):
    worst = 0.0
    for name in PARAM_FIELDS:
        a = getattr(analytic, name).ravel()
        n = getattr(numeric, name).ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def textbook_adam(theta, grad, m, v, t, lr, weight_decay):
    """ADAM with in-gradient L2 decay, written as the plain expression."""
    g = grad + weight_decay * theta
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * np.square(g)
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_train(bags, labels, train_idx, hyper, seed):
    """The training loop in its first form: a fresh gradient per bag,
    divided by the batch size and summed into a fresh container, then the
    textbook ADAM expression.  Returns the parameters after every epoch."""
    params = init_params(seed, hyper, bags[train_idx[0]].dim)
    m, v = params.zeros_like(), params.zeros_like()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    snapshots, t = [], 0
    for _ in range(hyper.max_epochs):
        order = rng.permutation(train_idx)
        for start in range(0, order.size, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            grad_sum = params.zeros_like()
            for i in batch:
                mask = milnet._dropout_mask((bags[i].n_tiles, hyper.enc_out), hyper, rng)
                trace = forward(params, bags[i], mask)
                g = backward(trace, params, loss_grad(trace.prediction, labels[i]))
                for name in PARAM_FIELDS:
                    acc = getattr(grad_sum, name)
                    acc += getattr(g, name) / batch.size
            t += 1
            for name in PARAM_FIELDS:
                textbook_adam(getattr(params, name), getattr(grad_sum, name), getattr(m, name),
                              getattr(v, name), t, hyper.lr, hyper.weight_decay)
        snapshots.append(params.copy())
    return snapshots


class TestInit:
    def test_deterministic(self):
        a = init_params(7, SMALL, dim=12)
        b = init_params(7, SMALL, dim=12)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_seeds_differ(self):
        a = init_params(1, SMALL, dim=12)
        b = init_params(2, SMALL, dim=12)
        assert not np.array_equal(a.enc_w, b.enc_w)

    def test_default_shapes(self):
        p = init_params(0, HyperParams(), dim=2048)
        assert p.enc_w.shape == (512, 2048)
        assert p.attn_v.shape == (128, 512)
        assert p.attn_u.shape == (128, 512)
        assert p.attn_w.shape == (128,)
        assert p.score_w.shape == (512,)
        assert (p.enc_b == 0).all() and (p.score_b == 0).all()


class TestLayout:
    def test_each_tensor_is_a_view_of_flat_at_its_offset(self):
        params = init_params(3, SMALL, dim=7)
        shapes = milnet.param_shapes(SMALL, 7)
        assert params.shapes == shapes
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == sum(math.prod(shape) for shape in shapes.values())
        offset = 0
        for name, shape in shapes.items():
            view = getattr(params, name)
            assert view.base is params.flat and view.shape == shape, name
            assert np.array_equal(view.ravel(), params.flat[offset : offset + view.size]), name
            offset += view.size
        attn_u_at = sum(math.prod(shapes[name]) for name in PARAM_FIELDS[:4])
        params.attn_u[2, 3] = 7.5
        assert params.flat[attn_u_at + 2 * SMALL.enc_out + 3] == 7.5
        params.flat[attn_u_at + SMALL.enc_out] = -2.25
        assert params.attn_u[1, 0] == -2.25

    def test_copy_and_zeros_like_own_fresh_buffers(self):
        params = init_params(4, SMALL, dim=7)
        before = params.flat.copy()
        for other in (params.copy(), params.zeros_like()):
            assert not np.shares_memory(other.flat, params.flat)
            for name in PARAM_FIELDS:
                assert getattr(other, name).base is other.flat, name
            other.flat[:] = 5.0
            assert np.array_equal(params.flat, before)
        assert not params.zeros_like().flat.any()
        assert np.array_equal(params.copy().flat, before)

    def test_keyword_construction_packs_copies(self):
        tensors = {name: np.full(shape, float(i))
                   for i, (name, shape) in enumerate(milnet.param_shapes(SMALL, 5).items())}
        params = ModelParams(**tensors)
        assert params.flat.dtype == np.float64
        for name in PARAM_FIELDS:
            assert getattr(params, name).base is params.flat, name
            assert np.array_equal(getattr(params, name), tensors[name]), name
            tensors[name] += 100.0  # the caller's array changes; the params do not
        for i, name in enumerate(PARAM_FIELDS):
            assert (getattr(params, name) == float(i)).all(), name


class TestForward:
    def test_single_tile_identity(self):
        rng = np.random.default_rng(0)
        params = init_params(3, SMALL, dim=10)
        bag = make_bag(rng, 1, 10)
        trace = forward(params, bag)
        assert trace.attention[0] == 1.0
        assert trace.prediction == trace.tile_scores[0]

    def test_duplicated_tile_equals_single(self):
        rng = np.random.default_rng(1)
        params = init_params(4, SMALL, dim=10)
        single = make_bag(rng, 1, 10)
        dup = FeatureBag(slide_id="dup", features=np.repeat(single.features, 100, axis=0),
                         tile_xy=np.zeros((100, 2), dtype=np.uint32), mpp=0.5)
        y1 = forward(params, single).prediction
        y100 = forward(params, dup).prediction
        assert y100 == pytest.approx(y1, abs=1e-12)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(2)
        params = init_params(5, SMALL, dim=10)
        bag = make_bag(rng, 5, 10)
        trace = forward(params, bag)
        assert trace.prediction == pytest.approx(naive_forward(params, bag.features), abs=1e-12)

    def test_attention_normalised_and_bounds(self):
        rng = np.random.default_rng(3)
        params = init_params(6, SMALL, dim=10)
        bag = make_bag(rng, 17, 10)
        trace = forward(params, bag)
        assert abs(trace.attention.sum() - 1.0) <= 1e-12
        assert np.all(trace.attention >= 0.0)
        assert trace.tile_scores.min() <= trace.prediction <= trace.tile_scores.max()
        assert 0.0 < trace.prediction < 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        params = init_params(7, SMALL, dim=10)
        bag = make_bag(rng, 23, 10)
        perm = rng.permutation(23)
        shuffled = FeatureBag(slide_id="p", features=bag.features[perm],
                              tile_xy=bag.tile_xy[perm], mpp=0.5)
        assert forward(params, shuffled).prediction == pytest.approx(
            forward(params, bag).prediction, abs=1e-12)

    def test_negligible_attention_tile(self):
        # two tiles engineered to have attention logits 40 apart: the cold
        # tile carries < 1e-15 weight and cannot move the prediction
        hyper = HyperParams(enc_out=1, attn_hidden=1)
        params = ModelParams(
            enc_w=np.array([[1.0]]), enc_b=np.zeros(1),
            attn_v=np.array([[50.0]]), attn_v_b=np.zeros(1),
            attn_u=np.array([[0.0]]), attn_u_b=np.zeros(1),
            attn_w=np.array([80.0]),
            score_w=np.array([0.3]), score_b=np.zeros(1),
        )
        hot = FeatureBag(slide_id="hot", features=np.array([[5.0]], dtype=np.float32),
                         tile_xy=np.zeros((1, 2)), mpp=0.5)
        both = FeatureBag(slide_id="both", features=np.array([[5.0], [0.0]], dtype=np.float32),
                          tile_xy=np.zeros((2, 2)), mpp=0.5)
        t2 = forward(params, both)
        logits = (t2.gate_t * t2.gate_g) @ params.attn_w
        assert logits[0] - logits[1] >= 39.9
        assert t2.attention[1] < 1e-15
        assert abs(t2.prediction - forward(params, hot).prediction) < 1e-15

    def test_embeddings_of_another_shape_rejected(self):
        rng = np.random.default_rng(4)
        params = init_params(0, SMALL, dim=12)
        bag = make_bag(rng, 5, 12)
        emb = np.maximum(bag.features.astype(np.float64) @ params.enc_w.T + params.enc_b, 0.0)
        assert forward(params, bag, embeddings=emb).prediction == forward(params, bag).prediction
        for shape in ((4, 16), (5, 15), (5,), (1, 5, 16)):
            with raises_error(f"embeddings of shape {shape} do not match the bag's (5, 16)"):
                forward(params, bag, embeddings=np.zeros(shape))

    def test_dropout_mask_of_another_shape_rejected(self):
        params = init_params(0, HyperParams(enc_out=8, attn_hidden=4), dim=6)
        bag = make_bag(np.random.default_rng(4), 3, 6)
        assert forward(params, bag, np.ones((3, 8))).prediction == forward(params, bag).prediction
        for shape in ((8,), (3, 1), (1, 8)):
            with raises_error(f"dropout mask of shape {shape} does not match the bag's (3, 8)"):
                forward(params, bag, np.ones(shape))

    def test_dim_mismatch(self):
        params = init_params(0, SMALL, dim=10)
        bag = make_bag(np.random.default_rng(0), 3, 11)
        with raises_error("bag dim 11 does not match model dim 10"):
            forward(params, bag)

    def test_eval_mode_deterministic_train_mode_not(self):
        rng = np.random.default_rng(5)
        params = init_params(8, SMALL, dim=10)
        bag = make_bag(rng, 30, 10)
        assert forward(params, bag).prediction == forward(params, bag).prediction
        ta = forward(params, bag, milnet._dropout_mask((30, SMALL.enc_out), SMALL,
                                                       np.random.default_rng(1)))
        tb = forward(params, bag, milnet._dropout_mask((30, SMALL.enc_out), SMALL,
                                                       np.random.default_rng(2)))
        assert ta.prediction != tb.prediction


def former_dropout_mask(shape, hyper, rng):
    """The mask as the product of fresh arrays, the formula `_dropout_mask` replaced."""
    k, e = shape
    mask = np.ones(shape)
    if hyper.dropout_feature > 0.0:
        keep = 1.0 - hyper.dropout_feature
        mask *= (rng.random(shape) < keep) / keep
    if hyper.dropout_tile > 0.0:
        keep = 1.0 - hyper.dropout_tile
        mask *= ((rng.random(k) < keep) / keep)[:, None]
    return mask


class TestSigmoid:
    def test_within_two_ulps_of_expit(self):
        grid = np.random.default_rng(0).uniform(-800.0, 800.0, size=20_000)
        x = np.concatenate([grid, np.linspace(-40.0, 40.0, 4001),
                            [np.inf, -np.inf, 0.0, -0.0, np.nan]])
        ours = x.copy()
        assert milnet._sigmoid(ours) is ours  # written over its argument
        with np.errstate(over="ignore"):
            assert ours.tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()
        # expit is the same formula on the C library's exp; numpy's exp may
        # differ from that by 1 ulp, which the sum and reciprocal can make 2
        ref = expit(x)
        finite = ~np.isnan(x)
        # both are non-negative doubles, so their bit patterns order like their values
        ulps = np.abs(ours[finite].view(np.int64) - ref[finite].view(np.int64))
        assert ulps.max() <= 2
        assert np.isnan(ours[~finite]).all()
        assert ours[-5:-1].tolist() == [1.0, 0.0, 0.5, 0.5]

    def test_deep_negative_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert milnet._sigmoid(np.array([-1000.0, -745.0])).tolist() == [0.0, 0.0]


class TestDropoutMask:
    @pytest.mark.parametrize("k", [64, 1250])
    @pytest.mark.parametrize("feature, tile", [(0.0, 0.0), (0.4, 0.0), (0.0, 0.1), (0.4, 0.1)])
    def test_bit_identical_to_former_formula(self, k, feature, tile):
        hyper = HyperParams(dropout_feature=feature, dropout_tile=tile)
        rng_new, rng_old = np.random.default_rng(k), np.random.default_rng(k)
        mask = milnet._dropout_mask((k, 512), hyper, rng_new)
        expected = former_dropout_mask((k, 512), hyper, rng_old)
        assert mask.dtype == np.float64
        assert mask.tobytes() == expected.tobytes()
        # the same draws in the same order: both generators end in one state
        assert rng_new.random() == rng_old.random()


class TestLoss:
    def test_values(self):
        assert loss(0.5, 0.5) == 0.0
        assert loss(1.0, 0.0) == 1.0
        assert loss(0.3, 0.1) == pytest.approx(0.04, abs=1e-15)
        assert loss_grad(0.3, 0.1) == pytest.approx(0.4, abs=1e-15)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(6)
        params = init_params(9, SMALL, dim=10)
        bag = make_bag(rng, 4, 10)
        g = backward(forward(params, bag), params, 0.0)
        for name in PARAM_FIELDS:
            assert not getattr(g, name).any()

    def test_uniform_attention_path(self):
        # zero attention head weights: logits constant, attention uniform
        rng = np.random.default_rng(7)
        params = init_params(10, SMALL, dim=10)
        params.attn_w[:] = 0.0
        bag = make_bag(rng, 5, 10)
        trace = forward(params, bag)
        assert np.allclose(trace.attention, 0.2, atol=1e-15)
        label = 0.7
        analytic = backward(trace, params, loss_grad(trace.prediction, label))
        numeric = fd_gradients(params, bag, label)
        assert max_rel_error(analytic, numeric) <= 1e-6

    def test_finite_differences_random_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            params = init_params(20 + trial, SMALL, dim=9)
            bag = make_bag(rng, int(rng.integers(2, 7)), 9)
            label = float(rng.random())
            trace = forward(params, bag)
            analytic = backward(trace, params, loss_grad(trace.prediction, label))
            numeric = fd_gradients(params, bag, label)
            assert max_rel_error(analytic, numeric) <= 1e-6

    def test_finite_differences_under_dropout_masks(self):
        rng = np.random.default_rng(9)
        params = init_params(31, SMALL, dim=9)
        bag = make_bag(rng, 6, 9)
        trace = forward(params, bag, milnet._dropout_mask((6, SMALL.enc_out), SMALL,
                                                          np.random.default_rng(3)))
        mask = trace.dropout_mask
        assert mask is not None and (mask == 0).any()
        label = 0.4
        analytic = backward(trace, params, loss_grad(trace.prediction, label))
        numeric = fd_gradients(params, bag, label, mask=mask)
        assert max_rel_error(analytic, numeric) <= 1e-6

    def test_accumulating_form_adds_all_but_enc_w(self):
        rng = np.random.default_rng(11)
        params = init_params(32, SMALL, dim=9)
        for train_mode in (False, True):
            bag = make_bag(rng, 7, 9)
            mask = (milnet._dropout_mask((7, SMALL.enc_out), SMALL, np.random.default_rng(4))
                    if train_mode else None)
            trace = forward(params, bag, mask)
            full = backward(trace, params, 0.3)
            acc = init_params(33, SMALL, dim=9)  # nonzero: backward must add, not write
            start = acc.copy()
            d_pre = np.empty((7, SMALL.enc_out))
            assert backward(trace, params, 0.3, acc=acc, d_pre=d_pre) is acc
            assert np.array_equal(acc.enc_w, start.enc_w)
            for name in PARAM_FIELDS[1:]:
                assert np.array_equal(getattr(acc, name),
                                      getattr(start, name) + getattr(full, name)), name
            assert np.array_equal(d_pre.T @ trace.features, full.enc_w)

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(10)
        params = init_params(1, SMALL, dim=10)
        other = init_params(1, HyperParams(enc_out=4, attn_hidden=3), dim=10)
        trace = forward(params, make_bag(rng, 3, 10))
        with raises_error("trace does not match parameter shapes"):
            backward(trace, other, 1.0)


COMPLEX_STEP = 1e-30
PAPER = HyperParams()  # 2048 -> 512 -> 128


def complex_predictions(params, bags, masks):
    """`forward`'s predictions on `bags` (real feature arrays) under their
    dropout `masks`, written again for parameters of any dtype, with the bags
    encoded in one stacked GEMM.  At complex parameters, ReLU keeps the
    entries whose real part is positive and the softmax shift is the largest
    real logit, so each prediction is analytic in the parameters away from
    ReLU's kink."""
    pre = np.concatenate(bags) @ params.enc_w.T + params.enc_b
    rows = np.split(pre * (pre.real > 0.0), np.cumsum([len(bag) for bag in bags])[:-1])
    preds = []
    for emb, mask in zip(rows, masks, strict=True):
        gate_t = np.tanh(emb @ params.attn_v.T + params.attn_v_b)
        gate_g = 1.0 / (1.0 + np.exp(-(emb @ params.attn_u.T + params.attn_u_b)))
        logits = (gate_t * gate_g) @ params.attn_w
        weights = np.exp(logits - logits.real.max())
        scores = 1.0 / (1.0 + np.exp(-(emb * mask @ params.score_w + params.score_b[0])))
        preds.append(weights @ scores / weights.sum())
    return np.array(preds)


def assert_directional_derivatives(params, grads, f, seed):
    """Along 8 random directions v, each grads[j].flat @ v equals
    Im f(theta + i h v)[j] / h at h = 1e-30, the derivative of f[j] along v
    with no subtraction error (Squire & Trapp 1998), to 1e-12 relative.  The
    dot product's own rounding error scales with sum |g_i v_i|, which can be
    1e5 times |g . v| when v is nearly orthogonal to g, so one ulp of that sum
    is allowed on top.  Returns the real part of f there."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        v = rng.uniform(-1.0, 1.0, size=params.flat.size)
        value = np.atleast_1d(f(ModelParams(params.flat + (1j * COMPLEX_STEP) * v,
                                            params.shapes)))
        exact = value.imag / COMPLEX_STEP
        got = np.array([g.flat @ v for g in grads])
        dot_ulp = np.finfo(float).eps * np.array([np.abs(g.flat * v).sum() for g in grads])
        error = np.abs(got - exact)
        assert (error <= 1e-12 * np.abs(exact) + dot_ulp).all(), f"relative {error / np.abs(exact)}"
    return value.real


class TestComplexStepOracle:
    # The 1e-6 finite-difference gate above runs at dim 9-10 and cannot see a
    # relative error under 1e-6, such as a gradient term rounded through f32.
    # These check the hand-written gradients at the paper shape against the
    # complex-step derivative along random directions, which has no
    # subtraction error at h = 1e-30.
    def test_backward_at_paper_shape_under_dropout(self):
        rng = np.random.default_rng(40)
        params = init_params(41, PAPER, dim=2048)
        bags = [make_bag(rng, k, 2048).features.astype(np.float64) for k in (1, 9, 60)]
        masks = [milnet._dropout_mask((len(bag), PAPER.enc_out), PAPER, rng) for bag in bags]
        assert all((mask == 0).any() for mask in masks)
        traces = [forward(params, bag, mask) for bag, mask in zip(bags, masks)]
        real = assert_directional_derivatives(
            params, [backward(trace, params, 1.0) for trace in traces],
            lambda p: complex_predictions(p, bags, masks), seed=43)
        assert real == pytest.approx([t.prediction for t in traces], rel=0.0, abs=1e-15)

    def test_train_batch_mean_gradient_at_paper_shape(self, monkeypatch):
        # Every batch-mean gradient train hands to ADAM is the derivative of
        # the batch's mean squared error under its dropout masks.  At a
        # STACK_ROWS of 8 the stacked buffer holds max(8, largest bag) rows,
        # which each batch overflows: it is encoded, and folds enc_w, in
        # several chunks.
        bags, labels = quick_cohort(np.random.default_rng(42), n=12, dim=2048, tiles=(2, 9))
        train_idx = np.arange(8)
        hyper = HyperParams(lr=1e-3, max_epochs=1, batch_size=4)
        monkeypatch.setattr(milnet, "STACK_ROWS", 8)
        steps = []
        real_step = milnet.adam_step

        def recording_step(params, grads, state, hyper):
            steps.append((params.copy(), grads.copy()))
            real_step(params, grads, state, hyper)

        monkeypatch.setattr(milnet, "adam_step", recording_step)
        train(bags, labels, train_idx, np.arange(8, 12), hyper, seed=5)

        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,)))
        order = rng.permutation(train_idx)
        assert len(steps) == 2
        for b, (params, got) in enumerate(steps):
            batch = order[4 * b : 4 * b + 4]
            assert sum(bags[i].n_tiles for i in batch) > max(8, *(bag.n_tiles for bag in bags))
            feats = [bags[i].features.astype(np.float64) for i in batch]
            masks = [milnet._dropout_mask((len(f), hyper.enc_out), hyper, rng) for f in feats]
            assert_directional_derivatives(
                params, [got],
                lambda p: np.mean((complex_predictions(p, feats, masks) - labels[batch]) ** 2),
                seed=b)


class TestAdam:
    def test_zero_grad_no_decay_keeps_param(self):
        theta = np.array([1.5])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 6):
            adam_update_array(theta, np.zeros(1), m, v, t, lr=1e-4, weight_decay=0.0)
        assert theta[0] == 1.5

    def test_hand_evaluated_first_step(self):
        # theta=1, g=0.5, t=1: m_hat=0.5, v_hat=0.25 -> step = lr*0.5/(0.5+eps)
        theta = np.array([1.0])
        adam_update_array(theta, np.array([0.5]), np.zeros(1), np.zeros(1), 1,
                          lr=1e-4, weight_decay=0.0)
        expected = 1.0 - 1e-4 * 0.5 / (math.sqrt(0.25) + ADAM_EPS)
        assert theta[0] == pytest.approx(expected, abs=1e-18)
        assert theta[0] == pytest.approx(1.0 - 1e-4, abs=1e-10)

    def test_weight_decay_enters_gradient(self):
        # g=0 with decay: the moment update sees exactly wd * theta
        theta = np.array([2.0])
        m = np.zeros(1)
        v = np.zeros(1)
        adam_update_array(theta, np.zeros(1), m, v, 1, lr=1e-4, weight_decay=6e-4)
        g_eff = 6e-4 * 2.0
        assert m[0] == pytest.approx(0.1 * g_eff, abs=1e-18)
        assert v[0] == pytest.approx(0.001 * g_eff**2, abs=1e-20)

    def test_adam_step_updates_all_fields(self):
        params = init_params(0, SMALL, dim=6)
        grads = params.copy()  # arbitrary nonzero gradients
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(params, grads, state, HyperParams(lr=1e-3))
        assert state.t == 1
        for name in PARAM_FIELDS:
            if getattr(before, name).any():
                assert not np.array_equal(getattr(params, name), getattr(before, name))

    def test_in_place_bit_identical_to_textbook_expression(self):
        rng = np.random.default_rng(15)
        theta = rng.normal(size=(64, 97))
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        ref_theta, ref_m, ref_v = theta.copy(), m.copy(), v.copy()
        for t in range(1, 6):
            grad = rng.normal(size=theta.shape) * 10.0 ** rng.integers(-6, 2)
            adam_update_array(theta, grad, m, v, t, lr=3e-3, weight_decay=6e-4)
            textbook_adam(ref_theta, grad, ref_m, ref_v, t, lr=3e-3, weight_decay=6e-4)
            assert np.array_equal(theta, ref_theta)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)

    def test_adam_step_matches_textbook_over_all_tensors(self):
        # enc_w holds 16 x (ADAM_BLOCK / 16 + 52) entries, and adam_step walks
        # the flat buffer in ADAM_BLOCK blocks: the second block starts inside
        # enc_w and runs on across every other tensor, so blocks cross tensor
        # boundaries
        dim = ADAM_BLOCK // SMALL.enc_out + 52
        params = init_params(2, SMALL, dim=dim)
        assert ADAM_BLOCK < params.enc_w.size < 2 * ADAM_BLOCK
        ref = params.copy()
        state = AdamState.for_params(params)
        m, v = ref.zeros_like(), ref.zeros_like()
        hyper = HyperParams(lr=1e-3)
        for t in range(1, 6):
            grads = init_params(100 + t, SMALL, dim=dim)
            adam_step(params, grads, state, hyper)
            for name in PARAM_FIELDS:
                textbook_adam(getattr(ref, name), getattr(grads, name), getattr(m, name),
                              getattr(v, name), t, hyper.lr, hyper.weight_decay)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(ref, name)), name
            assert np.array_equal(getattr(state.m, name), getattr(m, name)), name
            assert np.array_equal(getattr(state.v, name), getattr(v, name)), name


class TestExplainedVariance:
    def test_perfect(self):
        assert explained_variance([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_constant_preds(self):
        y = np.array([0.2, 0.4, 0.9])
        assert explained_variance(np.full(3, 0.5), y) == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula(self):
        p = np.array([0.1, 0.2, 0.7])
        y = np.array([0.2, 0.1, 0.5])
        expected = 1.0 - np.var(y - p) / np.var(y)
        assert explained_variance(p, y) == expected

    def test_zero_label_variance_error(self):
        with raises_error("explained variance undefined: labels have zero variance"):
            explained_variance([0.1, 0.2], [0.5, 0.5])


def quick_cohort(rng, n=24, dim=12, tiles=(3, 8)):
    """Tiny learnable cohort: label is the mean of a latent tile density."""
    from tilscore.bagio import SynthConfig, synth_cohort

    cfg = SynthConfig(n_slides=n, tiles_min=tiles[0], tiles_max=tiles[1], dim=dim,
                      seed=int(rng.integers(1 << 30)), noise_dim=3, noise_sigma=0.1)
    bags, records = synth_cohort(cfg)
    labels = np.array([r.til_score_pct for r in records]) / 100.0
    return bags, labels


class TestTrain:
    def test_patience_one_stops_after_first_epoch_without_gain(self):
        rng = np.random.default_rng(11)
        bags, labels = quick_cohort(rng)
        hyper = HyperParams(enc_out=8, attn_hidden=4, patience=1, max_epochs=30, batch_size=4,
                            lr=3e-2)
        result = train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=1)
        evs = [e.val_ev for e in result.history]
        gains = [ev > max(evs[:i]) for i, ev in enumerate(evs) if i]
        assert False in gains, "every epoch improved: the early stop went untested"
        assert len(evs) == gains.index(False) + 2

    @pytest.mark.parametrize("field, value", [
        ("lr", 0.0), ("lr", -1.0), ("lr", math.nan), ("lr", math.inf),
        ("weight_decay", -1e-4), ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("batch_size", 0), ("max_epochs", 0), ("patience", 0), ("enc_out", 0),
        ("attn_hidden", -1), ("dropout_feature", 1.0), ("dropout_feature", math.nan),
        ("dropout_tile", -0.1)])
    def test_bad_hyper_rejected_by_name(self, field, value):
        bags, labels = quick_cohort(np.random.default_rng(0), n=4)
        hyper = HyperParams(**{"enc_out": 8, "attn_hidden": 4, field: value})
        rule = {"lr": "finite and above 0", "weight_decay": "finite and not negative",
                "dropout_feature": "in [0, 1)", "dropout_tile": "in [0, 1)"}.get(
                    field, "in [1, 4294967295]")
        with raises_error(f"{field} must be {rule}, got {value!r}"):
            train(bags, labels, [0, 1], [2, 3], hyper)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(12)
        bags, labels = quick_cohort(rng)
        hyper = HyperParams(enc_out=8, attn_hidden=4, max_epochs=3, patience=5, batch_size=4)
        a = train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=5)
        b = train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=5)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
        assert [e.val_ev for e in a.history] == [e.val_ev for e in b.history]

    def test_learns_recoverable_labels(self):
        rng = np.random.default_rng(13)
        bags, labels = quick_cohort(rng, n=60, dim=16, tiles=(5, 15))
        hyper = HyperParams(lr=3e-3, enc_out=16, attn_hidden=8, max_epochs=60,
                            patience=60, batch_size=8, dropout_feature=0.0, dropout_tile=0.0)
        result = train(bags, labels, np.arange(45), np.arange(45, 60), hyper, seed=2)
        assert result.best_val_ev > 0.8

    def test_bags_in_their_files_train_as_bags_in_memory(self, tmp_path):
        bags, labels = quick_cohort(np.random.default_rng(19))
        files = []
        for bag in bags:
            write_bag(bag, tmp_path / f"{bag.slide_id}.bag")
            files.append(BagFile.scan(tmp_path / f"{bag.slide_id}.bag"))
        hyper = HyperParams(enc_out=8, attn_hidden=4, max_epochs=3, patience=3, batch_size=4)
        results = []
        for name, source in (("memory", bags), ("files", files)):
            results.append(train(source, labels, np.arange(16), np.arange(16, 24), hyper, seed=4))
            save_checkpoint(results[-1].params, hyper, tmp_path / f"{name}.ckpt")
        assert (tmp_path / "memory.ckpt").read_bytes() == (tmp_path / "files.ckpt").read_bytes()
        assert results[0].history == results[1].history
        assert np.array_equal(results[0].val_preds, results[1].val_preds)

    @pytest.mark.parametrize("n_train,batch_size,exact", [
        (16, 1, True), (16, 4, False), (16, 16, False), (15, 4, False), (16, 6, False)])
    def test_matches_reference_loop(self, n_train, batch_size, exact):
        # One bag per batch is the reference arithmetic bit for bit.  Larger
        # batches differ by rounding: backward scales d_prediction by 1/batch
        # instead of dividing each gradient, and the enc_w gradient is one
        # GEMM over the stacked batch, which sums in another order.
        # Where |g| is below ADAM_EPS the step carries gradient rounding
        # times lr / ADAM_EPS, so the bound holds at lr 1e-3 (the benchmark
        # rate; the paper's is 1e-4) and not at arbitrarily large rates.
        rng = np.random.default_rng(16)
        bags, labels = quick_cohort(rng, n=n_train + 8, tiles=(2, 11))
        hyper = HyperParams(lr=1e-3, enc_out=8, attn_hidden=4, max_epochs=3, patience=3,
                            batch_size=batch_size)
        result = train(bags, labels, np.arange(n_train), np.arange(n_train, n_train + 8),
                       hyper, seed=7)
        want = reference_train(bags, labels, np.arange(n_train), hyper, seed=7)
        got_params, want_params = result.params, want[result.best_epoch - 1]
        for name in PARAM_FIELDS:
            got, ref = getattr(got_params, name), getattr(want_params, name)
            if exact:
                assert np.array_equal(got, ref), name
            else:
                assert np.allclose(got, ref, rtol=0.0, atol=1e-12), name

    @pytest.mark.parametrize("stack_rows", [None, 12, 1])
    def test_stacked_encoder_gradient_is_the_sum_of_bag_gradients(self, monkeypatch,
                                                                  stack_rows):
        # Every batch-mean gradient handed to ADAM equals the sum of the full
        # per-bag `backward` gradients under the same parameters and dropout
        # masks, on two cohorts.  On the ragged one, a small STACK_ROWS makes
        # train encode a batch, and fold enc_w, in several chunks (at 1, the
        # buffer holds only the largest bag, so nearly every bag is a chunk of
        # its own).  The other has 1-tile bags, whose stacked embeddings may
        # differ in the last bit from those of a lone bag, and a validation
        # bag larger than any training batch, which sizes the buffer: no
        # batch overflows it, whatever STACK_ROWS is.
        rng = np.random.default_rng(17)
        ragged = quick_cohort(rng, n=24, tiles=(2, 11))
        small_bags, small_labels = quick_cohort(rng, n=24, tiles=(1, 3))
        small_bags[16] = make_bag(rng, 40, small_bags[0].dim, slide_id="large")
        assert sum(bag.n_tiles == 1 for bag in small_bags[:16]) >= 3
        hyper = HyperParams(lr=1e-3, enc_out=8, attn_hidden=4, max_epochs=2, patience=2,
                            batch_size=6)
        if stack_rows is not None:
            monkeypatch.setattr(milnet, "STACK_ROWS", stack_rows)
        steps = []
        real_step = milnet.adam_step

        def recording_step(params, grads, state, hyper):
            steps.append((params.copy(), grads.copy()))
            real_step(params, grads, state, hyper)

        monkeypatch.setattr(milnet, "adam_step", recording_step)
        train_idx = np.arange(16)
        largest = max(bag.n_tiles for bag in ragged[0])
        for bags, labels in (ragged, (small_bags, small_labels)):
            steps.clear()
            train(bags, labels, train_idx, np.arange(16, 24), hyper, seed=3)

            rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(1,)))
            assert len(steps) == 2 * 3  # 2 epochs of batches 6, 6 and 4
            for b, (params, got) in enumerate(steps):
                if b % 3 == 0:
                    order = rng.permutation(train_idx)
                batch = order[(b % 3) * 6 : (b % 3) * 6 + 6]
                tiles = sum(bags[i].n_tiles for i in batch)
                if bags is small_bags:  # the large validation bag sizes the buffer
                    assert tiles < small_bags[16].n_tiles
                elif stack_rows is not None:  # the batch overflows the buffer
                    assert tiles > max(stack_rows, largest)
                want = params.zeros_like()
                for i in batch:
                    mask = milnet._dropout_mask((bags[i].n_tiles, hyper.enc_out), hyper, rng)
                    trace = forward(params, bags[i], mask)
                    g = backward(trace, params,
                                 loss_grad(trace.prediction, labels[i]) / batch.size)
                    for name in PARAM_FIELDS:
                        total = getattr(want, name)
                        total += getattr(g, name)
                for name in PARAM_FIELDS:
                    assert np.allclose(getattr(got, name), getattr(want, name),
                                       rtol=0.0, atol=1e-12), (b, name)

    def test_val_preds_are_forward_on_each_bag(self):
        # The validation pass encodes its stacked bags in one GEMM.  At this
        # shape (12 -> 16), a bag of 2 or more tiles gets the rows of its own
        # GEMM, so the prediction is forward's bit for bit; a 1-tile bag's may
        # differ in the last bit, because numpy runs its lone product as GEMV.
        bags, labels = quick_cohort(np.random.default_rng(20), n=32, tiles=(1, 9))
        val_idx = np.arange(16, 32)
        result = train(bags, labels, np.arange(16), val_idx,
                       dataclasses.replace(SMALL, max_epochs=2, batch_size=4), seed=6)
        sizes = [bags[i].n_tiles for i in val_idx]
        assert 1 in sizes and max(sizes) >= 2
        for i, got in zip(val_idx, result.val_preds, strict=True):
            want = forward(result.params, bags[i]).prediction
            if bags[i].n_tiles >= 2:
                assert got == want, bags[i].slide_id
            else:
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_a_training_step_allocates_no_enc_w_sized_array(self, monkeypatch):
        # enc_w is 64 x 2048 doubles (1 MiB, eight ADAM blocks); the bags are a
        # few tiles each.  Between ADAM steps (one batch of forward/backward
        # plus the stacked GEMM) and inside one, traced allocations may not
        # rise by an enc_w-sized array above where they started.
        rng = np.random.default_rng(18)
        bags = [make_bag(rng, int(rng.integers(2, 9)), 2048, slide_id=f"b{i}")
                for i in range(24)]
        labels = rng.uniform(0.1, 0.9, 24)
        hyper = HyperParams(lr=1e-3, enc_out=64, attn_hidden=8, max_epochs=1, batch_size=4)
        enc_w_bytes = 64 * 2048 * 8
        assert enc_w_bytes >= 4 * ADAM_BLOCK * 8
        rises = []
        mark = []
        real_step = milnet.adam_step

        def measured_step(*args):
            if mark:  # the bag loop since the previous step
                rises.append(tracemalloc.get_traced_memory()[1] - mark[0])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            real_step(*args)
            rises.append(tracemalloc.get_traced_memory()[1] - start)
            tracemalloc.reset_peak()
            mark[:] = [tracemalloc.get_traced_memory()[0]]

        monkeypatch.setattr(milnet, "adam_step", measured_step)
        tracemalloc.start()
        try:
            train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=1)
        finally:
            tracemalloc.stop()
        assert len(rises) == 4 + 3  # four ADAM steps, three bag loops between them
        assert max(rises) < enc_w_bytes, rises

    def test_non_finite_loss_aborts_naming_epoch_and_slide(self):
        rng = np.random.default_rng(14)
        bags, labels = quick_cohort(rng, n=24)
        hyper = HyperParams(lr=1e200, enc_out=8, attn_hidden=4, max_epochs=5, batch_size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with raises_error("non-finite loss nan in epoch 1 on slide 'synth0003' at lr 1e+200"):
                train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=0)

    def test_errors(self):
        rng = np.random.default_rng(14)
        bags, labels = quick_cohort(rng, n=6)
        with raises_error("empty training set"):
            train(bags, labels, np.array([], dtype=int), np.arange(3), seed=0)
        const = labels.copy()
        const[3:] = 0.5
        with raises_error("validation labels are constant; explained variance undefined"):
            train(bags, const, np.arange(3), np.arange(3, 6), seed=0)
        with raises_error("train and validation sets overlap"):
            train(bags, labels, np.arange(4), np.arange(3, 6), seed=0)
        with raises_error("empty validation set"):
            train(bags, labels, np.arange(3), np.array([], dtype=int), seed=0)
        odd = bags[:2] + [make_bag(rng, 4, bags[0].dim + 1, slide_id="odd")] + bags[3:]
        dim = bags[0].dim
        with raises_error(f"bag 'odd' has dim {dim + 1}, the first training bag {dim}"):
            train(odd, labels, np.arange(4), np.arange(4, 6), seed=0)

    def test_validation_bag_dim_checked_before_any_epoch(self, monkeypatch):
        bags, labels = quick_cohort(np.random.default_rng(14), n=6)
        bags[4] = make_bag(np.random.default_rng(0), 5, bags[0].dim + 1, slide_id="odd")
        steps = []
        monkeypatch.setattr(milnet, "adam_step", lambda *args: steps.append(args))
        dim = bags[0].dim
        with raises_error(f"bag 'odd' has dim {dim + 1}, the first training bag {dim}"):
            train(bags, labels, np.arange(4), np.arange(4, 6), SMALL, seed=0)
        assert steps == []


class TestCheckpoint:
    def test_layout_tables_match_the_dataclasses(self):
        # the hyper block is astuple(hyper) + dim, and the tensors follow
        # param_shapes: a HyperParams field added, dropped or reordered must
        # change _CKPT_HYPER with it
        fields = dataclasses.fields(HyperParams)
        codes = "".join("d" if f.type == "float" else "I" for f in fields) + "I"
        assert milnet._CKPT_HYPER == "<" + codes, (
            f"_CKPT_HYPER {milnet._CKPT_HYPER!r} does not pack the HyperParams fields "
            f"{[f.name for f in fields]} then dim; expected {'<' + codes!r}")
        assert tuple(milnet.param_shapes(SMALL, 7)) == PARAM_FIELDS

    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(3, SMALL, dim=11)
        hyper = HyperParams(enc_out=16, attn_hidden=8, lr=2e-4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, hyper, path)
        loaded, hyper2 = load_checkpoint(path)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        assert hyper2 == hyper

    def test_largest_valid_counts_round_trip(self, tmp_path):
        # validate's bound on each count is the largest uint32 the hyper block
        # stores; the tensors keep SMALL's shapes
        hyper = dataclasses.replace(SMALL, batch_size=2**32 - 1, max_epochs=2**32 - 1,
                                    patience=2**32 - 1)
        hyper.validate()
        save_checkpoint(init_params(5, SMALL, dim=3), hyper, tmp_path / "model.ckpt")
        assert load_checkpoint(tmp_path / "model.ckpt")[1] == hyper

    def test_tensor_section_is_flat(self, tmp_path):
        params = init_params(6, SMALL, dim=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, SMALL, path)
        header = 6 + struct.calcsize(milnet._CKPT_HYPER)
        assert path.read_bytes()[header:] == params.flat.astype("<f8").tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_params(4, SMALL, dim=7)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, SMALL, a)
        save_checkpoint(params, SMALL, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with raises_error(f"{path}: bad checkpoint magic b'XXXX'"):
            load_checkpoint(path)

    def test_truncated_header_named(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        path.write_bytes(path.read_bytes()[:20])
        with raises_error(f"{path}: checkpoint truncated in its header (20 of 62 bytes)"):
            load_checkpoint(path)

    def test_truncated_tensor_named(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        data = path.read_bytes()
        # enc_w (16 x 7 doubles) starts right after the 62-byte header
        path.write_bytes(data[:62 + 8 * 50 + 3])
        with raises_error(f"{path}: checkpoint truncated in tensor enc_w (403 of 896 bytes)"):
            load_checkpoint(path)
        path.write_bytes(data[:-5])
        with raises_error(f"{path}: checkpoint truncated in tensor score_b (3 of 8 bytes)"):
            load_checkpoint(path)

    def test_trailing_bytes_named(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with raises_error(f"{path}: checkpoint has 3 trailing bytes"):
            load_checkpoint(path)
