import math

import numpy as np
import pytest

from tilscore.bagio import FeatureBag
from tilscore.milnet import (
    ADAM_EPS,
    PARAM_FIELDS,
    AdamState,
    HyperParams,
    ModelError,
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
    trace = forward(params, bag, train=mask is not None, dropout_mask=mask)
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
                trace = forward(params, bags[i], hyper, train=True, rng=rng)
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
        assert a.allclose(b)

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
        assert t2.attn_logits[0] - t2.attn_logits[1] >= 39.9
        assert t2.attention[1] < 1e-15
        assert abs(t2.prediction - forward(params, hot).prediction) < 1e-15

    def test_dim_mismatch(self):
        params = init_params(0, SMALL, dim=10)
        bag = make_bag(np.random.default_rng(0), 3, 11)
        with pytest.raises(ModelError):
            forward(params, bag)

    def test_eval_mode_deterministic_train_mode_not(self):
        rng = np.random.default_rng(5)
        params = init_params(8, SMALL, dim=10)
        bag = make_bag(rng, 30, 10)
        assert forward(params, bag).prediction == forward(params, bag).prediction
        ta = forward(params, bag, SMALL, train=True, rng=np.random.default_rng(1))
        tb = forward(params, bag, SMALL, train=True, rng=np.random.default_rng(2))
        assert ta.prediction != tb.prediction


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
        trace = forward(params, bag, SMALL, train=True, rng=np.random.default_rng(3))
        mask = trace.dropout_mask
        assert mask is not None and (mask == 0).any()
        label = 0.4
        analytic = backward(trace, params, loss_grad(trace.prediction, label))
        numeric = fd_gradients(params, bag, label, mask=mask)
        assert max_rel_error(analytic, numeric) <= 1e-6

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(10)
        params = init_params(1, SMALL, dim=10)
        other = init_params(1, HyperParams(enc_out=4, attn_hidden=3), dim=10)
        trace = forward(params, make_bag(rng, 3, 10))
        with pytest.raises(ModelError):
            backward(trace, other, 1.0)


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
        params = init_params(2, SMALL, dim=6)
        ref = params.copy()
        state = AdamState.for_params(params)
        m, v = ref.zeros_like(), ref.zeros_like()
        hyper = HyperParams(lr=1e-3)
        for t in range(1, 6):
            grads = init_params(100 + t, SMALL, dim=6)
            adam_step(params, grads, state, hyper)
            for name in PARAM_FIELDS:
                textbook_adam(getattr(ref, name), getattr(grads, name), getattr(m, name),
                              getattr(v, name), t, hyper.lr, hyper.weight_decay)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(ref, name))


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
        with pytest.raises(ModelError):
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
    def test_patience_zero_runs_exactly_one_epoch(self):
        rng = np.random.default_rng(11)
        bags, labels = quick_cohort(rng)
        hyper = HyperParams(enc_out=8, attn_hidden=4, patience=0, max_epochs=9, batch_size=4)
        result = train(bags, labels, np.arange(16), np.arange(16, 24), hyper, seed=1)
        assert len(result.history) == 1

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

    @pytest.mark.parametrize("n_train,batch_size,exact", [
        (16, 4, True), (16, 16, True), (15, 4, False), (16, 6, False)])
    def test_matches_reference_loop(self, n_train, batch_size, exact):
        # backward scales d_prediction by 1/batch instead of dividing each
        # gradient: exact for power-of-two batch sizes, within rounding else.
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

    def test_errors(self):
        rng = np.random.default_rng(14)
        bags, labels = quick_cohort(rng, n=6)
        with pytest.raises(ModelError):
            train(bags, labels, np.array([], dtype=int), np.arange(3), seed=0)
        const = labels.copy()
        const[3:] = 0.5
        with pytest.raises(ModelError):
            train(bags, const, np.arange(3), np.arange(3, 6), seed=0)
        with pytest.raises(ModelError):
            train(bags, labels, np.arange(4), np.arange(3, 6), seed=0)  # overlap


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(3, SMALL, dim=11)
        hyper = HyperParams(enc_out=16, attn_hidden=8, lr=2e-4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, hyper, path)
        loaded, hyper2 = load_checkpoint(path)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        assert hyper2 == hyper

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_params(4, SMALL, dim=7)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, SMALL, a)
        save_checkpoint(params, SMALL, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ModelError):
            load_checkpoint(path)

    def test_truncated_header_named(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ModelError, match="short.ckpt.*truncated in its header"):
            load_checkpoint(path)

    def test_truncated_tensor_named(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        data = path.read_bytes()
        # enc_w (16 x 7 doubles) starts right after the 62-byte header
        path.write_bytes(data[:62 + 8 * 50 + 3])
        with pytest.raises(ModelError, match="cut.ckpt.*truncated in tensor enc_w"):
            load_checkpoint(path)
        path.write_bytes(data[:-5])
        with pytest.raises(ModelError, match="truncated in tensor score_b"):
            load_checkpoint(path)

    def test_trailing_bytes_named(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(init_params(5, SMALL, dim=7), SMALL, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(ModelError, match="long.ckpt.*3 trailing bytes"):
            load_checkpoint(path)
