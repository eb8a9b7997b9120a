import copy
import pickle
import re

import numpy as np
import pytest

from red_offline.io_envelope import EnvelopeError, read_envelope, write_envelope
from red_offline.nncore import (CKPT_MAGIC, CKPT_VERSION, Mlp, apply_update, backward,
                                forward, forward_cache, init_mlp, init_optim, load_checkpoint,
                                max_relative_gradient_error, numeric_gradients,
                                save_checkpoint)


def reference_forward(net, x):
    # independent straightforward re-implementation
    h = np.array(x, dtype=float)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.zeros((h.shape[0], w.shape[1]))
        for r in range(h.shape[0]):
            for c in range(w.shape[1]):
                z[r, c] = float(np.dot(h[r], w[:, c])) + b[c]
        if i < net.n_layers - 1:
            z = np.tanh(z) if net.activation == "tanh" else np.where(z > 0, z, 0.0)
        h = z
    return h


def test_zero_network_returns_zero():
    net = Mlp([3, 4, 2], np.zeros(3 * 4 + 4 + 4 * 2 + 2), "relu")
    out = forward(net, np.random.default_rng(0).random((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_identity_single_layer():
    net = Mlp([3, 3], np.concatenate([np.eye(3).ravel(), np.zeros(3)]), "relu")
    x = np.random.default_rng(1).normal(size=(4, 3))
    assert np.array_equal(forward(net, x), x)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_reference(activation):
    net = init_mlp([3, 8, 8, 2], activation, seed=5)
    x = np.random.default_rng(6).normal(size=(7, 3))
    assert np.allclose(forward(net, x), reference_forward(net, x), atol=1e-12, rtol=0)


def test_dimension_mismatch_rejected():
    net = init_mlp([3, 4, 2], seed=0)
    with pytest.raises(ValueError, match="input shape"):
        forward(net, np.zeros((5, 4)))
    # a [3, 4, 2] buffer under layer sizes that do not chain the same way
    with pytest.raises(ValueError, match="params has shape"):
        Mlp([3, 5, 2], net.params, "relu")


@pytest.mark.parametrize("size", [0, 25, 27])
def test_buffer_of_the_wrong_size_rejected(size):
    with pytest.raises(ValueError, match=r"params has shape \(%d,\), but layer_sizes "
                                         r"\[3, 4, 2\] need \(26,\)" % size):
        Mlp([3, 4, 2], np.zeros(size), "relu")
    with pytest.raises(ValueError, match="params has shape"):
        Mlp([3, 4, 2], np.zeros((1, 26)), "relu")


@pytest.mark.parametrize("sizes", [[3], [3, 0], [3, "4"], [3, -4, 2], [3, True], []])
def test_bad_layer_sizes_rejected(sizes):
    with pytest.raises(ValueError, match="must be two or more positive integers"):
        Mlp(sizes, np.zeros(0), "relu")
    if sizes in ([3], [3, 0]):
        with pytest.raises(ValueError, match="must be two or more positive integers"):
            init_mlp(sizes)


@pytest.mark.parametrize("sizes", [[3, 8, 8, 2], [2, 1]])
def test_init_mlp_draws_each_weight_then_its_bias(sizes):
    # reference: one generator, each layer's W (row-major) and then its b
    rng = np.random.default_rng(17)
    expected = []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(d_in)
        expected.append(rng.uniform(-bound, bound, size=(d_in, d_out)).ravel())
        expected.append(rng.uniform(-bound, bound, size=d_out))
    net = init_mlp(sizes, seed=17)
    assert net.params.tobytes() == np.concatenate(expected).tobytes()
    assert net.layer_sizes == sizes and net.init_seed == 17


def test_linear_net_analytic_gradient():
    net = Mlp([3, 1], np.zeros(4), "relu")
    x = np.array([[0.5, -1.5, 2.0]])
    _, cache = forward_cache(net, x)
    grads, gin = backward(net, cache, np.ones((1, 1)))
    assert np.allclose(grads[:3], x[0], atol=0)
    assert np.allclose(grads[3:], [1.0])
    assert np.allclose(gin, net.weights[0].T)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(9)
    for trial in range(3):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 9)), int(rng.integers(2, 4))]
        net = init_mlp(sizes, activation, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(4, sizes[0]))
        gout = rng.normal(size=(4, sizes[-1]))
        _, cache = forward_cache(net, x)
        analytic, _ = backward(net, cache, gout)
        numeric = numeric_gradients(net, x, gout, eps=1e-5)
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4


def test_stale_cache_rejected():
    net = init_mlp([2, 4, 1], seed=3)
    x = np.random.default_rng(0).random((3, 2))
    _, cache = forward_cache(net, x)
    opt = init_optim(net, 1e-3)
    grads, _ = backward(net, cache, np.ones((3, 1)))
    apply_update(net, grads, opt)
    with pytest.raises(ValueError, match="stale"):
        backward(net, cache, np.ones((3, 1)))


def _one_step(net, opt, x, gout, freeze_head=False):
    _, cache = forward_cache(net, x)
    grads, _ = backward(net, cache, gout)
    apply_update(net, grads, opt, freeze_head=freeze_head)
    return grads


def test_freeze_head_is_bitwise():
    net = init_mlp([2, 8, 8, 3], seed=11)
    opt = init_optim(net, 1e-2)
    x = np.random.default_rng(1).random((6, 2))
    gout = np.random.default_rng(2).normal(size=(6, 3))
    before_head = net.head_params()
    before_backbone = net.weights[0].copy()
    for _ in range(25):
        _one_step(net, opt, x, gout, freeze_head=True)
    assert np.array_equal(net.head_params(), before_head)
    assert not np.array_equal(net.weights[0], before_backbone)
    # frozen head moments never advanced
    assert not opt.m[net.head_start:].any() and not opt.v[net.head_start:].any()


def test_backbone_multiplier_scales_first_step():
    x = np.random.default_rng(4).random((5, 2))
    gout = np.random.default_rng(5).normal(size=(5, 2))
    deltas = {}
    for mult in (1.0, 0.1):
        net = init_mlp([2, 6, 2], seed=21)
        w0 = net.weights[0].copy()
        opt = init_optim(net, 1e-3, backbone_mult=mult)
        _one_step(net, opt, x, gout)
        deltas[mult] = net.weights[0] - w0
    base, scaled = deltas[1.0], deltas[0.1]
    zero = base == 0
    assert np.array_equal(scaled == 0, zero)
    assert np.allclose(scaled[~zero] / base[~zero], 0.1, rtol=1e-12, atol=0)


def test_step_size_set_between_steps_is_used():
    x = np.random.default_rng(8).random((5, 2))
    gout = np.random.default_rng(9).normal(size=(5, 3))
    scheduled, fresh = (init_mlp([2, 8, 8, 3], seed=23) for _ in range(2))
    opt = init_optim(scheduled, 1e-2)
    _one_step(scheduled, opt, x, gout)
    opt.lr, opt.backbone_mult = 3e-4, 0.1
    ref = init_optim(fresh, 1e-2)
    _one_step(fresh, ref, x, gout)
    ref_after = init_optim(fresh, 3e-4, backbone_mult=0.1)
    ref_after.m, ref_after.v, ref_after.step = ref.m, ref.v, ref.step
    _one_step(scheduled, opt, x, gout)
    _one_step(fresh, ref_after, x, gout)
    assert np.array_equal(scheduled.params, fresh.params)
    opt.lr = 0.0
    before = scheduled.params.copy()
    _one_step(scheduled, opt, x, gout)
    assert np.array_equal(scheduled.params, before)


def test_zero_gradients_leave_parameters_unchanged():
    net = init_mlp([2, 4, 2], seed=7)
    opt = init_optim(net, 1e-2)
    snap = [w.copy() for w in net.weights]
    apply_update(net, np.zeros_like(net.params), opt)
    for w, s in zip(net.weights, snap):
        assert np.array_equal(w, s)


def test_training_is_bitwise_deterministic():
    def run():
        net = init_mlp([3, 8, 2], seed=13)
        opt = init_optim(net, 3e-3)
        rng = np.random.default_rng(99)
        for _ in range(40):
            x = rng.normal(size=(8, 3))
            gout = rng.normal(size=(8, 2))
            _one_step(net, opt, x, gout)
        return net
    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_checkpoint_round_trip(tmp_path):
    nets = {"q": init_mlp([3, 8, 4], seed=1), "policy": init_mlp([3, 8, 2], "tanh", seed=2)}
    path = tmp_path / "ck.orck"
    save_checkpoint(path, nets, extra={"step": 123})
    loaded, extra = load_checkpoint(path)
    assert extra == {"step": 123}
    assert set(loaded) == {"q", "policy"}
    for name in nets:
        assert loaded[name].activation == nets[name].activation
        assert loaded[name].split_point == nets[name].split_point
        for wa, wb in zip(loaded[name].weights, nets[name].weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(loaded[name].biases, nets[name].biases):
            assert np.array_equal(ba, bb)


def test_truncated_checkpoint_rejected(tmp_path):
    path = tmp_path / "ck.orck"
    save_checkpoint(path, {"q": init_mlp([3, 8, 4], seed=1)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(EnvelopeError):
        load_checkpoint(path)


def test_default_split_is_last_layer():
    net = init_mlp([3, 8, 8, 2], seed=0)
    assert net.split_point == 2
    assert net.head_params().size == 8 * 2 + 2


def test_freeze_at_non_default_split():
    net = init_mlp([2, 8, 8, 3], seed=12, split_point=1)
    opt = init_optim(net, 1e-2)
    x = np.random.default_rng(3).random((6, 2))
    gout = np.random.default_rng(4).normal(size=(6, 3))
    frozen = [a.copy() for a in net.weights[1:] + net.biases[1:]]
    w0 = net.weights[0].copy()
    for _ in range(5):
        _one_step(net, opt, x, gout, freeze_head=True)
    for a, before in zip(net.weights[1:] + net.biases[1:], frozen):
        assert np.array_equal(a, before)
    assert not np.array_equal(net.weights[0], w0)
    assert net.head_start == 2 * 8 + 8
    assert not opt.m[net.head_start:].any() and not opt.v[net.head_start:].any()
    assert opt.m[:net.head_start].any()


def test_backbone_multiplier_at_non_default_split():
    x = np.random.default_rng(6).random((5, 2))
    gout = np.random.default_rng(7).normal(size=(5, 3))
    deltas = {}
    for mult in (1.0, 0.1):
        net = init_mlp([2, 8, 8, 3], seed=22, split_point=1)
        before = net.params.copy()
        _one_step(net, init_optim(net, 1e-3, backbone_mult=mult), x, gout)
        deltas[mult] = net.params - before
    base, scaled = deltas[1.0], deltas[0.1]
    head = net.head_start
    assert np.array_equal(scaled[head:], base[head:])
    nz = base[:head] != 0
    assert nz.any() and np.array_equal(scaled[:head] != 0, nz)
    assert np.allclose(scaled[:head][nz] / base[:head][nz], 0.1, rtol=1e-12, atol=0)


def test_split_point_range_checked():
    with pytest.raises(ValueError, match="split_point"):
        Mlp([3, 3], np.zeros(12), "relu", split_point=5)
    with pytest.raises(ValueError, match="split_point"):
        Mlp([3, 3], np.zeros(12), "relu", split_point=1)
    for bad in (0, 2, -1):
        with pytest.raises(ValueError, match="split_point"):
            init_mlp([3, 4, 2], split_point=bad)
    assert Mlp([3, 3], np.zeros(12), "relu").head_params().size == 12


def test_weight_views_alias_params():
    net = init_mlp([3, 4, 2], seed=8)
    x = np.random.default_rng(0).random((5, 3))
    net.weights[1][...] = 0.0
    net.biases[1][:] = [1.5, -2.0]
    assert np.array_equal(net.params[3 * 4 + 4:], [0.0] * 8 + [1.5, -2.0])
    assert np.array_equal(forward(net, x), np.tile([1.5, -2.0], (5, 1)))
    net.params[:] = 0.0
    assert not net.weights[0].any() and not net.biases[0].any()


def test_mlp_copies_its_inputs():
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    net = Mlp([3, 3], params, "relu")
    params[0] = 7.0
    assert net.weights[0][0, 0] == 1.0


@pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
def test_cloned_net_weight_views_follow_its_params(clone):
    net = init_mlp([3, 4, 2], seed=8)
    twin = copy.deepcopy(net) if clone == "deepcopy" else pickle.loads(pickle.dumps(net))
    x = np.random.default_rng(0).random((5, 3))
    assert np.array_equal(forward(twin, x), forward(net, x))
    for a in (*twin.weights, *twin.biases):
        assert np.shares_memory(a, twin.params) and not np.shares_memory(a, net.params)
    opt = init_optim(twin, 1e-2)
    _one_step(twin, opt, x, np.ones((5, 2)))
    assert not np.array_equal(twin.params, net.params)
    assert np.array_equal(forward(twin, x), reference_forward(twin, x))
    assert not np.array_equal(forward(twin, x), forward(net, x))


def test_wrong_gradient_shape_rejected():
    net = init_mlp([2, 4, 2], seed=1)
    opt = init_optim(net, 1e-3)
    with pytest.raises(ValueError, match="gradient shape"):
        apply_update(net, np.zeros(net.params.size - 1), opt)
    assert opt.step == 0 and net.version == 0


def read_checkpoint_envelope(path):
    """(header, payload bytes) of a checkpoint file, unchecked beyond the envelope."""
    with open(path, "rb") as f:
        _, header, size = read_envelope(f, CKPT_MAGIC, CKPT_VERSION)
        return header, f.read(size)


def test_checkpoint_payload_is_flat_params_in_name_order(tmp_path):
    nets = {"v": init_mlp([3, 5, 1], seed=3), "q": init_mlp([3, 8, 4], seed=1),
            "policy": init_mlp([3, 8, 2], "tanh", seed=2)}
    path = tmp_path / "ck.orck"
    save_checkpoint(path, nets)
    header, payload = read_checkpoint_envelope(path)
    assert header["order"] == ["policy", "q", "v"]
    expected = b"".join(np.asarray(a, dtype="<f8").tobytes()
                        for name in sorted(nets)
                        for wb in zip(nets[name].weights, nets[name].biases) for a in wb)
    assert payload == expected


_HEADER_EDITS = {
    "order_names_missing_net": lambda h: h["order"].append("x"),
    "spec_without_layer_sizes": lambda h: h["nets"]["q"].pop("layer_sizes"),
    "split_point_out_of_range": lambda h: h["nets"]["q"].update(split_point=7),
    "unknown_activation": lambda h: h["nets"]["q"].update(activation="sigmoid"),
    "single_layer_size": lambda h: h["nets"]["q"].update(layer_sizes=[3]),
    "negative_layer_size": lambda h: h["nets"]["q"].update(layer_sizes=[3, -8, 4]),
    "string_layer_size": lambda h: h["nets"]["q"].update(layer_sizes=[3, "8", 4]),
    "sizes_beyond_payload": lambda h: h["nets"]["q"].update(layer_sizes=[3, 9, 4]),
}


@pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
def test_malformed_checkpoint_header_rejected(tmp_path, edit):
    path = tmp_path / "ck.orck"
    save_checkpoint(path, {"q": init_mlp([3, 8, 4], seed=1)})
    header, payload = read_checkpoint_envelope(path)
    _HEADER_EDITS[edit](header)
    write_envelope(path, CKPT_MAGIC, CKPT_VERSION, header, [payload])
    with pytest.raises(EnvelopeError, match=re.escape(str(path))):
        load_checkpoint(path)
