"""MLP: exact gradients, parameter vector round-trips, freezing, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, SGD, Adam


def _numerical_gradient(net: MLP, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    theta = net.param_vector()
    grad = np.zeros_like(theta)
    for index in range(theta.size):
        up = theta.copy()
        up[index] += eps
        net.set_param_vector(up)
        f_up = net.predict(x[None])[0]
        down = theta.copy()
        down[index] -= eps
        net.set_param_vector(down)
        f_down = net.predict(x[None])[0]
        grad[index] = (f_up - f_down) / (2 * eps)
    net.set_param_vector(theta)
    return grad


def test_param_gradient_matches_numerical(rng):
    net = MLP([4, 6, 1], rng)
    x = rng.normal(size=4)
    analytic = net.param_gradient(x)
    numeric = _numerical_gradient(net, x)
    np.testing.assert_allclose(analytic, numeric, atol=1e-7)


def test_param_gradient_preserves_training_grads(rng):
    net = MLP([3, 4, 1], rng)
    x = rng.normal(size=(5, 3))
    net.forward(x)
    net.backward(np.ones((5, 1)))
    saved = net.grad_vector()
    net.param_gradient(rng.normal(size=3))
    np.testing.assert_array_equal(net.grad_vector(), saved)


def test_param_vector_roundtrip(rng):
    net = MLP([3, 5, 2], rng)
    theta = net.param_vector()
    assert theta.shape == (net.num_params,)
    other = MLP([3, 5, 2], rng)
    other.set_param_vector(theta)
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(net.forward(x), other.forward(x))


def test_set_param_vector_rejects_wrong_size(rng):
    net = MLP([3, 5, 2], rng)
    with pytest.raises(ValueError):
        net.set_param_vector(np.zeros(net.num_params + 1))


def test_needs_two_sizes(rng):
    with pytest.raises(ValueError):
        MLP([4], rng)


def test_param_gradient_requires_scalar_output(rng):
    net = MLP([3, 4, 2], rng)
    with pytest.raises(ValueError):
        net.param_gradient(np.zeros(3))


def test_training_reduces_loss(rng):
    net = MLP([2, 16, 1], rng)
    x = rng.uniform(-1, 1, size=(128, 2))
    y = x[:, 0] * x[:, 1]
    optimizer = Adam(0.01)
    first = net.train_step(x, y, optimizer)
    for _ in range(300):
        last = net.train_step(x, y, optimizer)
    assert last < first * 0.2


def test_l2_regularization_shrinks_weights(rng):
    net = MLP([2, 8, 1], rng)
    x = np.zeros((4, 2))
    y = np.zeros(4)
    norm_before = np.linalg.norm(net.param_vector())
    for _ in range(50):
        net.train_step(x, y, SGD(0.05), lam=0.1)
    assert np.linalg.norm(net.param_vector()) < norm_before


def test_freeze_all_but_last(rng):
    net = MLP([3, 4, 4, 1], rng)
    net.freeze_all_but_last()
    frozen = [layer.trainable for layer in net.layers]
    assert frozen == [False, False, True]
    trunk_before = net.layers[0].weight.copy()
    head_before = net.layers[-1].weight.copy()
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    for _ in range(5):
        net.train_step(x, y, SGD(0.05))
    np.testing.assert_array_equal(net.layers[0].weight, trunk_before)
    assert not np.array_equal(net.layers[-1].weight, head_before)


def test_clone_is_deep_and_equal(rng):
    net = MLP([3, 4, 1], rng)
    twin = net.clone()
    x = rng.normal(size=(5, 3))
    np.testing.assert_allclose(net.predict(x), twin.predict(x))
    twin.layers[0].weight += 1.0
    assert not np.allclose(net.predict(x), twin.predict(x))


def test_hidden_features_match_manual_forward(rng):
    net = MLP([3, 4, 1], rng)
    x = rng.normal(size=(6, 3))
    hidden = net.hidden_features(x)
    pre = x @ net.layers[0].weight.T + net.layers[0].bias
    np.testing.assert_allclose(hidden, np.maximum(pre, 0.0))
    # head applied to hidden features reproduces the full forward pass
    full = hidden @ net.layers[-1].weight.T + net.layers[-1].bias
    np.testing.assert_allclose(full[:, 0], net.predict(x))


def test_max_singular_value_positive(rng):
    net = MLP([3, 4, 1], rng)
    xi = net.max_singular_value()
    assert xi > 0
    assert xi >= np.linalg.norm(net.layers[-1].weight, 2) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6))
def test_forward_shapes_property(batch, hidden):
    rng = np.random.default_rng(0)
    net = MLP([3, hidden, 1], rng)
    x = rng.normal(size=(batch, 3))
    assert net.forward(x).shape == (batch, 1)
    assert net.predict(x).shape == (batch,)


# ----------------------------------------------------------------------
# Batched per-sample gradients (the fast UCB-scoring kernel)
# ----------------------------------------------------------------------
def test_param_gradients_matches_per_sample_loop(rng):
    from repro.nn import MLP

    network = MLP([7, 16, 8, 1], rng)
    inputs = rng.normal(size=(9, 7))
    batched = network.param_gradients(inputs)
    reference = np.stack([network.param_gradient(row) for row in inputs])
    assert batched.shape == (9, network.num_params)
    np.testing.assert_allclose(batched, reference, rtol=1e-9, atol=1e-12)


def test_param_gradients_single_row_is_exact(rng):
    from repro.nn import MLP

    network = MLP([5, 12, 1], rng)
    row = rng.normal(size=5)
    np.testing.assert_array_equal(
        network.param_gradients(row[None, :])[0], network.param_gradient(row)
    )


def test_param_gradients_requires_scalar_output(rng):
    from repro.nn import MLP

    network = MLP([4, 6, 2], rng)
    with pytest.raises(ValueError, match="scalar"):
        network.param_gradients(rng.normal(size=(3, 4)))


def test_param_gradients_rejects_wrong_width(rng):
    from repro.nn import MLP

    network = MLP([4, 6, 1], rng)
    with pytest.raises(ValueError, match="shape"):
        network.param_gradients(rng.normal(size=(3, 5)))


def test_param_gradients_preserves_training_state(rng):
    """The batched pass must not clobber accumulated gradients or the
    forward caches a pending backward() depends on."""
    from repro.nn import MLP

    network = MLP([4, 6, 1], rng)
    batch = rng.normal(size=(5, 4))
    network.zero_grad()
    network.forward(batch)  # training forward whose caches must survive
    network.layers[0].grad_weight += 3.0
    accumulated = [layer.grad_weight.copy() for layer in network.layers]
    network.param_gradients(rng.normal(size=(7, 4)))
    for layer, before in zip(network.layers, accumulated):
        np.testing.assert_array_equal(layer.grad_weight, before)
    # backward() must still consume the training forward's caches.
    network.backward(np.ones((5, 1)))


def _stacked_row_gradient(passed, row):
    """Flat gradient of one row of a stacked pass, in grad_vector order."""
    chunks = []
    for inputs, deltas in zip(passed.inputs, passed.deltas):
        chunks.append(np.multiply.outer(deltas[row], inputs[row]).ravel())
        chunks.append(deltas[row])
    return np.concatenate(chunks)


def test_stacked_pass_is_bitwise_the_per_call_paths(rng):
    network = MLP([9, 16, 8, 1], rng)
    for layer in network.layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    x = rng.normal(size=(5, 4, 9))
    passed = network.stacked_pass(x)
    assert passed.means.shape == (5, 4)
    for group in range(5):
        np.testing.assert_array_equal(passed.means[group], network.predict(x[group]))
    for row, features in enumerate(x.reshape(-1, 9)):
        np.testing.assert_array_equal(
            _stacked_row_gradient(passed, row), network.param_gradient(features)
        )


def test_stacked_pass_validates_shape(rng):
    network = MLP([3, 4, 1], rng)
    with pytest.raises(ValueError):
        network.stacked_pass(rng.normal(size=(2, 3)))
    with pytest.raises(ValueError):
        network.stacked_pass(rng.normal(size=(2, 2, 4)))
    with pytest.raises(ValueError):
        MLP([3, 4, 2], rng).stacked_pass(rng.normal(size=(2, 2, 3)))
