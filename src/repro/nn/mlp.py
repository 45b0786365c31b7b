"""Multi-layer perceptron with explicit parameter-vector access.

Implements the reward mapping function of Eq. 4,

    S_theta(x, c) = W_L . relu( ... relu(W_1 [x; c]) )

with manual backpropagation.  Beyond ordinary supervised training, the
NN-enhanced UCB policy (Eq. 5) needs the flattened per-sample gradient
``g_theta(x, c)`` of the scalar output with respect to every parameter;
:meth:`MLP.param_gradient` provides it exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import l2_penalty, mse_loss
from repro.state.protocol import StateError, expect, versioned


class StackedPass(NamedTuple):
    """Result of :meth:`MLP.stacked_pass` (see there for the shapes)."""

    means: np.ndarray
    inputs: list[np.ndarray]
    deltas: list[np.ndarray]


class MLP:
    """Fully connected network with ReLU hidden activations and linear output.

    Args:
        layer_sizes: ``[input, hidden..., output]`` unit counts.  The paper's
            default configuration is a 3-layer network (Sec. VII-A).
        rng: source of randomness for Gaussian initialization (Alg. 1 line 3).
    """

    def __init__(self, layer_sizes: Sequence[int], rng: np.random.Generator) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.layers = [
            Dense(fan_in, fan_out, rng)
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        ]
        self._relu_masks: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Shape bookkeeping
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Dimension of the concatenated context-capacity input ``[x; c]``."""
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        """Dimension of the network output (1 for a scalar reward model)."""
        return self.layer_sizes[-1]

    @property
    def depth(self) -> int:
        """Number of affine layers, the ``L`` of Eq. 4."""
        return len(self.layers)

    @property
    def num_params(self) -> int:
        """Total number of learnable parameters ``d``."""
        return sum(layer.num_params for layer in self.layers)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a ``(batch, input_dim)`` batch through the network."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._relu_masks = []
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            mask = out > 0.0
            self._relu_masks.append(mask)
            out = out * mask
        return self.layers[-1].forward(out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass returning a flat vector when the output is scalar."""
        out = self.forward(x)
        return out[:, 0] if self.output_dim == 1 else out

    def hidden_features(self, x: np.ndarray) -> np.ndarray:
        """Activations entering the last layer (the shared representation).

        The personalization scheme of Sec. V-D freezes the first ``L - 1``
        layers; these activations are exactly the features on which each
        broker's private head is fine-tuned.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            out = out * (out > 0.0)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate output gradients, accumulating parameter gradients.

        Must follow a :meth:`forward` call on the same batch.  Returns the
        gradient with respect to the network input.
        """
        grad = np.atleast_2d(np.asarray(grad_output, dtype=float))
        grad = self.layers[-1].backward(grad)
        for layer, mask in zip(reversed(self.layers[:-1]), reversed(self._relu_masks)):
            grad = layer.backward(grad * mask)
        return grad

    def zero_grad(self) -> None:
        """Clear accumulated gradients in every layer."""
        for layer in self.layers:
            layer.zero_grad()

    # ------------------------------------------------------------------
    # Flattened parameter access (needed by the UCB covariance matrix)
    # ------------------------------------------------------------------
    def param_vector(self) -> np.ndarray:
        """Concatenate all weights and biases into one flat vector ``theta``."""
        chunks = []
        for layer in self.layers:
            chunks.append(layer.weight.ravel())
            chunks.append(layer.bias.ravel())
        return np.concatenate(chunks)

    def set_param_vector(self, theta: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`param_vector`."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {theta.shape}")
        offset = 0
        for layer in self.layers:
            w_size = layer.weight.size
            layer.weight[:] = theta[offset : offset + w_size].reshape(layer.weight.shape)
            offset += w_size
            b_size = layer.bias.size
            layer.bias[:] = theta[offset : offset + b_size]
            offset += b_size

    def grad_vector(self) -> np.ndarray:
        """Concatenate accumulated gradients into a flat vector."""
        chunks = []
        for layer in self.layers:
            chunks.append(layer.grad_weight.ravel())
            chunks.append(layer.grad_bias.ravel())
        return np.concatenate(chunks)

    def param_gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact per-sample gradient ``g_theta(x) = grad_theta S_theta(x)``.

        Used for the exploration bonus of Eq. 5.  The network must have a
        scalar output.  Accumulated training gradients are preserved.
        """
        if self.output_dim != 1:
            raise ValueError("param_gradient requires a scalar-output network")
        saved = [(layer.grad_weight.copy(), layer.grad_bias.copy()) for layer in self.layers]
        self.zero_grad()
        self.forward(np.atleast_2d(x))
        self.backward(np.ones((1, 1)))
        gradient = self.grad_vector()
        for layer, (grad_w, grad_b) in zip(self.layers, saved):
            layer.grad_weight[:] = grad_w
            layer.grad_bias[:] = grad_b
        return gradient

    def param_gradients(self, x: np.ndarray) -> np.ndarray:
        """Per-sample gradients for a whole batch in one pass.

        Returns the ``(batch, num_params)`` matrix whose row ``i`` is
        ``param_gradient(x[i])`` — each row laid out in :meth:`grad_vector`
        order — without the per-sample Python loop, the gradient
        save/restore, or any mutation of the layers' training caches.
        This is the fast kernel behind the batched UCB exploration bonus
        (Eq. 5); :meth:`param_gradient` remains the per-sample reference
        the differential suites compare it against (agreement is to
        floating-point round-off: batched GEMMs may associate reductions
        differently than their per-row counterparts).
        """
        if self.output_dim != 1:
            raise ValueError("param_gradients requires a scalar-output network")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input of shape (batch, {self.input_dim}), got {x.shape}"
            )
        batch = x.shape[0]
        # Forward with local caches: the layers' `_last_input` / relu masks
        # belong to training and must stay untouched.
        activations = [x]
        masks: list[np.ndarray] = []
        out = x
        for layer in self.layers[:-1]:
            out = out @ layer.weight.T + layer.bias
            mask = out > 0.0
            masks.append(mask)
            out = out * mask
            activations.append(out)
        # Backward: per-sample parameter gradients are pure outer products
        # delta_i (x) a_i, batched with einsum; only the propagated signal
        # `grad` mixes layers (never samples).
        per_layer: list[tuple[np.ndarray, np.ndarray]] = []
        grad = np.ones((batch, 1))
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            grad_weight = np.einsum("no,nj->noj", grad, activations[index])
            per_layer.append((grad_weight.reshape(batch, -1), grad))
            if index > 0:
                grad = (grad @ layer.weight) * masks[index - 1]
        chunks: list[np.ndarray] = []
        for grad_weight, grad_bias in reversed(per_layer):
            chunks.append(grad_weight)
            chunks.append(grad_bias)
        return np.concatenate(chunks, axis=1)

    def stacked_pass(self, x: np.ndarray) -> StackedPass:
        """Outputs and per-row gradient factors of a ``(groups, rows, input_dim)`` block.

        One pass of the network over many groups of rows, laid out so every
        number is *bit-identical* to the per-call paths: ``np.matmul`` over
        a leading stack axis issues the same BLAS call per slice as an
        unstacked call of the slice's shape, whereas one flat GEMM over all
        rows may associate its reductions differently.  So the means come
        from a ``(groups, rows, ·)`` stack (each slice is the batch
        :meth:`predict` sees) and the gradient factors from a
        ``(groups * rows, 1, ·)`` stack (each slice is the single row
        :meth:`param_gradient` sees).

        The per-sample gradient is never materialized: row ``r``'s gradient
        is, layer by layer, the outer product ``deltas[l][r] (x)
        inputs[l][r]`` (weights) followed by ``deltas[l][r]`` (bias) —
        exactly the entries :meth:`param_gradient` returns.

        Returns:
            ``StackedPass(means, inputs, deltas)``: ``means`` is
            ``(groups, rows)``; ``inputs[l]`` is ``(groups * rows, fan_in)``
            and ``deltas[l]`` is ``(groups * rows, fan_out)`` for layer ``l``.
        """
        if self.output_dim != 1:
            raise ValueError("stacked_pass requires a scalar-output network")
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"expected input of shape (groups, rows, {self.input_dim}), got {x.shape}"
            )
        out = x
        for layer in self.layers[:-1]:
            out = out @ layer.weight.T + layer.bias
            out = out * (out > 0.0)
        last = self.layers[-1]
        means = (out @ last.weight.T + last.bias)[..., 0]

        single = x.reshape(-1, 1, self.input_dim)
        inputs = [single]
        masks: list[np.ndarray] = []
        out = single
        for layer in self.layers[:-1]:
            out = out @ layer.weight.T + layer.bias
            mask = out > 0.0
            masks.append(mask)
            out = out * mask
            inputs.append(out)
        deltas: list[np.ndarray] = []
        grad = np.ones((single.shape[0], 1, 1))
        for index in range(self.depth - 1, -1, -1):
            deltas.append(grad)
            if index > 0:
                grad = (grad @ self.layers[index].weight) * masks[index - 1]
        deltas.reverse()
        return StackedPass(
            means,
            [a[:, 0, :] for a in inputs],
            [d[:, 0, :] for d in deltas],
        )

    # ------------------------------------------------------------------
    # Training helpers
    # ------------------------------------------------------------------
    def train_step(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: "Optimizer",
        lam: float = 0.0,
    ) -> float:
        """One gradient step on the regularized loss of Eq. 6.

        Args:
            inputs: ``(batch, input_dim)`` design matrix.
            targets: ``(batch,)`` observed rewards (sign-up rates).
            optimizer: parameter-update rule.
            lam: L2 regularization strength (``lambda``).

        Returns:
            The scalar loss value before the update.
        """
        targets = np.asarray(targets, dtype=float).reshape(-1)
        self.zero_grad()
        predictions = self.predict(inputs)
        loss, grad_pred = mse_loss(predictions, targets)
        self.backward(grad_pred.reshape(-1, 1))
        if lam > 0.0:
            reg_loss, reg_grad = l2_penalty(self.param_vector(), lam)
            loss += reg_loss
            self._add_grad_vector(reg_grad)
        optimizer.step(self)
        return loss

    def _add_grad_vector(self, grad: np.ndarray) -> None:
        """Accumulate a flat gradient vector into the per-layer buffers."""
        offset = 0
        for layer in self.layers:
            w_size = layer.weight.size
            layer.grad_weight += grad[offset : offset + w_size].reshape(layer.weight.shape)
            offset += w_size
            b_size = layer.bias.size
            layer.grad_bias += grad[offset : offset + b_size]
            offset += b_size

    # ------------------------------------------------------------------
    # Personalization support (Sec. V-D)
    # ------------------------------------------------------------------
    def clone(self) -> "MLP":
        """Deep-copy the network (parameters and freeze flags)."""
        twin = MLP(self.layer_sizes, np.random.default_rng(0))
        for src, dst in zip(self.layers, twin.layers):
            dst.copy_from(src)
            dst.trainable = src.trainable
        return twin

    def freeze_all_but_last(self) -> None:
        """Freeze the first ``L - 1`` layers, leaving the head fine-tunable.

        This is the layer-transfer step of Sec. V-D: the shared base reward
        model provides the representation, and only the last fully connected
        layer adapts to broker-specific observations.
        """
        for layer in self.layers[:-1]:
            layer.trainable = False
        self.layers[-1].trainable = True

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of parameters and per-layer freeze flags.

        Gradient buffers and relu masks are transient training caches and
        are deliberately excluded: every consumer zeroes gradients before
        use, so they carry no information across a day boundary.
        """
        return versioned(
            "nn.mlp",
            {
                "layer_sizes": list(self.layer_sizes),
                "layers": [
                    {
                        "weight": layer.weight.copy(),
                        "bias": layer.bias.copy(),
                        "trainable": bool(layer.trainable),
                    }
                    for layer in self.layers
                ],
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` into this network, in place."""
        payload = expect(state, "nn.mlp")
        if tuple(int(s) for s in payload["layer_sizes"]) != self.layer_sizes:
            raise StateError(
                f"MLP snapshot is for layer sizes {payload['layer_sizes']}, "
                f"network has {list(self.layer_sizes)}"
            )
        for layer, entry in zip(self.layers, payload["layers"]):
            weight = np.asarray(entry["weight"], dtype=float)
            bias = np.asarray(entry["bias"], dtype=float)
            if weight.shape != layer.weight.shape or bias.shape != layer.bias.shape:
                raise StateError(
                    f"MLP snapshot layer shape {weight.shape} does not match "
                    f"the network's {layer.weight.shape}"
                )
            layer.weight[:] = weight
            layer.bias[:] = bias
            layer.trainable = bool(entry["trainable"])
        self._relu_masks = []

    def max_singular_value(self) -> float:
        """Largest singular value ``xi`` over all weight matrices.

        Feeds the Theorem 1 regret bound ``n |C| xi^L / pi^(L-1)``.
        """
        return max(float(np.linalg.norm(layer.weight, 2)) for layer in self.layers)
