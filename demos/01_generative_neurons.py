"""Generative neurons: learned power-series kernels vs plain convolutions.

A generative layer computes bias + sum_q conv1d(w_q, x**q).  With Q=1 it
*is* a convolution; higher orders add per-tap nonlinearity.  This script
shows the Q=1 equivalence and then fits tanh of a pointwise cubic map,
which a layer with a purely linear kernel cannot represent (every
operational layer ends in tanh).
"""

import numpy as np

from opvib import Adam, OperationalLayer, OperationalLayerConfig, Tensor, conv1d

rng = np.random.default_rng(0)

# --- 1. first-order layers reduce to convolutions --------------------------------

y = rng.uniform(-1, 1, (2, 64)).astype(np.float32)
layer = OperationalLayer(OperationalLayerConfig(2, 3, kernel=5, q=1, padding=2), rng)
layer.biases.data[:] = rng.standard_normal(3)
gen = layer(Tensor(y))
ref = conv1d(Tensor(y), layer.weights, layer.biases, stride=1, padding=2).tanh()
print("Q=1 layer vs plain conv, max |diff|:", np.abs(gen.data - ref.data).max())

# --- 2. a cubic under the tanh needs the higher-order terms -------------------------

x = rng.uniform(-1, 1, (1, 256)).astype(np.float32)
# odd cubic inside the layer's tanh: zero error is impossible for Q=1
target = np.tanh(0.8 * x ** 3 - 0.4 * x).astype(np.float32)


def fit(q_order, steps=400):
    layer = OperationalLayer(
        OperationalLayerConfig(1, 1, kernel=1, q=q_order),
        np.random.default_rng(1),
    )
    opt = Adam(layer.parameters(), lr=1e-2)
    for _ in range(steps):
        opt.zero_grad()
        err = layer(Tensor(x)) - Tensor(target)
        loss = (err * err).mean()
        loss.backward()
        opt.step()
    return loss.item()


for q in (1, 2, 3):
    print(f"Q={q}: final MSE fitting tanh of the cubic map: {fit(q):.6f}")
print("third-order kernels capture the cubic exactly; the linear layer plateaus")
