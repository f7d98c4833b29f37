"""Generator and critic for the learned forward model of the camera.

Both nets are stacks of 10 circular 1-D conv blocks with 2 channels and
kernel width 7, leaky_relu(0.2) between blocks. The generator starts with a
fully-connected layer mapping (8 params + noise) to 2*L and ends in a sigmoid;
the critic starts from the single-channel code (first block maps 1 -> 2) and
ends with a fully-connected layer producing [score, 8 predicted params].
No normalization layers anywhere: the gradient penalty requires per-sample
critic behavior.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .oracle import derive_seed, validate_params

N_PARAMS = 8
N_BLOCKS = 10
CHANNELS = 2
KERNEL = 7


def _he_std(fan_in: int, slope: float = 0.2) -> float:
    return float(np.sqrt(2.0 / ((1.0 + slope * slope) * fan_in)))


def generator_layout(L: int, z_dim: int) -> list[tuple[str, tuple, float]]:
    """(name, shape, init std) of every generator weight, in declaration order."""
    n_in = N_PARAMS + z_dim
    layout = [("fc_W", (CHANNELS * L, n_in), _he_std(n_in)), ("fc_b", (CHANNELS * L,), 0.0)]
    for i in range(N_BLOCKS):
        cout = 1 if i == N_BLOCKS - 1 else CHANNELS
        layout += [(f"conv{i}_k", (cout, CHANNELS, KERNEL), _he_std(CHANNELS * KERNEL)),
                   (f"conv{i}_b", (cout,), 0.0)]
    return layout


def critic_layout(L: int) -> list[tuple[str, tuple, float]]:
    """(name, shape, init std) of every critic weight, in declaration order."""
    layout = []
    for i in range(N_BLOCKS):
        cin = 1 if i == 0 else CHANNELS
        layout += [(f"conv{i}_k", (CHANNELS, cin, KERNEL), _he_std(cin * KERNEL)),
                   (f"conv{i}_b", (CHANNELS,), 0.0)]
    layout += [("fc_W", (1 + N_PARAMS, CHANNELS * L), _he_std(CHANNELS * L)),
               ("fc_b", (1 + N_PARAMS,), 0.0)]
    return layout


class _Net:
    """Named weight tensors drawn in layout order from one seeded stream."""

    def __init__(self, layout, rng: np.random.Generator):
        self._names = [name for name, _, _ in layout]
        self._tensors = [Tensor(rng.normal(0.0, std, size=shape) if std else np.zeros(shape))
                         for _, shape, std in layout]
        w = dict(zip(self._names, self._tensors))
        self.fc_W, self.fc_b = w["fc_W"], w["fc_b"]
        self.conv_k = [w[f"conv{i}_k"] for i in range(N_BLOCKS)]
        self.conv_b = [w[f"conv{i}_b"] for i in range(N_BLOCKS)]

    def weights(self) -> list[tuple[str, Tensor]]:
        return list(zip(self._names, self._tensors))

    def tensors(self) -> list[Tensor]:
        return self._tensors


class GeneratorNet(_Net):
    """(C, z) -> soft back-scattered code in (0,1)^L."""

    def __init__(self, L: int, z_dim: int = 32, seed: int = 0):
        self.L = int(L)
        self.z_dim = int(z_dim)
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x47454E)))
        super().__init__(generator_layout(self.L, self.z_dim), rng)

    def forward(self, C: Tensor, z: Tensor) -> Tensor:
        """C: [b, 8], z: [b, z_dim] -> codes [b, L] in (0, 1)."""
        if C.shape[1] != N_PARAMS or z.shape[1] != self.z_dim or C.shape[0] != z.shape[0]:
            raise ValueError(f"generator input shapes C{C.shape}, z{z.shape} invalid")
        b = C.shape[0]
        h = ad.fully_connected(ad.concat([C, z], axis=1), self.fc_W, self.fc_b)
        h = h.reshape(b, CHANNELS, self.L)
        for i in range(N_BLOCKS - 1):
            h = ad.leaky_relu(ad.conv1d_circular(h, self.conv_k[i], self.conv_b[i]))
        h = ad.conv1d_circular(h, self.conv_k[-1], self.conv_b[-1])
        return ad.sigmoid(h.reshape(b, self.L))


class DiscriminatorNet(_Net):
    """code -> [raw validity score, 8 predicted camera params]."""

    def __init__(self, L: int, seed: int = 0):
        self.L = int(L)
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x444953)))
        super().__init__(critic_layout(self.L), rng)

    def forward(self, x: Tensor) -> Tensor:
        """x: [b, L] -> scores [b, 9] (column 0 score, columns 1..8 params)."""
        if len(x.shape) != 2 or x.shape[1] != self.L:
            raise ValueError(f"discriminator input shape {x.shape} != [b, {self.L}]")
        b = x.shape[0]
        h = x.reshape(b, 1, self.L)
        for i in range(N_BLOCKS):
            h = ad.leaky_relu(ad.conv1d_circular(h, self.conv_k[i], self.conv_b[i]))
        return ad.fully_connected(h.reshape(b, CHANNELS * self.L), self.fc_W, self.fc_b)


def generator_forward(G: GeneratorNet, params, z) -> Tensor:
    """Single-sample convenience wrapper: validated params + noise -> soft code [L]."""
    p = validate_params(params)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (G.z_dim,):
        raise ValueError(f"noise shape {z.shape} != ({G.z_dim},)")
    out = G.forward(Tensor(p[None, :]), Tensor(z[None, :]))
    return out.reshape(G.L)


def discriminator_forward(D: DiscriminatorNet, code) -> tuple[float, np.ndarray]:
    """Single code -> (raw validity score, predicted 8-vector)."""
    x = np.asarray(code, dtype=np.float64)
    if x.shape != (D.L,):
        raise ValueError(f"code shape {x.shape} != ({D.L},)")
    with ad.no_record():
        scores = D.forward(Tensor(x[None, :]))
    return float(scores.data[0, 0]), scores.data[0, 1:].copy()


def set_weights(net, arrays: dict[str, np.ndarray]) -> None:
    """Load weight arrays (by name) into a net, in place."""
    for name, t in net.weights():
        if name not in arrays:
            raise ValueError(f"weight {name}: missing")
        a = arrays[name]
        if a.shape != t.data.shape:
            raise ValueError(f"weight {name}: shape {a.shape} != {t.data.shape}")
        t.data[...] = a
