"""Parameter construction and bookkeeping for the small networks.

Initialization is fan-in-scaled uniform, U(-1/sqrt(fan_in), +1/sqrt(fan_in)),
drawn from a SplitMix64 stream so every run is reproducible from its seed.
"""

from __future__ import annotations

from .autodiff import LayerParams, Tensor
from .rng import SplitMix64


def conv_params(rng: SplitMix64, in_ch: int, out_ch: int, k: int = 3) -> LayerParams:
    fan_in = in_ch * k * k
    bound = fan_in ** -0.5
    w = rng.uniform_range(-bound, bound, out_ch * fan_in).reshape(out_ch, in_ch, k, k)
    b = rng.uniform_range(-bound, bound, out_ch)
    return LayerParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def fc_params(rng: SplitMix64, in_dim: int, out_dim: int) -> LayerParams:
    bound = in_dim ** -0.5
    w = rng.uniform_range(-bound, bound, out_dim * in_dim).reshape(out_dim, in_dim)
    b = rng.uniform_range(-bound, bound, out_dim)
    return LayerParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


class ParamGroup:
    """Flat, ordered collection of named parameter tensors."""

    def __init__(self):
        self._items: list[tuple[str, Tensor]] = []

    def register(self, prefix: str, p: LayerParams) -> LayerParams:
        self._items += [(f"{prefix}.w", p.weights), (f"{prefix}.b", p.bias)]
        return p

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self._items]

    def state_arrays(self) -> dict:
        return {name: t.data.copy() for name, t in self._items}
