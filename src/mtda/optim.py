"""Momentum SGD and Adam with L2 weight decay as an additive gradient term.

Update rules (per parameter, decay applied first as g <- g + wd * p):

    SGD:   v <- momentum * v + g;          p <- p - lr * v
    Adam:  m <- b1 m + (1-b1) g;  s <- b2 s + (1-b2) g^2
           p <- p - lr * m/(1-b1^t) / (sqrt(s/(1-b2^t)) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class SgdMomentum:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    _velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, named_params: list[tuple[str, Tensor]]) -> None:
        for name, p in named_params:
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(name)
                v = g if v is None else self.momentum * v + g
                self._velocity[name] = v
            else:
                v = g
            p.data = p.data - self.lr * v


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    _t: int = 0
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _s: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, named_params: list[tuple[str, Tensor]]) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for name, p in named_params:
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m.get(name, 0.0)
            s = self._s.get(name, 0.0)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            s = self.beta2 * s + (1.0 - self.beta2) * (g * g)
            self._m[name] = m
            self._s[name] = s
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(s / bc2) + self.eps)
