"""Momentum SGD and Adam with L2 weight decay as an additive gradient term.

``step(params, grads)`` takes the parameter tensors and their gradients,
the same list that went to ``Tape.backward(loss, params)`` and what it
returned.  A None gradient (the loss does not reach that parameter) leaves
the parameter and its optimizer state untouched.  A length mismatch raises
ValueError before anything is updated.  The state is keyed by position in
``params``, so every step of one optimizer must pass the same list in the
same order.

Update rules (per parameter, decay applied first as g <- g + wd * p):

    SGD:   v <- momentum * v + g;          p <- p - lr * v
    Adam:  m <- b1 m + (1-b1) g;  s <- b2 s + (1-b2) g^2
           p <- p - lr * m/(1-b1^t) / (sqrt(s/(1-b2^t)) + eps)

Adam's b1, b2 and eps are the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``, the values of Kingma & Ba (2015); only its rate and decay vary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class SgdMomentum:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    _velocity: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self, params: list[Tensor], grads: list[np.ndarray | None]) -> None:
        for i, (p, g) in enumerate(list(zip(params, grads, strict=True))):
            if g is None:
                continue
            g = g + self.weight_decay * p.data
            v = self._velocity.get(i)
            v = g if v is None else self.momentum * v + g
            self._velocity[i] = v
            p.data = p.data - self.lr * v


@dataclass
class Adam:
    lr: float
    weight_decay: float = 0.0
    _t: int = 0
    _m: dict[int, np.ndarray] = field(default_factory=dict)
    _s: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self, params: list[Tensor], grads: list[np.ndarray | None]) -> None:
        pairs = list(zip(params, grads, strict=True))
        self._t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self._t
        bc2 = 1.0 - ADAM_BETA2 ** self._t
        for i, (p, g) in enumerate(pairs):
            if g is None:
                continue
            g = g + self.weight_decay * p.data
            m = self._m.get(i, 0.0)
            s = self._s.get(i, 0.0)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            s = ADAM_BETA2 * s + (1.0 - ADAM_BETA2) * (g * g)
            self._m[i] = m
            self._s[i] = s
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(s / bc2) + ADAM_EPS)
