"""The desk-scale segmentation network.

Four stride-1 conv blocks (conv -> instance norm -> ReLU) followed by a 1x1
classifier, so logits live at input resolution.  The activations entering the
classifier are the penultimate features used by the region-selection module;
their channel count is ``FEATURE_DIM``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, conv2d, instance_norm, relu
from .layers import ParamGroup, conv_params
from .rng import SplitMix64

FEATURE_DIM = 16
_WIDTHS = (16, 16, 16, FEATURE_DIM)


class TaskNet:
    def __init__(self, num_classes: int, rng: SplitMix64):
        self.num_classes = num_classes
        self.params = ParamGroup()
        widths = (3,) + _WIDTHS
        self.blocks = [
            self.params.register(f"block{i}", conv_params(rng, widths[i], widths[i + 1], k=3))
            for i in range(len(_WIDTHS))
        ]
        self.classifier = self.params.register(
            "classifier", conv_params(rng, FEATURE_DIM, num_classes, k=1)
        )

    def forward(self, image: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (logits, penultimate features), both at input resolution."""
        h = image
        for p in self.blocks:
            h = relu(instance_norm(conv2d(h, p, stride=1, pad=1)))
        logits = conv2d(h, self.classifier, stride=1, pad=0)
        return logits, h

    def predict(self, image_data: np.ndarray) -> np.ndarray:
        """Argmax class map for a (B,3,H,W) array; ties go to the lowest index."""
        logits, _ = self.forward(Tensor(image_data))
        return np.argmax(logits.data, axis=1)
