"""Multi-target domain transfer network and its training objective.

One encoder/generator pair spans every domain.  A style encoder produces a
multiplicative/additive pair (gamma, beta) from the image; a 1x1 projection
of the one-hot label gives the content map; ``gamma * content + beta``
re-assembles an image feature for the generator.  Restyling to a target
domain passes (gamma, beta), concatenated on channels, through two residual
blocks whose normalization layers are modulated by that domain's frozen
channel statistics: each block runs conv -> TAD -> ReLU -> conv -> TAD with
an additive skip, and TAD instance-normalizes its input then rescales by
FC(sigma) and shifts by FC(mu).  Nothing in the model is per-domain; only
the statistics vectors select the target.

One critic, shared by every target, carries a trunk with a patch-logit head
(real/fake per patch) and a domain-classification head.  Real/fake terms use
binary cross-entropy on logits in the non-saturating form: the critic
minimizes BCE(real, 1) + BCE(fake, 0); the generator minimizes BCE(fake, 1).
The generator additionally minimizes reconstruction L1 on the three
reconstruction routes, a fixed-network perceptual distance between each
restyled image and its source, and domain-classification cross-entropy on
the restyled images.

``mtdt_losses`` builds every term in one forward pass.  A training
iteration records that pass on one tape and runs backward twice on it:
once from the generator total for the generator step, once from the critic
total for the critic step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    LayerParams,
    Tape,
    Tensor,
    ShapeError,
    channel_affine,
    clamp_unit,
    concat_channels,
    conv2d,
    fully_connected,
    global_avg_pool,
    instance_norm,
    l1_loss,
    mse_loss,
    relu,
    sigmoid_bce_with_logits,
    slice_channels,
    softmax_cross_entropy,
    upsample_nearest2x,
)
from .labelops import nn_downsample, one_hot
from .layers import ParamGroup, conv_params, fc_params
from .optim import Adam
from .rng import SplitMix64
from .stats import DomainStatistics

FEATURE_CHANNELS = 32
ENCODER_STRIDE = 4
NORM_EPS = 1e-5


@dataclass
class StyleTensors:
    gamma: Tensor
    beta: Tensor

    def __post_init__(self):
        if self.gamma.shape != self.beta.shape:
            raise ShapeError(f"gamma shape {self.gamma.shape} != beta shape {self.beta.shape}")


@dataclass
class ContentTensor:
    c: Tensor


def compose(style: StyleTensors, content: ContentTensor) -> Tensor:
    """Image feature = gamma * content + beta, elementwise."""
    if style.gamma.shape != content.c.shape:
        raise ShapeError(f"style shape {style.gamma.shape} != content shape {content.c.shape}")
    return style.gamma * content.c + style.beta


def tad_forward(x: Tensor, stats: DomainStatistics, fc_scale: LayerParams,
                fc_bias: LayerParams, eps: float = NORM_EPS) -> Tensor:
    """Instance-normalize x, then rescale by FC(sigma) and shift by FC(mu)."""
    c = x.shape[1]
    if fc_scale.in_dim != stats.channels or fc_bias.in_dim != stats.channels:
        raise ShapeError(
            f"TAD FC input dims ({fc_scale.in_dim},{fc_bias.in_dim}) "
            f"!= statistics channels {stats.channels}"
        )
    if fc_scale.out_dim != c or fc_bias.out_dim != c:
        raise ShapeError(
            f"TAD FC output dims ({fc_scale.out_dim},{fc_bias.out_dim}) != input channels {c}"
        )
    scale = fully_connected(Tensor(stats.sigma[None, :]), fc_scale)
    bias = fully_connected(Tensor(stats.mu[None, :]), fc_bias)
    return channel_affine(instance_norm(x, eps), scale, bias)


class TadResBlock:
    """conv -> TAD -> ReLU -> conv -> TAD, plus identity skip.

    The second TAD's scale FC starts at zero, so at initialization the
    residual branch is the per-channel shift FC_bias_b(mu) of the target
    mean: the block stays close to an identity, and restyling departs from
    the intact source-styled reconstruction instead of from
    statistics-conditioned noise, yet its output already depends on the
    target statistics, and the first useful gradients flow straight into
    the FC layers that read them."""

    def __init__(self, params: ParamGroup, prefix: str, channels: int, stats_dim: int,
                 rng: SplitMix64):
        reg = params.register
        self.conv_a = reg(f"{prefix}.conv_a", conv_params(rng, channels, channels, k=3))
        self.fc_scale_a = reg(f"{prefix}.fc_scale_a", fc_params(rng, stats_dim, channels))
        self.fc_bias_a = reg(f"{prefix}.fc_bias_a", fc_params(rng, stats_dim, channels))
        self.conv_b = reg(f"{prefix}.conv_b", conv_params(rng, channels, channels, k=3))
        self.fc_scale_b = reg(f"{prefix}.fc_scale_b", fc_params(rng, stats_dim, channels))
        self.fc_bias_b = reg(f"{prefix}.fc_bias_b", fc_params(rng, stats_dim, channels))
        self.fc_scale_b.weights.data[:] = 0.0
        self.fc_scale_b.bias.data[:] = 0.0

    def forward(self, x: Tensor, stats: DomainStatistics) -> Tensor:
        h = conv2d(x, self.conv_a, stride=1, pad=1)
        h = relu(tad_forward(h, stats, self.fc_scale_a, self.fc_bias_a))
        h = conv2d(h, self.conv_b, stride=1, pad=1)
        h = tad_forward(h, stats, self.fc_scale_b, self.fc_bias_b)
        return x + h


class MtdtModel:
    """Encoder, style encoder, label projection, style-transfer blocks, generator."""

    def __init__(self, num_classes: int, rng: SplitMix64, eps: float = NORM_EPS):
        self.num_classes = num_classes
        self.eps = eps
        cf = FEATURE_CHANNELS
        self.params = ParamGroup()
        reg = self.params.register

        r = rng.derive("encoder")
        self.enc1 = reg("enc.c1", conv_params(r, 3, 16))
        self.enc2 = reg("enc.c2", conv_params(r, 16, cf))
        self.enc3 = reg("enc.c3", conv_params(r, cf, cf))

        r = rng.derive("style")
        self.se1 = reg("se.c1", conv_params(r, 3, 16))
        self.se2 = reg("se.c2", conv_params(r, 16, cf))
        self.se3 = reg("se.c3", conv_params(r, cf, cf))
        self.se_gamma = reg("se.gamma", conv_params(r, cf, cf))
        self.se_beta = reg("se.beta", conv_params(r, cf, cf))

        r = rng.derive("content")
        self.phi = reg("phi", conv_params(r, num_classes, cf, k=1))

        r = rng.derive("dst")
        self.dst_blocks = [
            TadResBlock(self.params, f"dst.block{i}", 2 * cf, cf, r) for i in range(2)
        ]

        r = rng.derive("generator")
        self.gen1 = reg("gen.c1", conv_params(r, cf, cf))
        self.gen2 = reg("gen.c2", conv_params(r, cf, 16))
        self.gen3 = reg("gen.c3", conv_params(r, 16, 3))

    def _check_image(self, image: Tensor) -> None:
        if image.data.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"image must be (B,3,H,W), got {image.shape}")
        if image.shape[2] % ENCODER_STRIDE or image.shape[3] % ENCODER_STRIDE:
            raise ShapeError(
                f"image spatial size {image.shape[2:]} must be a multiple of {ENCODER_STRIDE}"
            )

    def encode(self, image: Tensor) -> Tensor:
        """(B,3,H,W) -> feature (B,Cf,H/4,W/4).  Final layer is unnormalized so
        feature statistics keep the domain's appearance."""
        self._check_image(image)
        h = relu(conv2d(image, self.enc1, stride=1, pad=1))
        h = relu(instance_norm(conv2d(h, self.enc2, stride=2, pad=1), self.eps))
        return conv2d(h, self.enc3, stride=2, pad=1)

    def extract_style(self, image: Tensor) -> StyleTensors:
        self._check_image(image)
        h = relu(conv2d(image, self.se1, stride=1, pad=1))
        h = relu(instance_norm(conv2d(h, self.se2, stride=2, pad=1), self.eps))
        h = relu(conv2d(h, self.se3, stride=2, pad=1))
        return StyleTensors(
            gamma=conv2d(h, self.se_gamma, stride=1, pad=1),
            beta=conv2d(h, self.se_beta, stride=1, pad=1),
        )

    def content_from_onehot(self, label_onehot: Tensor) -> ContentTensor:
        """1x1 projection of a one-hot label map already at feature resolution."""
        if label_onehot.shape[1] != self.num_classes:
            raise ShapeError(
                f"label one-hot has {label_onehot.shape[1]} channels, expected {self.num_classes}"
            )
        return ContentTensor(conv2d(label_onehot, self.phi, stride=1, pad=0))

    def content_from_labels(self, label: np.ndarray) -> ContentTensor:
        """(B,H,W) integer labels at image resolution -> content tensor."""
        small = nn_downsample(label, ENCODER_STRIDE)
        return self.content_from_onehot(Tensor(one_hot(small, self.num_classes)))

    def extract_style_content(self, image: Tensor, label: np.ndarray
                              ) -> tuple[StyleTensors, ContentTensor]:
        return self.extract_style(image), self.content_from_labels(label)

    def dst_transfer(self, style: StyleTensors, stats: DomainStatistics) -> StyleTensors:
        """Map source style tensors to the target-styled pair for `stats`."""
        cf = style.gamma.shape[1]
        h = concat_channels([style.gamma, style.beta])
        for block in self.dst_blocks:
            h = block.forward(h, stats)
        return StyleTensors(
            gamma=slice_channels(h, 0, cf),
            beta=slice_channels(h, cf, 2 * cf),
        )

    def generate(self, feature: Tensor) -> Tensor:
        h = relu(conv2d(feature, self.gen1, stride=1, pad=1))
        h = upsample_nearest2x(h)
        h = relu(instance_norm(conv2d(h, self.gen2, stride=1, pad=1), self.eps))
        h = upsample_nearest2x(h)
        return conv2d(h, self.gen3, stride=1, pad=1)

    def transfer_image(self, image: Tensor, label: np.ndarray,
                       stats: DomainStatistics) -> Tensor:
        """Full restyling pipeline: style -> transfer -> compose -> generate."""
        style, content = self.extract_style_content(image, label)
        moved = self.dst_transfer(style, stats)
        return self.generate(compose(moved, content))

    def reconstruct_direct(self, image: Tensor) -> Tensor:
        return self.generate(self.encode(image))


class MultiHeadDiscriminator:
    """Shared conv trunk with a patch real/fake head and a domain classifier.

    Deliberately small: at this scale a wide critic overpowers the generator
    and the reconstruction objective loses the class structure."""

    def __init__(self, num_domains: int, rng: SplitMix64):
        self.num_domains = num_domains
        self.params = ParamGroup()
        reg = self.params.register
        r = rng.derive("disc")
        self.t1 = reg("trunk.c1", conv_params(r, 3, 12))
        self.t2 = reg("trunk.c2", conv_params(r, 12, 24))
        self.adv_head = reg("adv", conv_params(r, 24, 1))
        self.cls_fc1 = reg("cls.fc1", fc_params(r, 24, 24))
        self.cls_fc2 = reg("cls.fc2", fc_params(r, 24, num_domains))

    def forward(self, image: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (patch logits (B,1,H/4,W/4), domain logits (B,N)).

        No normalization in the trunk: per-channel feature means are the
        strongest real/fake and domain cues here, and instance norm would
        erase them."""
        h = relu(conv2d(image, self.t1, stride=2, pad=1))
        h = relu(conv2d(h, self.t2, stride=2, pad=1))
        patch = conv2d(h, self.adv_head, stride=1, pad=1)
        pooled = global_avg_pool(h)
        domain = fully_connected(relu(fully_connected(pooled, self.cls_fc1)), self.cls_fc2)
        return patch, domain


class PerceptualNet:
    """Fixed, seeded 3-conv stack; distances between its final-layer activations.

    Instance norm after the first two convs makes the features largely
    invariant to per-channel affine recoloring — the content anchor must not
    oppose moving an image into another domain's palette — while contrast
    between regions (what restyling has to preserve) still registers
    strongly."""

    def __init__(self, seed: int):
        rng = SplitMix64(seed).derive("perceptual")
        self.c1 = conv_params(rng, 3, 8)
        self.c2 = conv_params(rng, 8, 16)
        self.c3 = conv_params(rng, 16, 16)
        for p in (self.c1, self.c2, self.c3):
            p.weights.requires_grad = False
            p.bias.requires_grad = False

    def features(self, image: Tensor) -> Tensor:
        h = relu(instance_norm(conv2d(image, self.c1, stride=2, pad=1), NORM_EPS))
        h = relu(instance_norm(conv2d(h, self.c2, stride=2, pad=1), NORM_EPS))
        return conv2d(h, self.c3, stride=1, pad=1)


@dataclass
class TransferBatch:
    source_image: Tensor            # (B,3,H,W)
    source_label: np.ndarray        # (B,H,W) int
    target_images: list[Tensor]     # one (B,3,H,W) tensor per target domain


@dataclass
class LossTerms:
    rec: Tensor
    per: Tensor
    adv_g: Tensor
    cls_g: Tensor
    adv_d: Tensor
    cls_d: Tensor

    @property
    def generator_total(self) -> Tensor:
        return self.rec + self.per + self.adv_g + self.cls_g

    @property
    def discriminator_total(self) -> Tensor:
        return self.adv_d + self.cls_d

    def breakdown(self) -> dict[str, float]:
        return {
            "rec": self.rec.item(),
            "per": self.per.item(),
            "adv_g": self.adv_g.item(),
            "cls_g": self.cls_g.item(),
            "adv_d": self.adv_d.item(),
            "cls_d": self.cls_d.item(),
            "g_total": self.generator_total.item(),
            "d_total": self.discriminator_total.item(),
        }


def _domain_targets(batch_size: int, k: int) -> np.ndarray:
    return np.full(batch_size, k, dtype=np.int64)


def mtdt_losses(model: MtdtModel, disc: MultiHeadDiscriminator, pnet: PerceptualNet,
                batch: TransferBatch, stats_list: list[DomainStatistics]) -> LossTerms:
    """Every objective term in one pass.

    The discriminator terms see the restyled images detached, so backward of
    the discriminator total reaches only discriminator parameters.  Backward
    of the generator total reaches the generator-side parameters and, through
    the critic's view of the restyled images, the discriminator parameters
    too; :func:`train_mtdt` drops those before its critic step.
    """
    if len(stats_list) != len(batch.target_images):
        raise ValueError(
            f"{len(stats_list)} statistics for {len(batch.target_images)} target domains"
        )
    if len(stats_list) != disc.num_domains:
        raise ValueError(
            f"discriminator expects {disc.num_domains} domains, got {len(stats_list)}"
        )
    b = batch.source_image.shape[0]

    style, content = model.extract_style_content(batch.source_image, batch.source_label)
    rec = l1_loss(model.reconstruct_direct(batch.source_image), batch.source_image)
    rec = rec + l1_loss(model.generate(compose(style, content)), batch.source_image)

    per = Tensor(0.0)
    adv_g = Tensor(0.0)
    cls_g = Tensor(0.0)
    adv_d = Tensor(0.0)
    cls_d = Tensor(0.0)
    p_src = pnet.features(batch.source_image)

    for k, (target, stats) in enumerate(zip(batch.target_images, stats_list)):
        rec = rec + l1_loss(model.reconstruct_direct(target), target)

        # the raw generator output is unbounded; every loss that compares a
        # restyled image with real (clamped) data sees it squashed to [-1,1]
        fake = clamp_unit(model.generate(compose(model.dst_transfer(style, stats), content)))
        per = per + mse_loss(pnet.features(fake), p_src)

        patch_fake, dom_fake = disc.forward(fake)
        adv_g = adv_g + sigmoid_bce_with_logits(patch_fake, np.ones(patch_fake.shape))
        cls_g = cls_g + softmax_cross_entropy(dom_fake, _domain_targets(b, k))

        patch_real, dom_real = disc.forward(target)
        patch_fake_d, _ = disc.forward(fake.detach())
        adv_d = adv_d + sigmoid_bce_with_logits(patch_real, np.ones(patch_real.shape))
        adv_d = adv_d + sigmoid_bce_with_logits(patch_fake_d, np.zeros(patch_fake_d.shape))
        cls_d = cls_d + softmax_cross_entropy(dom_real, _domain_targets(b, k))

    return LossTerms(rec=rec, per=per, adv_g=adv_g, cls_g=cls_g, adv_d=adv_d, cls_d=cls_d)


DISC_LR_FACTOR = 2.0


def train_mtdt(model: MtdtModel, disc: MultiHeadDiscriminator, pnet: PerceptualNet,
               sample_batch, stats_list: list[DomainStatistics], *,
               iterations: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
               weight_decay: float = 1e-5,
               log_sink=None) -> list[dict]:
    """Alternating generator/discriminator optimization.

    ``sample_batch(i)`` must return the iteration's :class:`TransferBatch`.
    Each iteration records :func:`mtdt_losses` on one tape.  Backward of the
    generator total drives the generator step; its gradients on the critic
    are then dropped, and backward of the discriminator total, which sees
    the restyled images detached and the critic's weights from before either
    step, drives the critic step.  The critic runs on a faster timescale
    (DISC_LR_FACTOR x the generator rate): with one step each per iteration
    and a shared rate, the much larger generator tracks the critic's
    boundary and pins it at chance, and the restyled branch then collapses.
    Raises ValueError if ``stats_list`` does not match the batch's targets
    and the critic's domains, and RuntimeError if any loss goes non-finite.
    Returns the per-iteration loss records (also passed to ``log_sink`` when
    given).
    """
    adam_g = Adam(lr=lr, beta1=beta1, beta2=beta2, weight_decay=weight_decay)
    adam_d = Adam(lr=lr * DISC_LR_FACTOR, beta1=beta1, beta2=beta2,
                  weight_decay=weight_decay)
    gen_named = model.params.named()
    disc_named = disc.params.named()
    log: list[dict] = []

    for i in range(iterations):
        with Tape() as tape:
            terms = mtdt_losses(model, disc, pnet, sample_batch(i), stats_list)
            loss_g = terms.generator_total
            loss_d = terms.discriminator_total
        model.params.zero_grad()
        tape.backward(loss_g)
        adam_g.step(gen_named)
        disc.params.zero_grad()
        tape.backward(loss_d)
        adam_d.step(disc_named)
        model.params.zero_grad()
        disc.params.zero_grad()

        record = {"iteration": i, **terms.breakdown()}
        if not all(np.isfinite(v) for v in record.values()):
            raise RuntimeError(f"non-finite loss at iteration {i}: {record}")
        log.append(record)
        if log_sink is not None:
            log_sink(record)
    return log
