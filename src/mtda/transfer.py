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
the statistics vectors select the target, so a batch's style pair and
content are extracted once and restyled toward any number of targets.
The generator decodes a feature back to an image through one 3x3 conv and
two nearest-2x-upsample-then-3x3-conv layers; each of those runs as one
``upsample_conv2d`` at its input's resolution, a quarter of the pixels.
``MtdtModel.transfer_image`` is the one restyle: DST blocks, then
``gamma * content + beta``, generate, and a clamp to [-1,1].  Training, the
exported restyled sets and the critic's accuracy all call it.

One critic, shared by every target, carries a trunk with a patch-logit head
(real/fake per patch) and a domain-classification head.  Real/fake terms use
binary cross-entropy on logits in the non-saturating form: the critic
minimizes BCE(real, 1) + BCE(fake, 0); the generator minimizes BCE(fake, 1).
The generator additionally minimizes reconstruction L1 on the three
reconstruction routes, a fixed-network perceptual distance between each
restyled image and its source, and domain-classification cross-entropy on
the restyled images.

``mtdt_losses`` builds every term in one forward pass over all N targets
at once: the N target batches arrive stacked domain-major in one (N*B)
array, the source style and content are tiled N times to match, and TAD
reads one statistics row per sample, so one ``transfer_image`` call, one
perceptual and three critic passes serve every target.  A training
iteration records that pass on one tape and asks it twice for gradients:
the generator total's with respect to the generator parameters, then the
critic total's with respect to the critic parameters.
"""

from __future__ import annotations

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
    repeat_batch,
    sigmoid_bce_with_logits,
    slice_channels,
    softmax_cross_entropy,
    upsample_conv2d,
)
from .layers import ParamGroup, conv_params, fc_params
from .optim import Adam
from .rng import SplitMix64
from .stats import DomainStatistics

FEATURE_CHANNELS = 32
ENCODER_STRIDE = 4


def tad_forward(x: Tensor, stats: list[DomainStatistics], fc_scale: LayerParams,
                fc_bias: LayerParams) -> Tensor:
    """Instance-normalize x, then rescale by FC(sigma) and shift by FC(mu).

    ``stats`` holds one entry for the whole batch or one per sample; the
    stacked MTDT batch passes one per sample, domain-major.  Mismatched
    statistics, FC and channel sizes raise ShapeError from the ops."""
    scale = fully_connected(Tensor(np.stack([s.sigma for s in stats])), fc_scale)
    bias = fully_connected(Tensor(np.stack([s.mu for s in stats])), fc_bias)
    return channel_affine(instance_norm(x), scale, bias)


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

    def forward(self, x: Tensor, stats: list[DomainStatistics]) -> Tensor:
        h = conv2d(x, self.conv_a, stride=1, pad=1)
        h = relu(tad_forward(h, stats, self.fc_scale_a, self.fc_bias_a))
        h = conv2d(h, self.conv_b, stride=1, pad=1)
        h = tad_forward(h, stats, self.fc_scale_b, self.fc_bias_b)
        return x + h


class MtdtModel:
    """Encoder, style encoder, label projection, style-transfer blocks, generator."""

    def __init__(self, num_classes: int, rng: SplitMix64):
        self.num_classes = num_classes
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
        h = relu(instance_norm(conv2d(h, self.enc2, stride=2, pad=1)))
        return conv2d(h, self.enc3, stride=2, pad=1)

    def extract_style(self, image: Tensor) -> tuple[Tensor, Tensor]:
        """(B,3,H,W) -> the style pair (gamma, beta), each (B,Cf,H/4,W/4)."""
        self._check_image(image)
        h = relu(conv2d(image, self.se1, stride=1, pad=1))
        h = relu(instance_norm(conv2d(h, self.se2, stride=2, pad=1)))
        h = relu(conv2d(h, self.se3, stride=2, pad=1))
        return conv2d(h, self.se_gamma, stride=1, pad=1), conv2d(h, self.se_beta, stride=1, pad=1)

    def content_from_labels(self, label: np.ndarray) -> Tensor:
        """(B,H,W) integer labels at image resolution -> content tensor: a 1x1
        projection of their one-hot map at feature resolution."""
        small = label[:, None, ::ENCODER_STRIDE, ::ENCODER_STRIDE]
        # one-hot; a label outside [0, num_classes), such as the ignore value, matches no class
        onehot = small == np.arange(self.num_classes)[:, None, None]
        return conv2d(Tensor(onehot), self.phi, stride=1, pad=0)

    def extract_style_content(self, image: Tensor, label: np.ndarray
                              ) -> tuple[tuple[Tensor, Tensor], Tensor]:
        if label.shape != image.shape[:1] + image.shape[2:]:
            raise ShapeError(f"label shape {label.shape} does not match image {image.shape}")
        return self.extract_style(image), self.content_from_labels(label)

    def dst_transfer(self, style: tuple[Tensor, Tensor],
                     stats: list[DomainStatistics]) -> tuple[Tensor, Tensor]:
        """Map the source style pair (gamma, beta) to the target-styled pair
        for `stats` (one entry for the whole batch or one per sample, as in
        TAD)."""
        cf = style[0].shape[1]
        h = concat_channels(list(style))
        for block in self.dst_blocks:
            h = block.forward(h, stats)
        return slice_channels(h, 0, cf), slice_channels(h, cf, 2 * cf)

    def generate(self, feature: Tensor) -> Tensor:
        """(B,Cf,H/4,W/4) feature -> (B,3,H,W) image: a 3x3 conv, then twice a
        nearest 2x upsample followed by a 3x3 conv.  Each upsample-then-conv
        runs as one :func:`upsample_conv2d` at the lower resolution."""
        h = relu(conv2d(feature, self.gen1, stride=1, pad=1))
        h = relu(instance_norm(upsample_conv2d(h, self.gen2)))
        return upsample_conv2d(h, self.gen3)

    def transfer_image(self, style: tuple[Tensor, Tensor], content: Tensor,
                       stats: list[DomainStatistics]) -> Tensor:
        """Restyle a batch from its :meth:`extract_style_content` output toward
        `stats` (one entry for the whole batch or one per sample, as in TAD):
        transfer -> gamma * content + beta -> generate -> clamp to [-1,1],
        the range real scenes live in."""
        gamma, beta = self.dst_transfer(style, stats)
        return clamp_unit(self.generate(gamma * content + beta))


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

    The features are not invariant to per-channel affine recoloring: the
    first conv mixes the three channels before its instance norm, so only a
    gain shared by every channel cancels.  Measured on 32 default training
    scenes at seeds 7, 8 and 9, the MSE from a source image to its true
    dusk or night render (0.097-0.196) is about that to another source
    scene (0.144-0.188), and 8-16x that to its per-channel moment match
    (0.010-0.037).  As the content anchor it thus rates the true restyle
    about as far from its source as a different scene, and favours a
    monotone per-channel recoloring, such as the moment match, over it."""

    def __init__(self, seed: int):
        rng = SplitMix64(seed).derive("perceptual")
        self.c1 = conv_params(rng, 3, 8)
        self.c2 = conv_params(rng, 8, 16)
        self.c3 = conv_params(rng, 16, 16)
        for p in (self.c1, self.c2, self.c3):
            p.weights.requires_grad = False
            p.bias.requires_grad = False

    def features(self, image: Tensor) -> Tensor:
        h = relu(instance_norm(conv2d(image, self.c1, stride=2, pad=1)))
        h = relu(instance_norm(conv2d(h, self.c2, stride=2, pad=1)))
        return conv2d(h, self.c3, stride=1, pad=1)


def mtdt_losses(model: MtdtModel, disc: MultiHeadDiscriminator, pnet: PerceptualNet,
                batch: tuple[np.ndarray, np.ndarray, np.ndarray],
                stats_list: list[DomainStatistics]) -> tuple[Tensor, Tensor, dict[str, Tensor]]:
    """Every objective term in one pass over all targets, returned as the
    generator total ``rec + per + adv_g + cls_g``, the discriminator total
    ``adv_d + cls_d``, and those six scalar tensors by name.

    ``batch`` is ``(source_images, source_labels, target_images)``: (B,3,H,W)
    images, their (B,H,W) integer labels, and the N target batches stacked
    domain-major into one (N*B,3,H,W) array.  Rows k*B .. k*B+B-1 belong to
    target k, carry domain label k, and are what the source is restyled
    toward with ``stats_list[k]``, by one :meth:`MtdtModel.transfer_image`
    call over the source style and content tiled N times.  The target
    reconstruction term reads ``model.encode(targets)``.  The critic's own
    terms see the restyled images as a fresh leaf, so the discriminator
    total depends only on discriminator parameters.  The generator total
    depends on the generator-side parameters and, through the critic's view
    of the restyled images, on the discriminator parameters too;
    :func:`train_mtdt` asks each total only for its own side's gradients.
    """
    source_images, source_labels, target_images = batch
    n = len(stats_list)
    b = len(source_images)
    if len(target_images) != n * b:
        raise ValueError(f"{n} statistics for {len(target_images)} target rows; "
                         f"{n} domains of {b} source rows need {n * b}")
    if n != disc.num_domains:
        raise ValueError(f"discriminator expects {disc.num_domains} domains, got {n}")
    source, targets = Tensor(source_images), Tensor(target_images)
    domains = np.repeat(np.arange(n), b)

    (gamma, beta), content = model.extract_style_content(source, source_labels)
    rec = l1_loss(model.generate(model.encode(source)), source)
    rec = rec + l1_loss(model.generate(gamma * content + beta), source)
    # every per-domain term is a mean over B rows, so n * (mean over the N*B
    # stacked rows) is the sum over domains of the per-domain means
    rec = rec + n * l1_loss(model.generate(model.encode(targets)), targets)

    rows = [stats for stats in stats_list for _ in range(b)]
    fake = model.transfer_image((repeat_batch(gamma, n), repeat_batch(beta, n)),
                                repeat_batch(content, n), rows)
    per = n * mse_loss(pnet.features(fake), repeat_batch(pnet.features(source), n))

    patch_fake, dom_fake = disc.forward(fake)
    adv_g = n * sigmoid_bce_with_logits(patch_fake, np.ones(patch_fake.shape))
    cls_g = n * softmax_cross_entropy(dom_fake, domains)

    patch_real, dom_real = disc.forward(targets)
    patch_fake_d, _ = disc.forward(Tensor(fake.data))
    adv_d = n * (sigmoid_bce_with_logits(patch_real, np.ones(patch_real.shape))
                 + sigmoid_bce_with_logits(patch_fake_d, np.zeros(patch_fake_d.shape)))
    cls_d = n * softmax_cross_entropy(dom_real, domains)
    terms = {"rec": rec, "per": per, "adv_g": adv_g, "cls_g": cls_g,
             "adv_d": adv_d, "cls_d": cls_d}
    return rec + per + adv_g + cls_g, adv_d + cls_d, terms


MTDT_LR = 1e-3  # the generator's Adam rate; betas and eps are optim's constants
MTDT_WEIGHT_DECAY = 1e-5
DISC_LR_FACTOR = 2.0


def train_mtdt(model: MtdtModel, disc: MultiHeadDiscriminator, pnet: PerceptualNet,
               batches, stats_list: list[DomainStatistics], *, log_sink) -> None:
    """Alternating generator/discriminator optimization, one iteration per
    ``(source_images, source_labels, target_images)`` batch of the iterable
    ``batches``, which is read one batch at a time.

    Each iteration records :func:`mtdt_losses` on one tape and asks it for
    two gradients: the generator total's with respect to the generator
    parameters only, which drives the generator step, and the critic
    total's with respect to the critic parameters only, which drives the
    critic step.  Both come from the one recorded pass, so the critic step
    sees the restyled images as a leaf and the critic's weights from before
    either step.  The critic runs on a faster timescale
    (DISC_LR_FACTOR x the generator rate): with one step each per iteration
    and a shared rate, the much larger generator tracks the critic's
    boundary and pins it at chance, and the restyled branch then collapses.
    Each iteration passes ``log_sink`` one record: ``iteration``, the six
    terms and the two totals ``g_total`` and ``d_total``, as floats read from
    the tensors the two steps were taken on.
    Raises ValueError if ``stats_list`` does not match the batch's target rows
    and the critic's domains, and RuntimeError, before the record reaches
    ``log_sink``, if any loss goes non-finite.
    """
    adam_g = Adam(lr=MTDT_LR, weight_decay=MTDT_WEIGHT_DECAY)
    adam_d = Adam(lr=MTDT_LR * DISC_LR_FACTOR, weight_decay=MTDT_WEIGHT_DECAY)
    gen_params, disc_params = model.params.tensors(), disc.params.tensors()

    for i, batch in enumerate(batches):
        with Tape() as tape:
            loss_g, loss_d, terms = mtdt_losses(model, disc, pnet, batch, stats_list)
        adam_g.step(gen_params, tape.backward(loss_g, gen_params))
        adam_d.step(disc_params, tape.backward(loss_d, disc_params))

        record = {"iteration": i, **{name: t.item() for name, t in terms.items()},
                  "g_total": loss_g.item(), "d_total": loss_d.item()}
        if not all(np.isfinite(v) for v in record.values()):
            raise RuntimeError(f"non-finite loss at iteration {i}: {record}")
        log_sink(record)
