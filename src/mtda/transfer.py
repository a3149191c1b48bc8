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
``gamma * content + beta`` (``restyle_features``), generate, and a clamp to
[-1,1].  It takes one statistics entry per target and returns the batch
restyled toward each, domain-major.  The exported restyled sets and the
critic's accuracy call it; training runs its two halves.

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
array and the source is restyled toward all N in one ``dst_transfer``.
Where the math is the same for every route, the rows are stacked on the
batch axis: per iteration one ``encode`` of source and targets, one
``generate`` of every reconstruction and restyle, two perceptual passes
and two critic passes, the generator's view of the restyled
images and the critic's own of targets and restyled images together.  A
training iteration records that pass on one tape and asks it twice for
gradients: the generator total's with respect to the generator parameters,
then the critic total's with respect to the critic parameters.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    IGNORE_VALUE,
    LayerParams,
    Tape,
    Tensor,
    ShapeError,
    channel_affine,
    clamp_unit,
    concat_batch,
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
    slice_batch,
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
    return tad_modulate(instance_norm(x), stats, fc_scale, fc_bias)


def tad_modulate(normed: Tensor, stats: list[DomainStatistics], fc_scale: LayerParams,
                 fc_bias: LayerParams) -> Tensor:
    """TAD after its instance norm: rescale by FC(sigma), shift by FC(mu)."""
    scale = fully_connected(Tensor(np.stack([s.sigma for s in stats])), fc_scale)
    bias = fully_connected(Tensor(np.stack([s.mu for s in stats])), fc_bias)
    return channel_affine(normed, scale, bias)


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

    def forward(self, x: Tensor, stats: list[DomainStatistics], copies: int = 1) -> Tensor:
        """The block on ``copies`` copies of x stacked as by ``repeat_batch``,
        with ``stats`` as TAD reads it for their rows.  conv_a and its instance
        norm read no statistics, so they run once on x, before the tiling."""
        h = repeat_batch(instance_norm(conv2d(x, self.conv_a, stride=1, pad=1)), copies)
        h = relu(tad_modulate(h, stats, self.fc_scale_a, self.fc_bias_a))
        h = conv2d(h, self.conv_b, stride=1, pad=1)
        return repeat_batch(x, copies) + tad_forward(h, stats, self.fc_scale_b, self.fc_bias_b)


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
        """Map the B-row source style pair (gamma, beta) to the pair restyled
        toward each of the N entries of `stats`, one per target: N*B rows,
        domain-major, rows k*B .. k*B+B-1 toward ``stats[k]``.  The first
        block's conv_a and instance norm read no statistics, so they run once
        on the B rows; their output and the block's skip input are then tiled
        N times."""
        b, cf = style[0].shape[:2]
        n = len(stats)
        # TAD takes one entry for the whole batch, or one per row; one target's
        # FCs then run on one row, as the restyle of one target always has
        rows = stats if n == 1 else [s for s in stats for _ in range(b)]
        first, *rest = self.dst_blocks
        h = first.forward(concat_channels(list(style)), rows, copies=n)
        for block in rest:
            h = block.forward(h, rows)
        return slice_channels(h, 0, cf), slice_channels(h, cf, 2 * cf)

    def generate(self, feature: Tensor) -> Tensor:
        """(B,Cf,H/4,W/4) feature -> (B,3,H,W) image: a 3x3 conv, then twice a
        nearest 2x upsample followed by a 3x3 conv.  Each upsample-then-conv
        runs as one :func:`upsample_conv2d` at the lower resolution."""
        h = relu(conv2d(feature, self.gen1, stride=1, pad=1))
        h = relu(instance_norm(upsample_conv2d(h, self.gen2)))
        return upsample_conv2d(h, self.gen3)

    def restyle_features(self, style: tuple[Tensor, Tensor], content: Tensor,
                         stats: list[DomainStatistics]) -> Tensor:
        """The generator input ``gamma * content + beta`` of the restyle
        toward each entry of `stats`, N*B rows, domain-major, with (gamma,
        beta) from :meth:`dst_transfer`."""
        gamma, beta = self.dst_transfer(style, stats)
        return gamma * repeat_batch(content, len(stats)) + beta

    def transfer_image(self, style: tuple[Tensor, Tensor], content: Tensor,
                       stats: list[DomainStatistics]) -> Tensor:
        """Restyle a batch from its :meth:`extract_style_content` output toward
        each entry of `stats`, one per target: :meth:`restyle_features` ->
        generate -> clamp to [-1,1], the range real scenes live in.  N*B rows,
        domain-major."""
        return clamp_unit(self.generate(self.restyle_features(style, content, stats)))


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
    toward with ``stats_list[k]``; those restyled rows equal
    ``model.transfer_image(style, content, stats_list)``.  Each iteration
    runs one ``encode`` of source and targets, and one ``generate`` of its
    2B + 2N*B rows: the source and targets from their encodings, the
    source from its own style and content, and the restyled source.  The
    critic's own terms are one pass over the targets and the restyled images,
    which it sees as a fresh leaf, so the discriminator total depends only
    on discriminator parameters.  The generator total depends on the
    generator-side parameters and, through the critic's view of the restyled
    images, on the discriminator parameters too; :func:`train_mtdt` asks
    each total only for its own side's gradients.  Raises ShapeError if the
    target images' (C,H,W) differ from the source images'.
    """
    source_images, source_labels, target_images = batch
    n = len(stats_list)
    b = len(source_images)
    if len(target_images) != n * b:
        raise ValueError(f"{n} statistics for {len(target_images)} target rows; "
                         f"{n} domains of {b} source rows need {n * b}")
    if target_images.shape[1:] != source_images.shape[1:]:
        raise ShapeError(f"target images of shape {target_images.shape[1:]} do not match "
                         f"source images of shape {source_images.shape[1:]}")
    if n != disc.num_domains:
        raise ValueError(f"discriminator expects {disc.num_domains} domains, got {n}")
    source = Tensor(source_images)
    domains = np.repeat(np.arange(n), b)

    style, content = model.extract_style_content(source, source_labels)
    gamma, beta = style
    encoded = model.encode(Tensor(np.concatenate([source_images, target_images])))
    images = model.generate(concat_batch([encoded, gamma * content + beta,
                                          model.restyle_features(style, content, stats_list)]))
    m = (2 + n) * b
    # each reconstruction route's term is a mean over its rows, B per route and
    # N*B for the targets, so (2 + n) * (the mean over all m rows) is their sum
    rec = (2 + n) * l1_loss(slice_batch(images, 0, m), Tensor(
        np.concatenate([source_images, target_images, source_images])))
    fake = clamp_unit(slice_batch(images, m, m + n * b))
    per = n * mse_loss(pnet.features(fake), repeat_batch(pnet.features(source), n))

    patch_fake, dom_fake = disc.forward(fake)
    adv_g = n * sigmoid_bce_with_logits(patch_fake, np.ones(patch_fake.shape))
    cls_g = n * softmax_cross_entropy(dom_fake, domains)

    # real targets, then restyled images; only the real ones carry a domain
    patch_d, dom_d = disc.forward(Tensor(np.concatenate([target_images, fake.data])))
    real = np.zeros(patch_d.shape)
    real[: n * b] = 1.0
    adv_d = 2 * n * sigmoid_bce_with_logits(patch_d, real)
    cls_d = n * softmax_cross_entropy(dom_d, np.concatenate(
        [domains, np.full(n * b, IGNORE_VALUE)]))
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
