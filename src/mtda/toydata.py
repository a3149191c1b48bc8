"""Procedural multi-domain segmentation benchmark.

Every scene is a background plus three shapes -- a stripe, a rectangle and a
disk (drawn in that order, later shapes occlude earlier ones) -- giving four
classes.  Shape placement is driven only by (seed, scene index), so two
domains generated with the same seed have bitwise-identical label maps and
differ purely in appearance: a domain is its per-class colours and one noise
level, and each pixel is its class's colour plus seeded Gaussian noise of
that standard deviation on every channel, clipped to [-1, 1].

The default domain set builds in one deliberate ambiguity: the disk and the
stripe are almost indistinguishable in the source palette but far apart in
both target palettes, so label/appearance conflicts actually occur after
style transfer and region selection has something to reject.

A dataset, generated, loaded or restyled, is a :class:`Scenes`: the stacked
``images`` (N, 3, H, W) and ``labels`` (N, H, W).  On disk it is the same two
arrays in one ``tensorio`` archive ``<dir>/scenes.bin``, written atomically:
streamed to a temporary file and moved into place whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64
from .tensorio import FormatError, read_archive, write_archive

NUM_CLASSES = 4
CLASS_NAMES = ("background", "disk", "stripe", "rectangle")

_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class DomainSpec:
    name: str
    noise_std: float
    class_offsets: tuple[tuple[float, float, float], ...]  # NUM_CLASSES RGB triples

    def __post_init__(self):
        if not self.noise_std >= 0:
            raise ValueError(f"domain {self.name}: noise_std must be >= 0")
        if len(self.class_offsets) != NUM_CLASSES:
            raise ValueError(f"domain {self.name}: need {NUM_CLASSES} class offsets")


@dataclass
class ToyScene:
    image: np.ndarray   # (3, H, W) float64 in [-1, 1]
    label: np.ndarray   # (H, W) int64 in [0, NUM_CLASSES)


@dataclass(frozen=True)
class Scenes:
    """A dataset: scene i is ``images[i]`` with ``labels[i]``."""

    images: np.ndarray  # (N, 3, H, W) float64 in [-1, 1]
    labels: np.ndarray  # (N, H, W) int64

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> ToyScene:
        """Scene i as views into the arrays."""
        return ToyScene(image=self.images[i], label=self.labels[i])


_SOURCE_COLORS = (
    (-0.50, -0.50, -0.45),   # background
    (+0.45, +0.10, -0.30),   # disk
    (+0.37, +0.04, -0.24),   # stripe: inside the noise band around disk
    (-0.30, +0.35, +0.10),   # rectangle
)


def _affine_palette(scale, shift):
    """Per-channel affine remap of the source palette.

    Keeping each target's class palette an affine image of the source's makes
    the domain gap expressible by channel-wise scale/shift restyling, while
    the scale factors still widen or shrink the disk/stripe gap per domain.
    """
    return tuple(
        tuple(scale[ch] * col[ch] + shift[ch] for ch in range(3))
        for col in _SOURCE_COLORS
    )


DEFAULT_SOURCE = DomainSpec(
    name="source",
    noise_std=0.05,
    class_offsets=_SOURCE_COLORS,
)

DEFAULT_TARGETS = (
    DomainSpec(
        name="dusk",
        noise_std=0.06,
        # green channel inverted; disk/stripe stay ambiguous (|scale| ~ 1)
        class_offsets=_affine_palette(scale=(0.8, -1.2, 1.1), shift=(0.30, 0.0, 0.25)),
    ),
    DomainSpec(
        name="night",
        noise_std=0.04,
        # red/blue inverted and stretched: pulls the disk/stripe pair apart
        class_offsets=_affine_palette(scale=(-1.3, 1.4, -1.2), shift=(0.10, -0.10, 0.0)),
    ),
)

BUILTIN_DOMAINS = {spec.name: spec for spec in (DEFAULT_SOURCE,) + DEFAULT_TARGETS}


def _place_shapes(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    label = np.zeros((h, w), dtype=np.int64)
    yy, xx = np.mgrid[0:h, 0:w]

    # stripe (class 2): horizontal or vertical band
    width = 2 + rng.randint(min(4, h // 4))
    if rng.randint(2):
        off = rng.randint(h - width)
        label[off : off + width, :] = 2
    else:
        off = rng.randint(w - width)
        label[:, off : off + width] = 2

    # rectangle (class 3)
    rh = 4 + rng.randint(max(1, h // 2 - 4))
    rw = 4 + rng.randint(max(1, w // 2 - 4))
    ry = rng.randint(h - rh)
    rx = rng.randint(w - rw)
    label[ry : ry + rh, rx : rx + rw] = 3

    # disk (class 1), on top
    r = 3 + rng.randint(max(1, min(h, w) // 4 - 2))
    cy = r + rng.randint(h - 2 * r)
    cx = r + rng.randint(w - 2 * r)
    label[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
    return label


def _draw_scene(spec: DomainSpec, base: SplitMix64, index: int,
                image: np.ndarray, label: np.ndarray) -> None:
    """Draw scene `index` into the (3, H, W) and (H, W) views image and label."""
    _, h, w = image.shape
    for attempt in range(_MAX_ATTEMPTS):
        label[:] = _place_shapes(base.derive(index, "content", attempt), h, w)
        if len(np.unique(label)) == NUM_CLASSES:
            break
    else:
        raise RuntimeError(
            f"scene {index}: could not place all {NUM_CLASSES} classes in {_MAX_ATTEMPTS} attempts"
        )

    noise_rng = base.derive(index, "appearance", attempt)
    eta = noise_rng.normal(3 * h * w).reshape(3, h, w)
    offsets = np.asarray(spec.class_offsets)          # (K, 3)
    np.clip(offsets[label].transpose(2, 0, 1) + spec.noise_std * eta, -1.0, 1.0, out=image)


def generate(spec: DomainSpec, seed: int, count: int, h: int, w: int) -> Scenes:
    if h < 16 or w < 16:
        raise ValueError(f"image size must be at least 16x16, got {h}x{w}")
    scenes = Scenes(np.empty((count, 3, h, w)), np.empty((count, h, w), dtype=np.int64))
    base = SplitMix64(seed)
    for i in range(count):
        _draw_scene(spec, base, i, scenes.images[i], scenes.labels[i])
    return scenes


# ---------------------------------------------------------------------------
# on-disk layout: the two arrays of a Scenes in one archive


def export(scenes: Scenes, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "scenes.bin"
    write_archive(path, {"images": scenes.images, "labels": scenes.labels})
    return path


def load(dataset_dir: str | Path) -> Scenes:
    path = Path(dataset_dir) / "scenes.bin"
    if not path.is_file():
        raise FileNotFoundError(f"no scenes.bin in dataset dir {dataset_dir}")
    arrays = read_archive(path)
    shapes = {name: a.shape for name, a in arrays.items()}
    images, labels = shapes.get("images", ()), shapes.get("labels", ())
    if (set(shapes) != {"images", "labels"} or len(images) != 4 or images[1] != 3
            or labels != images[:1] + images[2:]):
        raise FormatError(f"{path}: entries {shapes}, expected images (N, 3, H, W) "
                          f"and labels (N, H, W)")
    images, labels = arrays["images"], arrays["labels"]
    # reductions, not elementwise masks; min and max are NaN if any element is,
    # and every comparison with NaN is false
    if images.size and not -1.0 <= images.min() <= images.max() <= 1.0:
        raise FormatError(f"{path}: images hold pixels that are not finite or outside [-1, 1]")
    if labels.size and not -2.0**63 <= labels.min() <= labels.max() < 2.0**63:
        raise FormatError(f"{path}: labels are not finite integers")
    ints = labels.astype(np.int64)
    labels -= ints  # in place: each label's fractional part is left
    if labels.any():
        raise FormatError(f"{path}: labels are not finite integers")
    return Scenes(images, ints)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Binary P6 dump; channels map from [-1,1] to [0,255] affinely."""
    c, h, w = image.shape
    if c != 3:
        raise ValueError(f"PPM needs 3 channels, got {c}")
    px = np.clip(np.rint((image + 1.0) * 127.5), 0, 255).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + px.transpose(1, 2, 0).tobytes())
