"""Procedural multi-domain segmentation benchmark.

Every scene is a background plus three shapes -- a stripe, a rectangle and a
disk (drawn in that order, later shapes occlude earlier ones) -- giving four
classes.  Shape placement is driven only by (seed, scene index), so two
domains generated with the same seed have bitwise-identical label maps and
differ purely in appearance: each class region is colored with the domain's
base color plus a per-class offset plus seeded Gaussian pixel noise.

The default domain set builds in one deliberate ambiguity: the disk and the
stripe are almost indistinguishable in the source palette but far apart in
both target palettes, so label/appearance conflicts actually occur after
style transfer and region selection has something to reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64
from .tensorio import read_tensor, write_tensor

NUM_CLASSES = 4
CLASS_NAMES = ("background", "disk", "stripe", "rectangle")

_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class DomainSpec:
    name: str
    color_mean: tuple[float, float, float]
    color_std: tuple[float, float, float]
    noise_amplitude: float
    class_offsets: tuple[tuple[float, float, float], ...]  # NUM_CLASSES triples

    def __post_init__(self):
        if any(s <= 0 for s in self.color_std):
            raise ValueError(f"domain {self.name}: color stds must be > 0")
        if len(self.class_offsets) != NUM_CLASSES:
            raise ValueError(f"domain {self.name}: need {NUM_CLASSES} class offsets")

    def class_color(self, c: int) -> np.ndarray:
        return np.asarray(self.color_mean) + np.asarray(self.class_offsets[c])


@dataclass
class ToyScene:
    image: np.ndarray   # (3, H, W) float64 in [-1, 1]
    label: np.ndarray   # (H, W) int64 in [0, NUM_CLASSES)
    seed: int           # per-scene content seed, recorded in the manifest


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
    color_mean=(0.0, 0.0, 0.0),
    color_std=(0.05, 0.05, 0.05),
    noise_amplitude=1.0,
    class_offsets=_SOURCE_COLORS,
)

DEFAULT_TARGETS = (
    DomainSpec(
        name="dusk",
        color_mean=(0.0, 0.0, 0.0),
        color_std=(0.06, 0.06, 0.06),
        noise_amplitude=1.0,
        # green channel inverted; disk/stripe stay ambiguous (|scale| ~ 1)
        class_offsets=_affine_palette(scale=(0.8, -1.2, 1.1), shift=(0.30, 0.0, 0.25)),
    ),
    DomainSpec(
        name="night",
        color_mean=(0.0, 0.0, 0.0),
        color_std=(0.04, 0.04, 0.04),
        noise_amplitude=1.0,
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


def generate_scene(spec: DomainSpec, seed: int, index: int, h: int, w: int) -> ToyScene:
    base = SplitMix64(seed)
    for attempt in range(_MAX_ATTEMPTS):
        content_rng = base.derive(index, "content", attempt)
        content_seed = content_rng.state
        label = _place_shapes(content_rng, h, w)
        if len(np.unique(label)) == NUM_CLASSES:
            break
    else:
        raise RuntimeError(
            f"scene {index}: could not place all {NUM_CLASSES} classes in {_MAX_ATTEMPTS} attempts"
        )

    noise_rng = base.derive(index, "appearance", attempt)
    eta = noise_rng.normal(3 * h * w).reshape(3, h, w)
    mean = np.asarray(spec.color_mean)[:, None, None]
    std = np.asarray(spec.color_std)[:, None, None]
    offsets = np.asarray(spec.class_offsets)          # (K, 3)
    image = mean + offsets[label].transpose(2, 0, 1) + std * spec.noise_amplitude * eta
    return ToyScene(image=np.clip(image, -1.0, 1.0), label=label, seed=content_seed)


def generate(spec: DomainSpec, seed: int, count: int, h: int, w: int) -> list[ToyScene]:
    if h < 16 or w < 16:
        raise ValueError(f"image size must be at least 16x16, got {h}x{w}")
    return [generate_scene(spec, seed, i, h, w) for i in range(count)]


# ---------------------------------------------------------------------------
# on-disk layout: tensor files plus a tab-separated manifest


def export(scenes: list[ToyScene], out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, scene in enumerate(scenes):
        img_name = f"image_{i:05d}.bin"
        lab_name = f"label_{i:05d}.bin"
        write_tensor(out_dir / img_name, scene.image)
        write_tensor(out_dir / lab_name, scene.label.astype(np.float64))
        lines.append(f"{img_name}\t{lab_name}\t{scene.seed}\n")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


def load(dataset_dir: str | Path) -> list[ToyScene]:
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"no manifest.txt in dataset dir {dataset_dir}")
    scenes = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        img_name, lab_name, seed = line.split("\t")
        image = read_tensor(dataset_dir / img_name)
        label = np.rint(read_tensor(dataset_dir / lab_name)).astype(np.int64)
        scenes.append(ToyScene(image=image, label=label, seed=int(seed)))
    return scenes


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Binary P6 dump; channels map from [-1,1] to [0,255] affinely."""
    c, h, w = image.shape
    if c != 3:
        raise ValueError(f"PPM needs 3 channels, got {c}")
    px = np.clip(np.rint((image + 1.0) * 127.5), 0, 255).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + px.transpose(1, 2, 0).tobytes())
