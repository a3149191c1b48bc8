"""Benchmark generator: determinism, analytic color oracles, on-disk format."""

import tracemalloc

import numpy as np
import pytest

from mtda.tensorio import FormatError, read_archive, write_archive
from mtda.toydata import (
    BUILTIN_DOMAINS,
    DEFAULT_SOURCE,
    DEFAULT_TARGETS,
    NUM_CLASSES,
    DomainSpec,
    Scenes,
    export,
    generate,
    load,
    write_ppm,
)


def quiet_spec(name="flat", offsets=None):
    offsets = offsets or (
        (-0.4, -0.4, -0.4), (0.4, 0.0, 0.0), (0.0, 0.4, 0.0), (0.0, 0.0, 0.4))
    return DomainSpec(name=name, noise_std=0.0, class_offsets=offsets)


class TestGenerate:
    def test_deterministic_bitwise(self):
        a = generate(DEFAULT_SOURCE, seed=9, count=5, h=32, w=32)
        b = generate(DEFAULT_SOURCE, seed=9, count=5, h=32, w=32)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_arrays_and_scene_views(self):
        scenes = generate(DEFAULT_SOURCE, seed=9, count=3, h=16, w=20)
        assert scenes.images.shape == (3, 3, 16, 20) and scenes.images.dtype == np.float64
        assert scenes.labels.shape == (3, 16, 20) and scenes.labels.dtype == np.int64
        assert len(scenes) == 3
        assert scenes[1].image.base is scenes.images and scenes[1].label.base is scenes.labels

    def test_every_class_present_in_every_scene(self):
        for scene in generate(DEFAULT_SOURCE, seed=2, count=20, h=32, w=32):
            assert len(np.unique(scene.label)) == NUM_CLASSES

    def test_labels_identical_across_domains(self):
        src = generate(DEFAULT_SOURCE, seed=5, count=6, h=32, w=32)
        for spec in DEFAULT_TARGETS:
            np.testing.assert_array_equal(generate(spec, seed=5, count=6, h=32, w=32).labels,
                                          src.labels)

    def test_zero_noise_mean_matches_analytic_mixture(self):
        spec = quiet_spec()
        scenes = generate(spec, seed=3, count=16, h=32, w=32)
        got = np.mean([s.image.mean(axis=(1, 2)) for s in scenes], axis=0)
        # oracle: per-channel mixture of class areas times class colors
        want = np.zeros(3)
        per_pixel = 0
        for s in scenes:
            for c in range(NUM_CLASSES):
                area = (s.label == c).sum()
                want += area * np.asarray(spec.class_offsets[c])
                per_pixel += area
        want /= per_pixel
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_values_clamped(self):
        spec = DomainSpec(name="loud", noise_std=3.0, class_offsets=((1.4,) * 3,) * 4)
        images = generate(spec, seed=1, count=2, h=16, w=16).images
        assert images.max() <= 1.0 and images.min() >= -1.0

    @pytest.mark.parametrize("noise_std", [-0.01, float("nan")])
    def test_negative_or_undefined_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std must be >= 0"):
            DomainSpec(name="bad", noise_std=noise_std, class_offsets=((0.0,) * 3,) * 4)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="16x16"):
            generate(DEFAULT_SOURCE, seed=1, count=1, h=8, w=8)

    def test_builtin_registry(self):
        assert set(BUILTIN_DOMAINS) == {"source", "dusk", "night"}


class TestExport:
    def test_roundtrip_bitwise(self, tmp_path):
        scenes = generate(DEFAULT_SOURCE, seed=6, count=4, h=16, w=16)
        export(scenes, tmp_path / "ds")
        back = load(tmp_path / "ds")
        assert back.labels.dtype == np.int64
        np.testing.assert_array_equal(back.images, scenes.images)
        np.testing.assert_array_equal(back.labels, scenes.labels)

    def test_load_peak_memory_is_below_one_and_a_half_datasets(self, tmp_path):
        export(Scenes(np.zeros((32, 3, 64, 64)), np.ones((32, 64, 64), dtype=np.int64)),
               tmp_path / "ds")
        tracemalloc.start()
        try:
            back = load(tmp_path / "ds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (back.images.nbytes + back.labels.nbytes)

    def test_one_archive_per_dataset(self, tmp_path):
        path = export(generate(DEFAULT_SOURCE, seed=6, count=3, h=16, w=16), tmp_path / "ds")
        assert path == tmp_path / "ds" / "scenes.bin"
        assert sorted(p.name for p in path.parent.iterdir()) == ["scenes.bin"]
        assert {k: v.shape for k, v in read_archive(path).items()} == {
            "images": (3, 3, 16, 16), "labels": (3, 16, 16)}

    def test_missing_archive_is_file_not_found(self, tmp_path):
        (tmp_path / "ds").mkdir()
        with pytest.raises(FileNotFoundError, match="scenes.bin"):
            load(tmp_path / "ds")

    def test_corrupted_magic_names_file(self, tmp_path):
        scenes = generate(DEFAULT_SOURCE, seed=6, count=1, h=16, w=16)
        export(scenes, tmp_path / "ds")
        victim = tmp_path / "ds" / "scenes.bin"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"XXXX"
        victim.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="scenes.bin"):
            load(tmp_path / "ds")

    @pytest.mark.parametrize("damage", [
        lambda a: a.pop("labels"),
        lambda a: a.update(extra=np.zeros(1)),
        lambda a: a.update(labels=a["labels"][:-1]),
        lambda a: a.update(images=a["images"][:, :2]),
        lambda a: np.put(a["labels"], 5, 1.5),
        lambda a: np.put(a["labels"], 5, np.nan),
        lambda a: np.put(a["labels"], 5, 1e30),
        lambda a: np.put(a["images"], 5, np.nan),
        lambda a: np.put(a["images"], 5, 7.0),
    ], ids=["missing-labels", "extra-entry", "labels-n", "two-channels", "fractional-label",
            "nan-label", "huge-label", "nan-pixel", "pixel-outside-range"])
    def test_malformed_archive_names_file(self, tmp_path, damage):
        path = export(generate(DEFAULT_SOURCE, seed=6, count=2, h=16, w=16), tmp_path / "ds")
        arrays = read_archive(path)
        damage(arrays)
        write_archive(path, arrays)
        with pytest.raises(FormatError, match="scenes.bin"):
            load(tmp_path / "ds")

    def test_ppm_header_and_size(self, tmp_path):
        scenes = generate(DEFAULT_SOURCE, seed=6, count=1, h=16, w=16)
        path = tmp_path / "img.ppm"
        write_ppm(path, scenes[0].image)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n16 16\n255\n")
        assert len(blob) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
