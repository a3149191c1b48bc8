"""Pipeline orchestration at miniature scale: records, determinism, flags."""

import json

import numpy as np
import pytest

from mtda.autodiff import Tensor
from mtda.config import ExperimentConfig
from mtda.pipeline import (
    PhaseError,
    build_datasets,
    domain_classifier_accuracy,
    init_models,
    phase_adapt,
    phase_stats,
    phase_transfer,
    run_pipeline,
    run_source_only_baseline,
    load_stats,
    transfer_dataset,
)


def mini_cfg(tmp_path, **over):
    base = dict(seed=5, train_scenes=6, eval_scenes=2, mtdt_iterations=2,
                adapt_iterations=4, bars_m=2, mtdt_batch=1, task_batch=2,
                out_dir=str(tmp_path / "run"))
    base.update(over)
    return ExperimentConfig(**base)


def test_zero_iteration_pipeline_still_produces_record(tmp_path):
    cfg = mini_cfg(tmp_path, mtdt_iterations=0, adapt_iterations=0)
    record = run_pipeline(cfg)
    assert set(record.final_miou) == {"dusk", "night"}
    assert all(0.0 <= v <= 100.0 for v in record.final_miou.values())
    body = json.loads((tmp_path / "run" / "run_record.json").read_text())
    assert body["config_hash"] == record.config_hash


def test_identical_runs_identical_metrics_bytes(tmp_path):
    a = run_pipeline(mini_cfg(tmp_path)).metrics_bytes()
    b = run_pipeline(mini_cfg(tmp_path)).metrics_bytes()
    assert a == b


def test_different_seed_changes_metrics(tmp_path):
    a = run_pipeline(mini_cfg(tmp_path, out_dir=str(tmp_path / "a")))
    b = run_pipeline(mini_cfg(tmp_path, seed=6, out_dir=str(tmp_path / "b")))
    assert a.metrics_bytes() != b.metrics_bytes()


def test_artifacts_are_listed_and_exist(tmp_path):
    cfg = mini_cfg(tmp_path)
    record = run_pipeline(cfg)
    out = tmp_path / "run"
    for rel in record.artifacts:
        assert (out / rel).is_file(), rel
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "run_record.json"}
    assert on_disk == set(record.artifacts)


def test_missing_domain_fails_with_phase_name(tmp_path):
    cfg = mini_cfg(tmp_path, source="no-such-domain")
    with pytest.raises(PhaseError, match="phase 'data'"):
        run_pipeline(cfg)


def test_disabled_source_filter_keeps_everything(tmp_path):
    cfg = mini_cfg(tmp_path, bars_source=False)
    out = tmp_path / "run"
    out.mkdir(parents=True)
    data = build_datasets(cfg)
    model, disc, pnet = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, out)
    transferred = phase_transfer(cfg, model, data, stats_list, out)
    _, metrics = phase_adapt(cfg, data, transferred, out)
    assert all(v == 1.0 for v in metrics["kept_fraction_source_last"].values())


def test_stats_equal_raw_image_statistics_on_zero_noise_domain(tmp_path):
    # end-to-end oracle: streaming stats on raw zero-noise images match the
    # two-pass population statistics at the streaming divisor
    from mtda.stats import WelfordAccumulator
    from mtda.toydata import DomainSpec, generate

    spec = DomainSpec(name="flat", color_mean=(0.1, 0.0, -0.1),
                      color_std=(0.05, 0.05, 0.05), noise_amplitude=0.0,
                      class_offsets=((-0.3,) * 3, (0.3, 0.0, 0.0),
                                     (0.0, 0.3, 0.0), (0.0, 0.0, 0.3)))
    scenes = generate(spec, seed=3, count=20, h=16, w=16)
    acc = WelfordAccumulator(16, 16, 3)
    for s in scenes:
        acc.update(s.image.transpose(1, 2, 0))
    st = acc.extract()
    stream = np.stack([s.image.transpose(1, 2, 0) for s in scenes]).reshape(-1, 3)
    mu = stream.mean(axis=0)
    var = ((stream - mu) ** 2).sum(axis=0) / ((len(scenes) - 1) * 16 * 16)
    np.testing.assert_allclose(st.mu, mu, atol=1e-8)
    np.testing.assert_allclose(st.variance, var, atol=1e-8)


def test_baseline_uses_source_only(tmp_path):
    cfg = mini_cfg(tmp_path)
    data = build_datasets(cfg)
    _, res = run_source_only_baseline(cfg, data)
    assert set(res) == {"dusk", "night"}


def test_stats_checkpoint_files_per_domain(tmp_path):
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir(parents=True)
    data = build_datasets(cfg)
    model, _, _ = init_models(cfg)
    phase_stats(cfg, model, data, out)
    assert (out / "stats_dusk.bin").is_file()
    assert (out / "stats_night.bin").is_file()
    assert len(load_stats(cfg, out)) == 2


def test_domain_classifier_scores_the_clamped_restyled_images(tmp_path):
    cfg = mini_cfg(tmp_path, eval_scenes=3)
    data = build_datasets(cfg)
    model, disc, _ = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, tmp_path)
    model.gen3.bias.data[:] = [3.0, -3.0, 0.0]  # raw output far outside [-1,1]

    forward = disc.forward
    restyled, correct = [], 0
    for k, stats in enumerate(stats_list):
        images = np.stack([s.image for s in transfer_dataset(model, data.source_eval, stats)])
        _, dom = forward(Tensor(images))
        correct += int((np.argmax(dom.data, axis=1) == k).sum())
        restyled.append(images)
    assert np.abs(restyled[0]).max() == 1.0

    seen = []

    def spy(image):
        seen.append(image.data.copy())
        return forward(image)

    disc.forward = spy
    acc = domain_classifier_accuracy(model, disc, data.source_eval, stats_list)
    assert acc == correct / (len(stats_list) * len(data.source_eval))
    np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(restyled))
