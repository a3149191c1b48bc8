"""Pipeline orchestration at miniature scale: records, determinism, flags."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mtda.autodiff import Tensor
from mtda.config import ExperimentConfig
from mtda.pipeline import (
    PhaseError,
    build_datasets,
    domain_classifier_accuracy,
    init_models,
    load_transferred,
    phase_adapt,
    phase_stats,
    phase_transfer,
    run_phase,
    run_pipeline,
    transfer_dataset,
)
from mtda.toydata import BUILTIN_DOMAINS, Scenes, export, generate, load
from mtda.transfer import MtdtModel


def mini_cfg(tmp_path, **over):
    base = dict(seed=5, train_scenes=6, eval_scenes=2, mtdt_iterations=2,
                adapt_iterations=4, bars_m=2,
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


def reproducible_part(record):
    return record.config_hash, record.metrics, record.final_miou


def test_identical_runs_identical_metrics_bytes(tmp_path):
    a = reproducible_part(run_pipeline(mini_cfg(tmp_path)))
    b = reproducible_part(run_pipeline(mini_cfg(tmp_path)))
    assert a == b


def test_different_seed_changes_metrics(tmp_path):
    a = run_pipeline(mini_cfg(tmp_path, out_dir=str(tmp_path / "a")))
    b = run_pipeline(mini_cfg(tmp_path, seed=6, out_dir=str(tmp_path / "b")))
    assert reproducible_part(a) != reproducible_part(b)


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


def test_out_of_range_label_fails_in_data_phase(tmp_path):
    scenes = generate(BUILTIN_DOMAINS["source"], 5, 8, 32, 32)
    scenes.labels[3, 0, 0] = 7
    data_dir = tmp_path / "labelled"
    export(scenes, data_dir)
    cfg = mini_cfg(tmp_path, source=str(data_dir))
    with pytest.raises(PhaseError, match=r"phase 'data'.*labelled has labels \[7\]"):
        run_pipeline(cfg)
    assert not list((tmp_path / "run").glob("stats_*.bin"))


def test_wrong_image_size_fails_in_data_phase(tmp_path):
    data_dir = tmp_path / "big"
    export(generate(BUILTIN_DOMAINS["night"], 5, 8, 64, 64), data_dir)
    cfg = mini_cfg(tmp_path, targets=("dusk", str(data_dir)))
    with pytest.raises(PhaseError, match=r"phase 'data'.*big has image shape \(3, 64, 64\); "
                                         r"image_size=32 needs \(3, 32, 32\)"):
        run_pipeline(cfg)
    assert not list((tmp_path / "run").glob("stats_*.bin"))


def test_record_times_data_and_every_phase(tmp_path):
    record = run_pipeline(mini_cfg(tmp_path))
    assert list(record.wall_clock) == ["data", "mtdt", "adapt"]
    assert set(record.metrics) == {"mtdt", "adapt"}
    evaluation = record.metrics["adapt"]["eval"]
    assert record.final_miou == {name: res["miou"] for name, res in evaluation.items()}
    assert all(set(res) == {"miou", "per_class_iou"} for res in evaluation.values())
    assert 0.0 <= record.metrics["mtdt"]["domain_classifier_accuracy"] <= 1.0
    statistics = record.metrics["mtdt"]["statistics"]
    assert set(statistics) == {"dusk", "night"}
    assert all(set(s) == {"n", "mu_mean", "sigma_mean"} for s in statistics.values())


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
    from mtda.toydata import DomainSpec

    spec = DomainSpec(name="flat", noise_std=0.0,
                      class_offsets=((-0.2, -0.3, -0.4), (0.4, 0.0, -0.1),
                                     (0.1, 0.3, -0.1), (0.1, 0.0, 0.2)))
    scenes = generate(spec, seed=3, count=20, h=16, w=16)
    acc = WelfordAccumulator(16, 16, 3)
    for image in scenes.images:
        acc.update(image.transpose(1, 2, 0))
    st = acc.extract()
    stream = scenes.images.transpose(0, 2, 3, 1).reshape(-1, 3)
    mu = stream.mean(axis=0)
    var = ((stream - mu) ** 2).sum(axis=0) / ((len(scenes) - 1) * 16 * 16)
    np.testing.assert_allclose(st.mu, mu, atol=1e-8)
    np.testing.assert_allclose(st.sigma**2, var, atol=1e-8)


def test_stats_checkpoint_files_per_domain(tmp_path):
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir(parents=True)
    data = build_datasets(cfg)
    model, _, _ = init_models(cfg)
    phase_stats(cfg, model, data, out)
    assert (out / "stats_dusk.bin").is_file()
    assert (out / "stats_night.bin").is_file()


@pytest.mark.parametrize("phase", ["transfer", "eval"])
def test_folded_phases_are_unknown(tmp_path, phase):
    cfg = mini_cfg(tmp_path)
    with pytest.raises(ValueError, match=rf"unknown phase '{phase}'"):
        run_phase(cfg, phase, build_datasets(cfg), tmp_path)
    assert not list(tmp_path.iterdir())


def test_mtdt_phase_leaves_the_sets_adapt_reads(tmp_path):
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    data = build_datasets(cfg)
    run_phase(cfg, "mtdt", data, out)
    transferred = load_transferred(cfg, out)
    assert len(transferred) == 2
    for scenes in transferred:
        assert scenes.images.shape == data.source_train.images.shape
        np.testing.assert_array_equal(scenes.labels, data.source_train.labels)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    cfg = mini_cfg(tmp_path_factory.mktemp("trained"))
    run_pipeline(cfg)
    return cfg


def strict_json(text: str):
    """``json.loads`` that rejects NaN and the infinities, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_logs_and_record_are_strict_json_with_the_documented_keys(trained_run):
    out = Path(trained_run.out_dir)
    mtdt = [strict_json(line)
            for line in (out / "mtdt_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["iteration"] for r in mtdt] == list(range(trained_run.mtdt_iterations))
    terms = {"rec", "per", "adv_g", "cls_g", "adv_d", "cls_d"}
    assert all(set(r) == {"iteration", *terms, "g_total", "d_total"} for r in mtdt)
    bars = [strict_json(line)
            for line in (out / "bars_diagnostics.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["domain"] for r in bars] == ["dusk", "night"] * (trained_run.adapt_iterations // 2)
    assert [r["iteration"] for r in bars] == list(range(trained_run.adapt_iterations))
    assert all(set(r) == {"domain", "iteration", "loss", "kept_fraction_source",
                          "kept_fraction_target", "cold_start_keeps", "skipped",
                          "centroid_counts_transferred", "centroid_counts_target"}
               for r in bars)
    strict_json((out / "run_record.json").read_text(encoding="utf-8"))


def test_non_finite_bars_loss_stops_adapt_before_its_line_is_written(tmp_path):
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    data = build_datasets(cfg)
    # load_transferred rejects such pixels from disk, so they go in directly
    nan_images = np.full_like(data.source_train.images, np.nan)
    transferred = [Scenes(nan_images, data.source_train.labels) for _ in cfg.targets]
    with pytest.raises(RuntimeError, match="non-finite BARS loss at iteration 0 on target dusk"):
        phase_adapt(cfg, data, transferred, out)
    assert (out / "bars_diagnostics.jsonl").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("damage, message", [
    (lambda s: generate(BUILTIN_DOMAINS["dusk"], 5, len(s), 64, 64),
     r"has image shape \(3, 64, 64\); image_size=32 needs \(3, 32, 32\)"),
    (lambda s: Scenes(s.images[1:], s.labels[1:]), r"has 5 scenes; train_scenes=6"),
    (lambda s: Scenes(s.images, np.where(s.labels == 3, 7, s.labels)), r"has labels \[7\]"),
], ids=["image-size", "scene-count", "label-range"])
def test_transferred_set_that_does_not_fit_the_config_fails(trained_run, tmp_path, damage,
                                                            message):
    shutil.copytree(Path(trained_run.out_dir) / "transfers", tmp_path / "transfers")
    scenes = load(Path(trained_run.out_dir) / "transfers" / "dusk")
    export(damage(scenes), tmp_path / "transfers" / "dusk")
    with pytest.raises(ValueError, match=r"transfers/dusk/scenes.bin " + message):
        load_transferred(trained_run, tmp_path)


def test_domain_classifier_scores_the_clamped_restyled_images(tmp_path):
    cfg = mini_cfg(tmp_path, eval_scenes=3)
    data = build_datasets(cfg)
    model, disc, _ = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, tmp_path)
    model.gen3.bias.data[:] = [3.0, -3.0, 0.0]  # raw output far outside [-1,1]

    forward = disc.forward
    restyled, correct = [], 0
    for k, scenes in enumerate(transfer_dataset(model, data.source_eval, stats_list)):
        _, dom = forward(Tensor(scenes.images))
        correct += int((np.argmax(dom.data, axis=1) == k).sum())
        restyled.append(scenes.images)
    assert np.abs(restyled[0]).max() == 1.0

    seen = []

    def spy(image):
        seen.append(image.data.copy())
        return forward(image)

    disc.forward = spy
    acc = domain_classifier_accuracy(model, disc, data.source_eval, stats_list)
    assert acc == correct / (len(stats_list) * len(data.source_eval))
    np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(restyled))


def _restyle_setup(tmp_path):
    """19 source scenes, one chunk of 16 and one of 3, and two targets' statistics."""
    cfg = mini_cfg(tmp_path, train_scenes=19)
    data = build_datasets(cfg)
    model, _, _ = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, tmp_path)
    return model, data.source_train, stats_list


def test_transfer_dataset_restyles_each_chunk_toward_every_target(tmp_path):
    model, scenes, stats_list = _restyle_setup(tmp_path)
    restyled = transfer_dataset(model, scenes, stats_list)
    assert len(restyled) == len(stats_list) == 2
    for result, stats in zip(restyled, stats_list):
        want = np.concatenate([
            model.transfer_image(*model.extract_style_content(
                Tensor(scenes.images[rows]), scenes.labels[rows]), [stats]).data
            for rows in (slice(0, 16), slice(16, 19))])
        assert result.images.tobytes() == want.tobytes()
        assert result.labels is scenes.labels


def test_transfer_dataset_extracts_each_chunk_once_for_every_target(tmp_path, monkeypatch):
    model, scenes, stats_list = _restyle_setup(tmp_path)
    calls = {"extract_style": 0, "transfer_image": 0}
    for name in calls:
        method = getattr(MtdtModel, name)

        def spy(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MtdtModel, name, spy)
    transfer_dataset(model, scenes, stats_list)
    # two chunks: one extraction each, then one restyle per (target, chunk)
    assert calls == {"extract_style": 2, "transfer_image": 4}
