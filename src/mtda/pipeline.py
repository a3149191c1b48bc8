"""Phase orchestration: statistics -> transfer training -> restyling ->
self-training adaptation -> evaluation, plus the source-only baseline.

Every phase writes its artifacts under the config's output directory and the
whole run is summarized in a RunRecord whose ``metrics`` sub-document is a
pure function of (config, seed): wall-clock times live outside it so records
of identical runs compare byte-for-byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, softmax_cross_entropy
from .bars import BarsState, bars_step
from .config import ExperimentConfig, config_hash, save_config
from .metrics import ConfusionMatrix, miou, write_iou_report
from .optim import SgdMomentum
from .rng import SplitMix64
from .stats import DomainStatistics, WelfordAccumulator, load_accumulator, save_accumulator
from .taskseg import FEATURE_DIM, TaskNet
from .tensorio import read_archive, write_archive
from .toydata import BUILTIN_DOMAINS, ToyScene, export, generate, load, write_ppm
from .transfer import (
    ENCODER_STRIDE,
    FEATURE_CHANNELS,
    MtdtModel,
    MultiHeadDiscriminator,
    PerceptualNet,
    TransferBatch,
    train_mtdt,
)


class PhaseError(RuntimeError):
    def __init__(self, phase: str, detail: str):
        super().__init__(f"phase '{phase}' failed: {detail}")
        self.phase = phase


@dataclass
class Datasets:
    source_name: str
    target_names: list[str]
    source_train: list[ToyScene]
    source_eval: list[ToyScene]
    targets_train: list[list[ToyScene]]
    targets_eval: list[list[ToyScene]]


@dataclass
class RunRecord:
    config_hash: str
    metrics: dict
    final_miou: dict[str, float]
    wall_clock: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_hash": self.config_hash,
                "metrics": self.metrics,
                "final_miou": self.final_miou,
                "wall_clock": self.wall_clock,
                "artifacts": self.artifacts,
            },
            sort_keys=True,
            indent=2,
        )

    def metrics_bytes(self) -> bytes:
        """Canonical bytes of everything that must be run-to-run identical."""
        return json.dumps(
            {"config_hash": self.config_hash, "metrics": self.metrics,
             "final_miou": self.final_miou},
            sort_keys=True,
        ).encode("utf-8")


def _resolve_domain(name: str):
    if name in BUILTIN_DOMAINS:
        return BUILTIN_DOMAINS[name]
    if Path(name).is_dir():
        return Path(name)
    raise FileNotFoundError(f"domain {name!r} is neither a builtin name nor a dataset dir")


def build_datasets(cfg: ExperimentConfig) -> Datasets:
    """Generate (or load) every split.  Builtin domains of the same seed share
    label maps scene-for-scene, which is what makes the domain gap purely an
    appearance gap."""
    h = w = cfg.image_size
    eval_seed = SplitMix64(cfg.seed).derive("eval-split").state

    def splits(name: str):
        src = _resolve_domain(name)
        if isinstance(src, Path):
            scenes = load(src)
            if len(scenes) < cfg.train_scenes + cfg.eval_scenes:
                raise ValueError(
                    f"dataset {src} has {len(scenes)} scenes, need "
                    f"{cfg.train_scenes + cfg.eval_scenes}"
                )
            return (scenes[: cfg.train_scenes],
                    scenes[cfg.train_scenes : cfg.train_scenes + cfg.eval_scenes])
        return (generate(src, cfg.seed, cfg.train_scenes, h, w),
                generate(src, eval_seed, cfg.eval_scenes, h, w))

    source_train, source_eval = splits(cfg.source)
    targets_train, targets_eval = [], []
    for name in cfg.targets:
        tr, ev = splits(name)
        targets_train.append(tr)
        targets_eval.append(ev)
    return Datasets(
        source_name=cfg.source,
        target_names=list(cfg.targets),
        source_train=source_train,
        source_eval=source_eval,
        targets_train=targets_train,
        targets_eval=targets_eval,
    )


def init_models(cfg: ExperimentConfig):
    root = SplitMix64(cfg.seed)
    model = MtdtModel(cfg.num_classes, root.derive("mtdt"))
    disc = MultiHeadDiscriminator(len(cfg.targets), root.derive("disc"))
    pnet = PerceptualNet(root.derive("perceptual").state)
    return model, disc, pnet


def _stack(scenes: list[ToyScene], idx) -> tuple[np.ndarray, np.ndarray]:
    images = np.stack([scenes[i].image for i in idx])
    labels = np.stack([scenes[i].label for i in idx])
    return images, labels


def stats_path(out_dir: Path, domain: str) -> Path:
    return out_dir / f"stats_{domain}.bin"


def phase_stats(cfg: ExperimentConfig, model: MtdtModel, data: Datasets,
                out_dir: Path) -> tuple[list[DomainStatistics], dict]:
    """Stream every target training image through the encoder into one
    accumulator per domain, then freeze the extracted statistics."""
    hf = cfg.image_size // ENCODER_STRIDE
    stats_list: list[DomainStatistics] = []
    metrics: dict = {}
    for name, scenes in zip(data.target_names, data.targets_train):
        acc = WelfordAccumulator(hf, hf, FEATURE_CHANNELS)
        n_updates = cfg.stats_updates or len(scenes)
        for i in range(n_updates):
            scene = scenes[i % len(scenes)]
            feat = model.encode(Tensor(scene.image[None])).data[0]
            acc.update(feat.transpose(1, 2, 0))
        save_accumulator(stats_path(out_dir, name), acc)
        st = acc.extract()
        stats_list.append(st)
        metrics[name] = {
            "n": st.n,
            "mu_mean": float(st.mu.mean()),
            "sigma_mean": float(st.sigma.mean()),
        }
    return stats_list, metrics


def load_stats(cfg: ExperimentConfig, out_dir: Path) -> list[DomainStatistics]:
    stats_list = []
    for name in cfg.targets:
        path = stats_path(out_dir, name)
        if not path.is_file():
            raise FileNotFoundError(f"missing statistics checkpoint {path}; run 'stats' first")
        stats_list.append(load_accumulator(path).extract())
    return stats_list


def phase_mtdt(cfg: ExperimentConfig, model: MtdtModel, disc: MultiHeadDiscriminator,
               pnet: PerceptualNet, data: Datasets, stats_list: list[DomainStatistics],
               out_dir: Path) -> dict:
    rng = SplitMix64(cfg.seed).derive("mtdt-sampling")
    b = cfg.mtdt_batch

    def sample_batch(_i: int) -> TransferBatch:
        src_idx = [rng.randint(len(data.source_train)) for _ in range(b)]
        images, labels = _stack(data.source_train, src_idx)
        target_images = []
        for scenes in data.targets_train:
            t_idx = [rng.randint(len(scenes)) for _ in range(b)]
            target_images.append(Tensor(_stack(scenes, t_idx)[0]))
        return TransferBatch(Tensor(images), labels, target_images)

    log_path = out_dir / "mtdt_log.jsonl"
    with log_path.open("w", encoding="utf-8") as fh:
        log = train_mtdt(
            model, disc, pnet, sample_batch, stats_list,
            iterations=cfg.mtdt_iterations, lr=cfg.mtdt_lr,
            beta1=cfg.mtdt_beta1, beta2=cfg.mtdt_beta2,
            weight_decay=cfg.mtdt_weight_decay,
            log_sink=lambda rec: fh.write(json.dumps(rec, sort_keys=True) + "\n"),
        )

    arrays = model.params.state_arrays()
    arrays.update({f"disc/{k}": v for k, v in disc.params.state_arrays().items()})
    write_archive(out_dir / "mtdt_model.bin", arrays)

    metrics = {"iterations": cfg.mtdt_iterations}
    if log:
        window = max(1, min(100, len(log) // 4))
        metrics["rec_first_window"] = float(np.median([r["rec"] for r in log[:window]]))
        metrics["rec_last_window"] = float(np.median([r["rec"] for r in log[-window:]]))
    return metrics


def load_mtdt(cfg: ExperimentConfig, out_dir: Path):
    path = out_dir / "mtdt_model.bin"
    if not path.is_file():
        raise FileNotFoundError(f"missing transfer checkpoint {path}; run 'train-mtdt' first")
    model, disc, _ = init_models(cfg)
    arrays = read_archive(path)
    model.params.load_state_arrays({k: v for k, v in arrays.items() if not k.startswith("disc/")})
    disc.params.load_state_arrays(
        {k[len("disc/"):]: v for k, v in arrays.items() if k.startswith("disc/")}
    )
    return model, disc


def transfer_dataset(model: MtdtModel, scenes: list[ToyScene],
                     stats: DomainStatistics, batch: int = 16) -> list[ToyScene]:
    """Restyle every scene toward `stats`; labels carry over unchanged.
    Outputs are clamped to the image range real scenes live in."""
    out: list[ToyScene] = []
    for start in range(0, len(scenes), batch):
        chunk = scenes[start : start + batch]
        images, labels = _stack(chunk, range(len(chunk)))
        moved = np.clip(model.transfer_image(Tensor(images), labels, stats).data, -1.0, 1.0)
        out.extend(
            ToyScene(image=moved[i].copy(), label=chunk[i].label.copy(), seed=chunk[i].seed)
            for i in range(len(chunk))
        )
    return out


def phase_transfer(cfg: ExperimentConfig, model: MtdtModel, data: Datasets,
                   stats_list: list[DomainStatistics], out_dir: Path) -> list[list[ToyScene]]:
    transferred = []
    for name, stats in zip(data.target_names, stats_list):
        scenes = transfer_dataset(model, data.source_train, stats)
        export(scenes, out_dir / "transfers" / name)
        transferred.append(scenes)
        if cfg.dump_images:
            grid_dir = out_dir / "transfer_grid"
            grid_dir.mkdir(parents=True, exist_ok=True)
            for i in range(min(4, len(scenes))):
                write_ppm(grid_dir / f"source_{i:02d}.ppm", data.source_train[i].image)
                write_ppm(grid_dir / f"{name}_{i:02d}.ppm", np.clip(scenes[i].image, -1, 1))
    return transferred


def load_transferred(cfg: ExperimentConfig, out_dir: Path) -> list[list[ToyScene]]:
    transferred = []
    for name in cfg.targets:
        d = out_dir / "transfers" / name
        if not (d / "manifest.txt").is_file():
            raise FileNotFoundError(f"missing transferred dataset {d}; run 'transfer' first")
        transferred.append(load(d))
    return transferred


def phase_adapt(cfg: ExperimentConfig, data: Datasets, transferred: list[list[ToyScene]],
                out_dir: Path, verify: bool = False) -> tuple[TaskNet, dict]:
    """Round-robin self-training over target domains with region selection."""
    rng = SplitMix64(cfg.seed).derive("adapt-sampling")
    net = TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
    opt = SgdMomentum(lr=cfg.task_lr, momentum=cfg.task_momentum,
                      weight_decay=cfg.task_weight_decay)
    state = BarsState(
        num_classes=cfg.num_classes,
        feature_dim=FEATURE_DIM,
        num_domains=len(cfg.targets),
        switch_iteration=cfg.bars_m,
    )
    n_domains = len(cfg.targets)
    b = cfg.task_batch
    skipped = 0
    kept_src_last: dict[str, float] = {}
    kept_tgt_last: dict[str, float] = {}

    diag_path = out_dir / "bars_diagnostics.jsonl"
    with diag_path.open("w", encoding="utf-8") as fh:
        for i in range(cfg.adapt_iterations):
            k = i % n_domains
            tr_scenes = transferred[k]
            tg_scenes = data.targets_train[k]
            idx_tr = [rng.randint(len(tr_scenes)) for _ in range(b)]
            idx_tg = [rng.randint(len(tg_scenes)) for _ in range(b)]
            tr_images, tr_labels = _stack(tr_scenes, idx_tr)
            tg_images, _ = _stack(tg_scenes, idx_tg)
            _, diag = bars_step(
                state, net, opt, k, tr_images, tr_labels, tg_images,
                filter_source=cfg.bars_source, train_target=cfg.bars_target,
                verify=verify,
            )
            skipped += int(diag.skipped)
            name = data.target_names[k]
            kept_src_last[name] = diag.kept_fraction_source
            kept_tgt_last[name] = diag.kept_fraction_target
            fh.write(json.dumps({
                "iteration": diag.iteration,
                "domain": name,
                "loss": diag.loss,
                "kept_fraction_source": diag.kept_fraction_source,
                "kept_fraction_target": diag.kept_fraction_target,
                "cold_start_keeps": diag.cold_start_keeps,
                "skipped": diag.skipped,
                "centroid_counts_transferred": diag.centroid_counts_transferred,
                "centroid_counts_target": diag.centroid_counts_target,
            }, sort_keys=True) + "\n")

    write_archive(out_dir / "task_model.bin", net.params.state_arrays())
    metrics = {
        "iterations": cfg.adapt_iterations,
        "skipped_steps": skipped,
        "kept_fraction_source_last": kept_src_last,
        "kept_fraction_target_last": kept_tgt_last,
    }
    return net, metrics


def evaluate_net(net: TaskNet, scenes: list[ToyScene], num_classes: int,
                 batch: int = 16) -> tuple[ConfusionMatrix, np.ndarray, float]:
    cm = ConfusionMatrix(num_classes)
    for start in range(0, len(scenes), batch):
        chunk = scenes[start : start + batch]
        images, labels = _stack(chunk, range(len(chunk)))
        cm.accumulate(net.predict(images), labels)
    iou, mean = miou(cm)
    return cm, iou, mean


def _class_names(k: int) -> list[str]:
    from .toydata import CLASS_NAMES

    if k <= len(CLASS_NAMES):
        return list(CLASS_NAMES[:k])
    return list(CLASS_NAMES) + [f"class_{i}" for i in range(len(CLASS_NAMES), k)]


def phase_eval(cfg: ExperimentConfig, net: TaskNet, data: Datasets,
               out_dir: Path, tag: str = "eval") -> dict:
    results = {}
    for name, scenes in zip(data.target_names, data.targets_eval):
        cm, iou, mean = evaluate_net(net, scenes, cfg.num_classes)
        write_iou_report(out_dir / f"{tag}_{name}.csv", _class_names(cfg.num_classes), cm)
        results[name] = {
            "miou": round(100.0 * mean, 4),
            "per_class_iou": [None if np.isnan(v) else round(100.0 * v, 4) for v in iou],
        }
    return results


def domain_classifier_accuracy(model: MtdtModel, disc: MultiHeadDiscriminator,
                               scenes: list[ToyScene],
                               stats_list: list[DomainStatistics]) -> float:
    """Fraction of held-out restyled images whose domain head picks their target.

    The images are restyled by :func:`transfer_dataset`, so the critic sees
    them clamped to [-1,1], as in training and as ``phase_transfer`` writes
    them."""
    correct = 0
    for k, stats in enumerate(stats_list):
        moved = np.stack([s.image for s in transfer_dataset(model, scenes, stats)])
        _, dom = disc.forward(Tensor(moved))
        correct += int((np.argmax(dom.data, axis=1) == k).sum())
    return correct / (len(stats_list) * len(scenes))


def run_pipeline(cfg: ExperimentConfig, verify_selection: bool = False) -> RunRecord:
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.txt")
    record = RunRecord(config_hash=config_hash(cfg), metrics={}, final_miou={})
    clocks = record.wall_clock

    def timed(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            raise PhaseError(name, str(e)) from e
        clocks[name] = round(time.perf_counter() - t0, 3)
        return result

    data = timed("data", lambda: build_datasets(cfg))
    model, disc, pnet = init_models(cfg)

    stats_list, stats_metrics = timed("stats", lambda: phase_stats(cfg, model, data, out_dir))
    record.metrics["stats"] = stats_metrics

    record.metrics["mtdt"] = timed(
        "mtdt", lambda: phase_mtdt(cfg, model, disc, pnet, data, stats_list, out_dir)
    )

    acc = timed("mtdt-eval",
                lambda: domain_classifier_accuracy(model, disc, data.source_eval, stats_list))
    record.metrics["mtdt"]["domain_classifier_accuracy"] = round(acc, 4)

    transferred = timed("transfer",
                        lambda: phase_transfer(cfg, model, data, stats_list, out_dir))

    net, adapt_metrics = timed(
        "adapt", lambda: phase_adapt(cfg, data, transferred, out_dir, verify=verify_selection)
    )
    record.metrics["adapt"] = adapt_metrics

    record.metrics["eval"] = timed("eval", lambda: phase_eval(cfg, net, data, out_dir))
    record.final_miou = {name: record.metrics["eval"][name]["miou"]
                         for name in data.target_names}

    record.artifacts = sorted(
        str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()
        if p.name != "run_record.json"
    )
    (out_dir / "run_record.json").write_text(record.to_json(), encoding="utf-8")
    return record


def run_source_only_baseline(cfg: ExperimentConfig,
                             data: Datasets | None = None) -> tuple[TaskNet, dict[str, float]]:
    """Task network trained on raw source images only; the adaptation floor."""
    cfg.validate()
    if data is None:
        data = build_datasets(cfg)
    rng = SplitMix64(cfg.seed).derive("baseline-sampling")
    net = TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
    opt = SgdMomentum(lr=cfg.task_lr, momentum=cfg.task_momentum,
                      weight_decay=cfg.task_weight_decay)
    for _ in range(cfg.adapt_iterations):
        idx = [rng.randint(len(data.source_train)) for _ in range(cfg.task_batch)]
        images, labels = _stack(data.source_train, idx)
        with Tape() as tape:
            logits, _ = net.forward(Tensor(images))
            loss = softmax_cross_entropy(logits, labels)
        net.params.zero_grad()
        tape.backward(loss)
        opt.step(net.params.named())
        net.params.zero_grad()
    results = {}
    for name, scenes in zip(data.target_names, data.targets_eval):
        _, _, mean = evaluate_net(net, scenes, cfg.num_classes)
        results[name] = round(100.0 * mean, 4)
    return net, results
