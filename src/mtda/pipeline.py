"""Phase orchestration, two phases:

- ``mtdt``: extract the target statistics with the untrained encoder, train
  the transfer network, and restyle the source training set toward every
  target, extracting each chunk's style and content once for all targets;
- ``adapt``: self-train the task network with region selection on the
  restyled sets, then evaluate it per target.

The restyled sets, ``transfers/<name>/scenes.bin``, are the one hand-over:
``adapt`` reads them back from the config's output directory, and
:func:`run_phase` is the one driver.  The checkpoints ``stats_*.bin``,
``mtdt_model.bin`` and ``task_model.bin`` are written as the run's trained
products; no phase reads them.

The whole run is summarized in a RunRecord whose ``metrics`` sub-document is
a pure function of (config, seed): wall-clock times live outside it so
records of identical runs compare byte-for-byte.

Every dataset is a :class:`~mtda.toydata.Scenes`, and every batch and every
``INFER_BATCH`` chunk is a selection of its array rows.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import IGNORE_VALUE, Tensor
from .bars import BarsState, bars_step
from .config import ExperimentConfig, check_out_dir, config_hash, domain_name, save_config
from .metrics import ConfusionMatrix, miou, write_iou_report
from .optim import SgdMomentum
from .rng import SplitMix64
from .stats import DomainStatistics, WelfordAccumulator
from .taskseg import TaskNet
from .tensorio import write_archive
from .toydata import BUILTIN_DOMAINS, CLASS_NAMES, Scenes, export, generate, load, write_ppm
from .transfer import (
    ENCODER_STRIDE,
    FEATURE_CHANNELS,
    MtdtModel,
    MultiHeadDiscriminator,
    PerceptualNet,
    train_mtdt,
)

INFER_BATCH = 16  # images per forward pass when restyling or evaluating a dataset


class PhaseError(RuntimeError):
    def __init__(self, phase: str, detail: str):
        super().__init__(f"phase '{phase}' failed: {detail}")
        self.phase = phase


@dataclass
class Datasets:
    target_names: list[str]
    source_train: Scenes
    source_eval: Scenes
    targets_train: list[Scenes]
    targets_eval: list[Scenes]


@dataclass
class RunRecord:
    config_hash: str
    metrics: dict
    final_miou: dict[str, float]
    wall_clock: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _resolve_domain(name: str):
    if name in BUILTIN_DOMAINS:
        return BUILTIN_DOMAINS[name]
    if Path(name).is_dir():
        return Path(name)
    raise FileNotFoundError(f"domain {name!r} is neither a builtin name nor a dataset dir")


def _check_scenes(cfg: ExperimentConfig, scenes: Scenes, what: str) -> None:
    """Reject images not of ``image_size`` and labels outside [0, num_classes) or ignore."""
    shape = (3, cfg.image_size, cfg.image_size)
    if scenes.images.shape[1:] != shape:
        raise ValueError(f"{what} has image shape {scenes.images.shape[1:]}; "
                         f"image_size={cfg.image_size} needs {shape}")
    labels = scenes.labels
    bad = labels[(labels != IGNORE_VALUE) & ((labels < 0) | (labels >= cfg.num_classes))]
    if bad.size:
        raise ValueError(f"{what} has labels {np.unique(bad).tolist()} outside "
                         f"[0,{cfg.num_classes}) and != ignore {IGNORE_VALUE}")


def build_datasets(cfg: ExperimentConfig) -> Datasets:
    """Generate (or load) every split.  Builtin domains of the same seed share
    label maps scene-for-scene, which is what makes the domain gap purely an
    appearance gap."""
    h = w = cfg.image_size
    eval_seed = SplitMix64(cfg.seed).derive("eval-split").state

    def splits(name: str) -> tuple[Scenes, Scenes]:
        src = _resolve_domain(name)
        if isinstance(src, Path):
            scenes = load(src)
            n_tr, n = cfg.train_scenes, cfg.train_scenes + cfg.eval_scenes
            if len(scenes) < n:
                raise ValueError(f"dataset {src} has {len(scenes)} scenes, need {n}")
            _check_scenes(cfg, scenes, f"dataset {name}")
            return (Scenes(scenes.images[:n_tr], scenes.labels[:n_tr]),
                    Scenes(scenes.images[n_tr:n], scenes.labels[n_tr:n]))
        return (generate(src, cfg.seed, cfg.train_scenes, h, w),
                generate(src, eval_seed, cfg.eval_scenes, h, w))

    source_train, source_eval = splits(cfg.source)
    targets_train, targets_eval = [], []
    for name in cfg.targets:
        tr, ev = splits(name)
        targets_train.append(tr)
        targets_eval.append(ev)
    return Datasets(
        target_names=[domain_name(t) for t in cfg.targets],
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


def phase_stats(cfg: ExperimentConfig, model: MtdtModel, data: Datasets,
                out_dir: Path) -> tuple[list[DomainStatistics], dict]:
    """Stream every target training image, encoded ``INFER_BATCH`` at a time,
    into one accumulator per domain, then freeze and save the extracted
    statistics."""
    hf = cfg.image_size // ENCODER_STRIDE
    stats_list: list[DomainStatistics] = []
    metrics: dict = {}
    for name, scenes in zip(data.target_names, data.targets_train):
        acc = WelfordAccumulator(hf, hf, FEATURE_CHANNELS)
        for start in range(0, len(scenes), INFER_BATCH):
            for feat in model.encode(Tensor(scenes.images[start : start + INFER_BATCH])).data:
                acc.update(feat.transpose(1, 2, 0))
        st = acc.extract()
        write_archive(out_dir / f"stats_{name}.bin",
                      {"mu": st.mu, "sigma": st.sigma, "n": np.array(st.n)})
        stats_list.append(st)
        metrics[name] = {
            "n": st.n,
            "mu_mean": float(st.mu.mean()),
            "sigma_mean": float(st.sigma.mean()),
        }
    return stats_list, metrics


def phase_mtdt(cfg: ExperimentConfig, model: MtdtModel, disc: MultiHeadDiscriminator,
               pnet: PerceptualNet, data: Datasets, stats_list: list[DomainStatistics],
               out_dir: Path) -> dict:
    rng = SplitMix64(cfg.seed).derive("mtdt-sampling")
    b, src = cfg.mtdt_batch, data.source_train

    def batches():  # drawn as train_mtdt reads them: one batch in memory at a time
        for _ in range(cfg.mtdt_iterations):
            idx = [rng.randint(len(src)) for _ in range(b)]
            targets = np.concatenate([t.images[[rng.randint(len(t)) for _ in range(b)]]
                                      for t in data.targets_train])
            yield src.images[idx], src.labels[idx], targets

    recs: list[float] = []  # the reconstruction term of every logged iteration
    with (out_dir / "mtdt_log.jsonl").open("w", encoding="utf-8") as fh:
        def log_sink(record: dict) -> None:
            recs.append(record["rec"])
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        train_mtdt(model, disc, pnet, batches(), stats_list, log_sink=log_sink)

    arrays = model.params.state_arrays()
    arrays.update({f"disc/{k}": v for k, v in disc.params.state_arrays().items()})
    write_archive(out_dir / "mtdt_model.bin", arrays)

    metrics = {"iterations": cfg.mtdt_iterations}
    if recs:
        window = max(1, min(100, len(recs) // 4))
        metrics["rec_first_window"] = float(np.median(recs[:window]))
        metrics["rec_last_window"] = float(np.median(recs[-window:]))
    return metrics


def transfer_dataset(model: MtdtModel, scenes: Scenes,
                     stats_list: list[DomainStatistics]) -> list[Scenes]:
    """Restyle every scene toward each entry of `stats_list`, one result per
    entry, each sharing the labels array.  Each ``INFER_BATCH`` chunk's style
    and content are extracted once for every target.  The images are
    :meth:`MtdtModel.transfer_image`'s output, clamped to [-1,1] as in
    training."""
    moved = [np.empty_like(scenes.images) for _ in stats_list]
    for start in range(0, len(scenes), INFER_BATCH):
        rows = slice(start, start + INFER_BATCH)
        style, content = model.extract_style_content(Tensor(scenes.images[rows]),
                                                     scenes.labels[rows])
        for images, stats in zip(moved, stats_list):
            images[rows] = model.transfer_image(style, content, [stats]).data
    return [Scenes(images, scenes.labels) for images in moved]


def phase_transfer(cfg: ExperimentConfig, model: MtdtModel, data: Datasets,
                   stats_list: list[DomainStatistics], out_dir: Path) -> list[Scenes]:
    """Restyle the source training set toward every target, export each
    restyled set, and write PPM previews of the first few scenes."""
    grid_dir = out_dir / "transfer_grid"
    grid_dir.mkdir(parents=True, exist_ok=True)
    previews = range(min(4, len(data.source_train)))
    for i in previews:
        write_ppm(grid_dir / f"source_{i:02d}.ppm", data.source_train.images[i])
    transferred = transfer_dataset(model, data.source_train, stats_list)
    for name, scenes in zip(data.target_names, transferred):
        export(scenes, out_dir / "transfers" / name)
        for i in previews:
            write_ppm(grid_dir / f"{name}_{i:02d}.ppm", scenes.images[i])
    return transferred


def load_transferred(cfg: ExperimentConfig, out_dir: Path) -> list[Scenes]:
    transferred = []
    for name in map(domain_name, cfg.targets):
        d = out_dir / "transfers" / name
        if not (d / "scenes.bin").is_file():
            raise FileNotFoundError(f"missing transferred dataset {d}; run 'train-mtdt' first")
        scenes = load(d)
        if len(scenes) != cfg.train_scenes:
            raise ValueError(f"{d}/scenes.bin has {len(scenes)} scenes; "
                             f"train_scenes={cfg.train_scenes}")
        _check_scenes(cfg, scenes, f"{d}/scenes.bin")
        transferred.append(scenes)
    return transferred


def _task_optimizer() -> SgdMomentum:
    """The task network's optimizer."""
    return SgdMomentum(lr=2.5e-4, momentum=0.9, weight_decay=5e-4)


def phase_adapt(cfg: ExperimentConfig, data: Datasets, transferred: list[Scenes],
                out_dir: Path, verify: bool = False) -> tuple[TaskNet, dict]:
    """Round-robin self-training over target domains with region selection.

    Raises RuntimeError, before that step's diagnostics line is written, if
    a step's loss is not finite."""
    rng = SplitMix64(cfg.seed).derive("adapt-sampling")
    net = TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
    opt = _task_optimizer()
    state = BarsState(
        num_classes=cfg.num_classes,
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
            tr, tg = transferred[k], data.targets_train[k]
            idx_tr = [rng.randint(len(tr)) for _ in range(b)]
            idx_tg = [rng.randint(len(tg)) for _ in range(b)]
            _, diag = bars_step(
                state, net, opt, k, tr.images[idx_tr], tr.labels[idx_tr], tg.images[idx_tg],
                filter_source=cfg.bars_source, train_target=cfg.bars_target,
                verify=verify,
            )
            name = data.target_names[k]
            if not np.isfinite(diag.loss):
                raise RuntimeError(f"non-finite BARS loss at iteration {i} on target {name}")
            skipped += int(diag.skipped)
            kept_src_last[name] = diag.kept_fraction_source
            kept_tgt_last[name] = diag.kept_fraction_target
            fh.write(json.dumps({**asdict(diag), "domain": name}, sort_keys=True) + "\n")

    write_archive(out_dir / "task_model.bin", net.params.state_arrays())
    metrics = {
        "iterations": cfg.adapt_iterations,
        "skipped_steps": skipped,
        "kept_fraction_source_last": kept_src_last,
        "kept_fraction_target_last": kept_tgt_last,
    }
    return net, metrics


def evaluate_net(net: TaskNet, scenes: Scenes) -> tuple[ConfusionMatrix, np.ndarray, float]:
    cm = ConfusionMatrix(net.num_classes)
    for start in range(0, len(scenes), INFER_BATCH):
        rows = slice(start, start + INFER_BATCH)
        cm.accumulate(net.predict(scenes.images[rows]), scenes.labels[rows])
    iou, mean = miou(cm)
    return cm, iou, mean


def phase_eval(cfg: ExperimentConfig, net: TaskNet, data: Datasets,
               out_dir: Path) -> dict:
    results = {}
    for name, scenes in zip(data.target_names, data.targets_eval):
        cm, iou, mean = evaluate_net(net, scenes)
        write_iou_report(out_dir / f"eval_{name}.csv", CLASS_NAMES, cm)
        results[name] = {
            "miou": round(100.0 * mean, 4),
            "per_class_iou": [None if np.isnan(v) else round(100.0 * v, 4) for v in iou],
        }
    return results


def domain_classifier_accuracy(model: MtdtModel, disc: MultiHeadDiscriminator,
                               scenes: Scenes, stats_list: list[DomainStatistics]) -> float:
    """Fraction of held-out restyled images whose domain head picks their target.

    The images are restyled by :func:`transfer_dataset`, so the critic sees
    the same clamped :meth:`MtdtModel.transfer_image` output as in training
    and as ``phase_transfer`` writes."""
    correct = 0
    for k, restyled in enumerate(transfer_dataset(model, scenes, stats_list)):
        _, dom = disc.forward(Tensor(restyled.images))
        correct += int((np.argmax(dom.data, axis=1) == k).sum())
    return correct / (len(stats_list) * len(scenes))


PHASES = ("mtdt", "adapt")


def run_phase(cfg: ExperimentConfig, phase: str, data: Datasets, out_dir: Path) -> dict:
    """Run one phase of :data:`PHASES` and return what the run record stores
    for it.  ``mtdt`` extracts the statistics of its fresh encoder, trains,
    and writes the restyled sets; ``adapt`` reads them back from out_dir,
    checks that they carry this config's source labels, self-trains the
    task network and evaluates it."""
    if phase == "mtdt":
        model, disc, pnet = init_models(cfg)
        stats_list, statistics = phase_stats(cfg, model, data, out_dir)
        metrics = phase_mtdt(cfg, model, disc, pnet, data, stats_list, out_dir)
        acc = domain_classifier_accuracy(model, disc, data.source_eval, stats_list)
        phase_transfer(cfg, model, data, stats_list, out_dir)
        return {**metrics, "domain_classifier_accuracy": round(acc, 4),
                "statistics": statistics}
    if phase == "adapt":
        transferred = load_transferred(cfg, out_dir)
        for name, restyled in zip(data.target_names, transferred):
            if not np.array_equal(restyled.labels, data.source_train.labels):
                raise ValueError(f"{out_dir / 'transfers' / name / 'scenes.bin'} does not restyle "
                                 f"this config's source labels; run 'train-mtdt' first")
        net, metrics = phase_adapt(cfg, data, transferred, out_dir)
        return {**metrics, "eval": phase_eval(cfg, net, data, out_dir)}
    raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")


def run_pipeline(cfg: ExperimentConfig) -> RunRecord:
    cfg.validate()
    check_out_dir(cfg)
    out_dir = Path(cfg.out_dir)
    record = RunRecord(config_hash=config_hash(cfg), metrics={}, final_miou={})

    def timed(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            raise PhaseError(name, str(e)) from e
        record.wall_clock[name] = round(time.perf_counter() - t0, 3)
        return result

    data = timed("data", lambda: build_datasets(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.txt")
    for phase in PHASES:
        record.metrics[phase] = timed(phase, lambda: run_phase(cfg, phase, data, out_dir))
    record.final_miou = {name: res["miou"]
                         for name, res in record.metrics["adapt"]["eval"].items()}

    record.artifacts = sorted(
        str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()
        if p.name != "run_record.json"
    )
    (out_dir / "run_record.json").write_text(record.to_json(), encoding="utf-8")
    return record

