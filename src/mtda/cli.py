"""Command-line entry point.

Subcommands: train-mtdt, adapt, gradcheck, pipeline.
``train-mtdt`` writes the restyled source sets that ``adapt`` reads back;
``adapt`` self-trains the task network on them and evaluates it.
``pipeline`` and ``train-mtdt`` write ``config.txt`` to ``--out``, and all three
refuse an ``--out`` whose ``config.txt`` holds another config.
Exit codes: 0 ok, 1 usage, 2 config, 3 runtime failure, 4 check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, check_out_dir, load_config, save_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mtda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, doc in [
        ("train-mtdt", "extract per-domain feature statistics, train the domain "
                       "transfer network, and restyle the source set toward every target"),
        ("adapt", "self-train the task network with region selection, then "
                  "evaluate it per target domain"),
        ("gradcheck", "finite-difference check of every differentiable op"),
        ("pipeline", "run all phases end to end"),
    ]:
        p = sub.add_parser(name, help=doc)
        if name != "gradcheck":
            p.add_argument("--config", type=str, default=None, help="key=value config file")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--out", type=str, default=None, help="override output dir")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg.validate()


def _cmd_gradcheck() -> int:
    from .gradcheck import REL_TOLERANCE, run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[gradcheck] {r.op:<24} probes={r.probes:<3} "
              f"max_rel_err={r.max_rel_err:.3e}  {status}")
    print(f"[gradcheck] tolerance {REL_TOLERANCE:g}: "
          f"{len(results) - len(failed)}/{len(results)} ops passed")
    return EXIT_OK if not failed else EXIT_CHECK


def _cmd_phase(command: str, cfg: ExperimentConfig) -> int:
    from . import pipeline as pl

    out_dir = Path(cfg.out_dir)
    if command == "pipeline":
        record = pl.run_pipeline(cfg)
        for name, value in record.final_miou.items():
            print(f"[pipeline] {name}: mIoU {value:.2f}")
        print(f"[pipeline] record: {out_dir / 'run_record.json'}")
        return EXIT_OK

    check_out_dir(cfg)
    data = pl.build_datasets(cfg)
    if command == "train-mtdt":  # adapt reads the restyled sets from --out
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out_dir / "config.txt")
        metrics = pl.run_phase(cfg, "mtdt", data, out_dir)
        print(f"[train-mtdt] {metrics['iterations']} iterations, domain classifier "
              f"accuracy {metrics['domain_classifier_accuracy']:.4f}, "
              f"checkpoint {out_dir / 'mtdt_model.bin'}")
        for name in data.target_names:
            print(f"[train-mtdt] {name}: {len(data.source_train)} scenes -> "
                  f"{out_dir / 'transfers' / name}")
        return EXIT_OK

    metrics = pl.run_phase(cfg, "adapt", data, out_dir)
    print(f"[adapt] {metrics['iterations']} iterations, "
          f"skipped {metrics['skipped_steps']}, checkpoint {out_dir / 'task_model.bin'}")
    for name, res in metrics["eval"].items():
        print(f"[adapt] {name}: mIoU {res['miou']:.2f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gradcheck":
        return _cmd_gradcheck()
    try:
        return _cmd_phase(args.command, _load_cfg(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
