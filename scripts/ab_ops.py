#!/usr/bin/env python3
"""Time the hot calls of two source trees side by side in one process.

Loads ``BASE/src/mtda`` as the package ``mtda_base`` and this checkout's
``src/mtda`` as ``mtda_head``, builds the same models and inputs in each, and
alternates the two sides call for call, flipping which side goes first on
every repetition, so that both see the same load on a shared machine.  A
benchmark median can move by more than 10% between rounds on a loaded box;
a ratio taken this way does not.

Timed calls, after one untimed warm-up repetition:

* ``TaskNet.predict`` on 16 images at 64 px;
* ``MtdtModel.extract_style_content``, ``transfer_image`` (toward one
  target) and ``encode`` on 16 images at 64 px;
* one ``bars_step`` and one ``train_mtdt`` iteration at 32 px.  Both sides
  train their own copy from the same start, so they stay in lockstep.

For each call it prints the median milliseconds per side, head over base,
the repetitions head was faster in, whether the two sides' outputs were
bit-equal on every repetition, and two relative differences between them,
``max|head - base| / max|base|``: after the first (warm-up) call, and the
largest over all calls.  The outputs are the logits for ``predict``, and the
trained parameters for the two training calls.  A change that only reorders
floating-point sums shows a difference near 1e-15 after one call.  For the
training calls the later ones compound it: Adam divides each step by a
running root mean square of the gradient, so where a gradient is near zero,
rounding moves a step by a sizeable share of the learning rate.  Run A/A
(``--base`` naming this checkout), every call must be bit-equal: the script
exits 1 if one is not, since then some call is not deterministic.

Example, from the root of a checkout:
    python3 scripts/ab_ops.py --base ../parent --reps 30
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HEAD_SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("autodiff", "bars", "config", "pipeline", "rng", "stats", "taskseg",
           "toydata", "transfer")


def load(name: str, src: Path) -> dict:
    """The mtda package under ``src`` imported as package ``name``."""
    init = src / "mtda" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no mtda package at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def domain_stats(m: dict, model, images: np.ndarray):
    st = m["stats"]
    feats = model.encode(m["autodiff"].Tensor(images)).data
    acc = st.WelfordAccumulator(*feats.shape[2:], feats.shape[1])
    for f in feats:
        acc.update(f.transpose(1, 2, 0))
    return acc.extract()


def build(m: dict, big: dict, small: dict) -> dict:
    """name -> (call, digest): ``call`` is timed, ``digest(call())`` compared."""
    Tensor, SplitMix64 = m["autodiff"].Tensor, m["rng"].SplitMix64
    cfg = m["config"].ExperimentConfig()
    model, _, _ = m["pipeline"].init_models(cfg)
    net = m["taskseg"].TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
    stats_big = domain_stats(m, model, big["dusk"])
    style, content = model.extract_style_content(Tensor(big["source"]), big["labels"])

    # the training calls get their own models, so the forward calls' stay fixed
    t_model, t_disc, t_pnet = m["pipeline"].init_models(cfg)
    stats_small = [domain_stats(m, t_model, small[name]) for name in cfg.targets]
    b = cfg.mtdt_batch
    mtdt_batch = (small["source"][:b], small["labels"][:b],
                  np.concatenate([small[name][:b] for name in cfg.targets]))
    t_net = m["taskseg"].TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
    opt = m["pipeline"]._task_optimizer()
    state = m["bars"].BarsState(num_classes=cfg.num_classes, num_domains=1,
                                switch_iteration=cfg.bars_m)
    n = cfg.task_batch

    def flat(tensors):
        return np.concatenate([t.data.ravel() for t in tensors])

    def same(out):
        return out

    return {
        "TaskNet.predict": (lambda: net.predict(big["source"]),
                            lambda _: net.forward(Tensor(big["source"]))[0].data),
        "extract_style_content": (
            lambda: model.extract_style_content(Tensor(big["source"]), big["labels"]),
            lambda out: flat([*out[0], out[1]])),
        "transfer_image": (lambda: model.transfer_image(style, content, [stats_big]).data,
                           same),
        "encode": (lambda: model.encode(Tensor(big["source"])).data, same),
        "bars_step": (
            lambda: m["bars"].bars_step(state, t_net, opt, 0, small["source"][:n],
                                        small["labels"][:n], small["dusk"][:n]),
            lambda _: flat(t_net.params.tensors())),
        "train_mtdt iteration": (
            lambda: m["transfer"].train_mtdt(t_model, t_disc, t_pnet, [mtdt_batch],
                                             stats_small, log_sink=lambda record: None),
            lambda _: flat(t_model.params.tensors())),
    }


def scenes(m: dict, size: int, count: int) -> dict:
    toy = m["toydata"]
    src = toy.generate(toy.BUILTIN_DOMAINS["source"], 7, count, size, size)
    out = {"source": src.images, "labels": src.labels}
    for name in ("dusk", "night"):
        out[name] = toy.generate(toy.BUILTIN_DOMAINS[name], 7, count, size, size).images
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path,
                    help="root of the checkout to compare against")
    ap.add_argument("--reps", type=int, default=30, help="timed repetitions per side")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")

    base_src = args.base.resolve() / "src"
    base_m = load("mtda_base", base_src)
    head_m = load("mtda_head", HEAD_SRC)
    # one set of inputs, made by head, for both sides
    big, small = scenes(head_m, 64, 16), scenes(head_m, 32, 4)
    sides = {"base": build(base_m, big, small), "head": build(head_m, big, small)}
    names = list(sides["head"])
    times = {s: {k: [] for k in names} for s in sides}
    equal = dict.fromkeys(names, True)
    first, rel = {}, dict.fromkeys(names, 0.0)

    for rep in range(args.reps + 1):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for k in names:
            digests = {}
            for s in order:
                call, digest = sides[s][k]
                t0 = time.perf_counter()
                out = call()
                dt = time.perf_counter() - t0
                if rep:  # repetition 0 warms up
                    times[s][k].append(dt)
                digests[s] = digest(out)
            b, h = digests["base"], digests["head"]
            equal[k] &= np.array_equal(b, h)
            rel[k] = max(rel[k], np.abs(h - b).max() / np.abs(b).max())
            first.setdefault(k, rel[k])

    print(f"{'call':<24}{'base ms':>10}{'head ms':>10}{'head/base':>11}"
          f"{'head wins':>11}{'bit-equal':>11}{'1st rel diff':>14}{'max rel diff':>14}")
    for k in names:
        tb, th = times["base"][k], times["head"][k]
        mb, mh = statistics.median(tb), statistics.median(th)
        wins = sum(h < b for b, h in zip(tb, th))
        print(f"{k:<24}{mb * 1e3:>10.2f}{mh * 1e3:>10.2f}{mh / mb:>11.3f}"
              f"{f'{wins}/{len(th)}':>11}{'yes' if equal[k] else 'no':>11}"
              f"{first[k]:>14.1e}{rel[k]:>14.1e}")
    if base_src == HEAD_SRC and not all(equal.values()):
        print("A/A run, yet some outputs differ: a call is not deterministic",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
