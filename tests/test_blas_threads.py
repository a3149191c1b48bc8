"""Bitwise determinism of convolution and instance norm across BLAS thread counts.

Each child process runs the networks at the benchmark's workload shapes
(MTDT training step at 32 px, task-net training step at 32 px, restyling and
``TaskNet.predict`` at 64 px) under a fixed ``OPENBLAS_NUM_THREADS`` and
prints one sha256 over every forward output and gradient.  The thread count
is set for the child only.
"""

import os
import subprocess
import sys
from pathlib import Path

import mtda

CHILD = r"""
import hashlib
import numpy as np
from mtda.autodiff import Tape, Tensor, softmax_cross_entropy
from mtda.rng import SplitMix64
from mtda.stats import DomainStatistics
from mtda.taskseg import TaskNet
from mtda.toydata import DEFAULT_SOURCE, DEFAULT_TARGETS, generate
from mtda.transfer import MtdtModel, MultiHeadDiscriminator, PerceptualNet, train_mtdt

digest = hashlib.sha256()

def images(spec, count, size):
    scenes = generate(spec, seed=3, count=count, h=size, w=size)
    return scenes.images, scenes.labels

def absorb(*arrays):
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())

rng = SplitMix64(5)
stats = [DomainStatistics(mu=rng.normal(32), sigma=np.abs(rng.normal(32)) + 0.3, n=5)
         for _ in DEFAULT_TARGETS]

# train-mtdt: one generator and critic step, batch 2 at 32 px
model = MtdtModel(4, rng.derive("m"))
disc = MultiHeadDiscriminator(len(DEFAULT_TARGETS), rng.derive("d"))
src_img, src_lab = images(DEFAULT_SOURCE, 2, 32)
batch = (src_img, src_lab, np.concatenate([images(s, 2, 32)[0] for s in DEFAULT_TARGETS]))
log = []
train_mtdt(model, disc, PerceptualNet(3), [batch], stats, log_sink=log.append)
absorb(np.array([log[0][k] for k in sorted(log[0])], dtype=float),
       *(t.data for t in model.params.tensors() + disc.params.tensors()))

# train-adapt: task-net cross-entropy and backward, batch 4 at 32 px
net = TaskNet(4, rng.derive("t"))
img, lab = images(DEFAULT_TARGETS[0], 4, 32)
x = Tensor(img, requires_grad=True)
with Tape() as tape:
    logits, feats = net.forward(x)
    loss = softmax_cross_entropy(logits, lab)
absorb(logits.data, feats.data, *tape.backward(loss, [x] + net.params.tensors()))

# infer-restyle: forward only, batch 16 at 64 px
img, lab = images(DEFAULT_SOURCE, 16, 64)
absorb(model.transfer_image(*model.extract_style_content(Tensor(img), lab), stats[:1]).data)

# TaskNet.predict on 16 images at 64 px: its (16, 16, 64, 64) instance norms
# are the largest spatial reductions of any workload
logits, feats = net.forward(Tensor(img))
absorb(logits.data, feats.data, net.predict(img))
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    src = str(Path(mtda.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_conv_outputs_and_gradients_identical_for_one_and_two_blas_threads():
    one = _digest(1)
    assert len(one) == 64
    assert _digest(2) == one
