"""Dense float64 tensors with a tape-based reverse-mode backward pass.

Everything the transfer and task networks need lives here: convolution,
a nearest 2x upsample fused with the 3x3 convolution after it,
fully-connected, instance normalization, ReLU, the loss functions, and a
handful of structural ops (concat/slice on channels, nearest upsampling,
channel-wise affine modulation, global average pooling, batch tiling).
Each op computes its forward value with numpy and, when a :class:`Tape` is
active, records a vector-Jacobian closure.  ``Tape.backward(loss, wrt)``
replays the records in exact reverse execution order and returns the
gradient of ``loss`` with respect to each leaf tensor in ``wrt``; gradients
are return values, never state on a tensor, so two losses on one tape are
differentiated independently and no step needs zeroing first.

No broadcasting beyond what these ops need, no views escape into user code,
and every op is deterministic for identical inputs.  Importing the module
fixes glibc malloc's thresholds, so that a loop of training steps reuses the
memory of its freed arrays instead of faulting it in again.

Tensors are NCHW at every op boundary.  Inside, ``conv2d`` lowers a
zero-padded NHWC copy of its input along the width only, as MEC does (Cho &
Brand, *MEC: Memory-efficient Convolution for Deep Neural Network*, ICML
2017): one row per (input row, output column) holds that row's run of kw
pixels, kw*C contiguous values.  Kernel row i is then one GEMM of the
row-shifted block starting i*Wo rows in against a (kw*C, Co) matrix, and the
kh products are summed: for a 3x3 kernel, a third of im2col's gather and
kept matrix, for the same FLOPs.  At strides above 1 a row holds the whole
window, as in im2col.  Rows are gathered and multiplied a few images at a
time, so a chunk is still in cache for its GEMMs.  The bias is added in the
copy back to NCHW.  Backward takes ``dw`` from the same lowered matrix and
``db`` from ``g``, only when they are needed.  ``dx`` is a transposed
convolution (the padded ``g`` lowered against the flipped kernel) at stride
1; at larger strides, where that would mostly multiply zeros, ``g @ w`` is
scattered back with kh*kw slice-adds into an NHWC buffer.

``upsample_conv2d`` is a 3x3 conv over a nearest 2x upsample, run as the
sub-pixel convolution of Shi et al. (*Real-Time Single Image and Video
Super-Resolution Using an Efficient Sub-Pixel CNN*, CVPR 2016).  Output row
2i+a reads low-res rows i-1, i with kernel rows k0, k1+k2 when a = 0, and
rows i, i+1 with k0+k1, k2 when a = 1; columns likewise.  A fixed 0/1 map
folds the (Co, C, 3, 3) kernel into a (4*Co, C, 3, 3) kernel, one block of
Co per output phase (a, b); one padded 3x3 ``conv2d`` over the low-res input
gives the four phase maps, and a depth-to-space shuffle interleaves them.
Each of the fold, the bias tiling and the shuffle is a recorded op whose
vjp is its transpose, so ``conv2d``'s own vjp does the heavy backward work.
"""

from __future__ import annotations

import ctypes
import itertools
import sys

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _keep_freed_heap() -> None:
    """Fix glibc malloc's thresholds so that freed arrays stay in the process.

    A training step frees and reallocates the same arrays every time.  By
    default glibc moves its mmap and trim thresholds at run time, and where
    they settle depends on the randomized address layout: one process gives
    back and re-faults 4-7 MB of heap in every BARS step, the next none.
    With fixed thresholds, arrays up to 32 MB come from the heap and its top
    is trimmed only past 128 MB free, so every process reuses its memory.
    Other C libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 128 << 20)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when an op receives tensors with incompatible shapes."""


class TapeError(RuntimeError):
    """Raised when backward() gets a loss this tape never recorded, or is asked
    for the gradient of a value it did record rather than of a leaf."""


class Tensor:
    """N-dimensional float64 array; ``requires_grad`` marks a leaf whose
    gradient ``Tape.backward`` may be asked for."""

    __slots__ = ("data", "requires_grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._tape: int | None = None  # id of the tape that recorded it
        self._node: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Small operator surface for assembling losses and elementwise algebra.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


class Tape:
    """Ordered record of executed ops, replayed backwards for gradients.

    Recorded tensors name their tape by integer id rather than by reference,
    so the tape and its outputs form no reference cycle and a finished tape
    is freed, with every buffer its closures hold, as soon as it is dropped.
    """

    def __init__(self):
        self._id = next(_TAPE_IDS)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        out._tape = self._id
        out._node = len(self._records)
        self._records.append((out, inputs, vjp))

    def backward(self, loss: Tensor, wrt: list[Tensor]) -> list[np.ndarray | None]:
        """d(loss)/d(t) for every leaf t in ``wrt``, as a list aligned with it.

        An entry is None where the loss does not depend on t or t does not
        have ``requires_grad`` set.  Nothing is stored on any tensor, so
        several losses recorded on one tape can each be asked for their own
        gradients, in any order, without interfering.  The arrays are fresh
        for each call but may share memory with one another (both inputs of
        an ``add`` receive the same array), so treat them as read-only.
        """
        if loss._tape != self._id:
            raise TapeError("loss tensor was not produced on this tape")
        if loss.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if any(t._tape == self._id for t in wrt):
            raise TapeError("wrt holds a tensor recorded on this tape; ask for leaves only")

        pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, vjp in reversed(self._records[: loss._node + 1]):
            g = pending.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, vjp(g)):
                if gi is None:
                    continue
                key = id(t)
                pending[key] = pending[key] + gi if key in pending else gi
        # whatever is left never came off a record: leaf inputs and parameters
        return [pending.get(id(t)) if t.requires_grad else None for t in wrt]


_TAPE_STACK: list[Tape] = []
_TAPE_IDS = itertools.count()


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad or t._tape == tape._id for t in inputs):
        tape._record(out, inputs, vjp)
    return out


class LayerParams:
    """Weights + bias of one layer.

    Convolution weights are (out_ch, in_ch, kH, kW), fully-connected weights
    (out_dim, in_dim); the bias is (out,) either way.
    """

    def __init__(self, weights: Tensor, bias: Tensor):
        if bias.data.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeError(
                f"bias length {bias.shape} does not match output size {weights.shape[0]}"
            )
        self.weights = weights
        self.bias = bias


# ---------------------------------------------------------------------------
# layer ops


# Bytes of lowered rows gathered per chunk of images: a chunk stays in a core's
# cache from its gather through its kh kernel-row GEMMs instead of making a round
# trip through memory.  Half a MiB measured faster than 1 MiB on most calls.
_COL_CHUNK_BYTES = 1 << 19


def _lowered_gemm(xp: np.ndarray, wrows: np.ndarray, stride: int, ho: int, wo: int,
                  keep: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``(out, low)``: the correlation of the NHWC array ``xp`` with the kernel
    rows ``wrows`` (kh, kw*C, Co), as a (B, ho, wo, Co) view, and the lowered
    matrix, whose rows are runs of u kernel rows, if ``keep`` is set: u is 1
    at stride 1 and kh at larger strides, where it makes the lowering im2col."""
    B, C = xp.shape[0], xp.shape[3]
    kh, k, co = wrows.shape
    u = 1 if stride == 1 else kh  # kernel rows per lowered row
    nq = ho + kh - u  # lowered rows per image and output column
    sb, sh, sw, sc = xp.strides
    win = as_strided(xp, (B, nq, wo, u, k // C, C),
                     (sb, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    wrows = wrows.reshape(kh // u, u * k, co)
    per = max(1, min(B, _COL_CHUNK_BYTES // (8 * nq * wo * u * k)))
    low = np.empty((B if keep else per, nq * wo, u * k))
    out = np.empty((B * nq * wo, co))
    for b0 in range(0, B, per):
        n = min(per, B - b0)
        c = low[b0 : b0 + n] if keep else low[:n]
        c.reshape(win[b0 : b0 + n].shape)[...] = win[b0 : b0 + n]
        # kernel row i reads the lowered rows i*wo onwards, as one GEMM over the
        # chunk; the rows that straddle two images land past ho and are dropped
        c, span, dst = c.reshape(-1, u * k), ((n - 1) * nq + ho) * wo, out[b0 * nq * wo :]
        np.matmul(c[:span], wrows[0], out=dst[:span])
        for i in range(1, kh // u):
            dst[:span] += c[i * wo : i * wo + span] @ wrows[i]
    return out.reshape(B, nq, wo, co)[:, :ho], low if keep else None


def conv2d(x: Tensor, p: LayerParams, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation (no kernel flip) with zero padding."""
    if p.weights.data.ndim != 4:
        raise ShapeError(f"conv2d weights must be 4-d, got {p.weights.shape}")
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be (B,C,H,W), got {x.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    B, C, H, W = x.shape
    Co, Ci, kh, kw = p.weights.shape
    if C != Ci:
        raise ShapeError(f"conv2d: input has {C} channels, kernel expects {Ci}")
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    if H + 2 * pad < kh or W + 2 * pad < kw:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} does not fit padded input {H + 2 * pad}x{W + 2 * pad}"
        )

    w, b = p.weights, p.bias
    xp = np.zeros((B, H + 2 * pad, W + 2 * pad, C))
    xp[:, pad : pad + H, pad : pad + W] = x.data.transpose(0, 2, 3, 1)
    tape = _active_tape()
    need_dx, need_dw, need_db = (
        t.requires_grad or (tape is not None and t._tape == tape._id) for t in (x, w, b))
    wrows = w.data.transpose(2, 3, 1, 0).reshape(kh, kw * C, Co)  # (i, (j, c), o)
    out4d, low = _lowered_gemm(xp, wrows, stride, Ho, Wo, keep=tape is not None and need_dw)
    out = np.empty((B, Co, Ho, Wo))
    np.add(out4d.transpose(0, 3, 1, 2), b.data[:, None, None], out=out)

    def vjp(g: np.ndarray):
        g3 = g.transpose(0, 2, 3, 1).reshape(B, Ho * Wo, Co)
        db = g3.sum(axis=(0, 1)) if need_db else None
        dw = None
        if need_dw:
            if low.shape[1] == Ho * Wo:  # one group, and one GEMM, as in the forward
                dw = g3.reshape(-1, Co).T @ low.reshape(-1, low.shape[2])
            else:  # one block of columns per kernel row, summed over images
                blocks = as_strided(low, (B, kh, Ho * Wo, low.shape[2]),
                                    (low.strides[0], Wo * low.strides[1], *low.strides[1:]))
                dw = (g3.transpose(0, 2, 1)[:, None] @ blocks).sum(axis=0).transpose(1, 0, 2)
            dw = dw.reshape(Co, kh, kw, C).transpose(0, 3, 1, 2)
        if not need_dx:
            return None, dw, db
        if stride == 1:
            # transposed convolution: g padded by k-1 on every side, correlated
            # with the flipped kernel, read only over the interior
            gp = np.zeros((B, Ho + 2 * (kh - 1), Wo + 2 * (kw - 1), Co))
            gp[:, kh - 1 : kh - 1 + Ho, kw - 1 : kw - 1 + Wo] = g3.reshape(B, Ho, Wo, Co)
            w_flip = wrows.reshape(kh, kw, C, Co)[::-1, ::-1].transpose(0, 1, 3, 2)
            w_flip = w_flip.reshape(kh, kw * Co, C)
            dx, _ = _lowered_gemm(gp[:, pad:, pad:], w_flip, 1, H, W, keep=False)
        else:
            # a strided transposed convolution would multiply mostly zeros;
            # scatter the kh*kw columns of dcol instead, C contiguous in both
            dcol = (g3.reshape(-1, Co) @ wrows.reshape(-1, Co).T).reshape(B, Ho, Wo, kh, kw, C)
            dxp = np.zeros((B, H + 2 * pad, W + 2 * pad, C))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + stride * (Ho - 1) + 1 : stride,
                        j : j + stride * (Wo - 1) + 1 : stride] += dcol[:, :, :, i, j]
            dx = dxp[:, pad : pad + H, pad : pad + W]
        return np.ascontiguousarray(dx.transpose(0, 3, 1, 2)), dw, db

    return _emit(out, (x, w, b), vjp)


def fully_connected(v: Tensor, p: LayerParams) -> Tensor:
    """out = v @ W.T + b, per batch row."""
    if p.weights.data.ndim != 2:
        raise ShapeError(f"fully_connected weights must be 2-d, got {p.weights.shape}")
    if v.data.ndim != 2:
        raise ShapeError(f"fully_connected input must be (B,D), got {v.shape}")
    if v.shape[1] != p.weights.shape[1]:
        raise ShapeError(
            f"fully_connected: input dim {v.shape[1]} != weight in_dim {p.weights.shape[1]}")
    w, b = p.weights, p.bias
    # the arrays, not the tensors: a step between two backwards rebinds w.data
    wd, vd = w.data, v.data
    out = vd @ wd.T + b.data[None, :]

    def vjp(g: np.ndarray):
        return g @ wd, g.T @ vd, g.sum(axis=0)

    return _emit(out, (v, w, b), vjp)


NORM_EPS = 1e-5  # added to each channel's variance by instance_norm


def instance_norm(x: Tensor) -> Tensor:
    """Per (batch, channel): zero spatial mean, and spatial variance
    ``v / (v + NORM_EPS)`` for an input channel of variance ``v``."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm input must be (B,C,H,W), got {x.shape}")
    m = x.data.mean(axis=(2, 3), keepdims=True)
    xc = x.data - m
    v = (xc * xc).mean(axis=(2, 3), keepdims=True)
    istd = 1.0 / np.sqrt(v + NORM_EPS)
    y = xc * istd

    def vjp(g: np.ndarray):
        gm = g.mean(axis=(2, 3), keepdims=True)
        gy = (g * y).mean(axis=(2, 3), keepdims=True)
        return istd * (g - gm - y * gy),

    return _emit(y, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), +0.0 for -0.0; a NaN stays NaN.  The gradient passes where
    the output, and so the input, is positive."""
    out = np.maximum(x.data, 0.0)

    def vjp(g: np.ndarray):
        return g * (out > 0),

    return _emit(out, (x,), vjp)


def clamp_unit(x: Tensor) -> Tensor:
    """Clamp to [-1, 1]; gradient passes only through the interior."""
    xd = x.data

    def vjp(g: np.ndarray):
        return g * ((xd > -1.0) & (xd < 1.0)),

    return _emit(np.clip(x.data, -1.0, 1.0), (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data

    def vjp(g: np.ndarray):
        return g, g

    return _emit(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g: np.ndarray):
        return -g,

    return _emit(-a.data, (a,), vjp)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of equal shapes; a Python number b becomes a 0-d tensor."""
    if not isinstance(b, Tensor):
        b = Tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray):
        return g * bd, g * ad

    return _emit(out, (a, b), vjp)


def tensor_sum(x: Tensor) -> Tensor:
    def vjp(g: np.ndarray):
        return np.full(x.shape, float(g)),

    return _emit(np.asarray(x.data.sum()), (x,), vjp)


def channel_affine(x: Tensor, scale: Tensor, bias: Tensor) -> Tensor:
    """y = x * scale + bias with (B,C) or (1,C) scale/bias broadcast over space."""
    if x.data.ndim != 4:
        raise ShapeError(f"channel_affine input must be (B,C,H,W), got {x.shape}")
    B, C = x.shape[:2]
    for name, t in (("scale", scale), ("bias", bias)):
        if t.data.ndim != 2 or t.shape[1] != C or t.shape[0] not in (1, B):
            raise ShapeError(
                f"channel_affine {name} must be (1,{C}) or ({B},{C}), got {t.shape}"
            )
    s4 = scale.data[:, :, None, None]
    out = x.data * s4 + bias.data[:, :, None, None]
    xd = x.data

    def vjp(g: np.ndarray):
        dx = g * s4
        ds = (g * xd).sum(axis=(2, 3))
        db = g.sum(axis=(2, 3))
        if scale.shape[0] == 1 and B > 1:
            ds = ds.sum(axis=0, keepdims=True)
        if bias.shape[0] == 1 and B > 1:
            db = db.sum(axis=0, keepdims=True)
        return dx, ds, db

    return _emit(out, (x, scale, bias), vjp)


def concat_channels(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    base = parts[0].shape
    for t in parts[1:]:
        if t.data.ndim != 4 or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(f"concat_channels: {t.shape} incompatible with {base}")
    sizes = [t.shape[1] for t in parts]
    out = np.concatenate([t.data for t in parts], axis=1)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g: np.ndarray):
        return tuple(np.split(g, splits, axis=1))

    return _emit(out, tuple(parts), vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"slice_channels input must be (B,C,H,W), got {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_channels [{start}:{stop}] out of range for C={x.shape[1]}")
    out = x.data[:, start:stop].copy()

    def vjp(g: np.ndarray):
        dx = np.zeros(x.shape)
        dx[:, start:stop] = g
        return dx,

    return _emit(out, (x,), vjp)


def upsample_nearest2x(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"upsample input must be (B,C,H,W), got {x.shape}")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g: np.ndarray):
        # each input pixel's four copies, summed pairwise
        even, odd = g[:, :, 0::2], g[:, :, 1::2]
        return (even[..., 0::2] + even[..., 1::2]) + (odd[..., 0::2] + odd[..., 1::2]),

    return _emit(out, (x,), vjp)


# Along one axis, (phase, tap at low-res offset -1/0/+1, kernel tap): phase 0
# reads offsets -1, 0 with k0, k1+k2; phase 1 reads offsets 0, +1 with k0+k1, k2.
_AXIS_FOLD = np.array([[[1, 0, 0], [0, 1, 1], [0, 0, 0]],
                       [[0, 0, 0], [1, 1, 0], [0, 0, 1]]], dtype=np.float64)
# (36, 9): a 3x3 kernel's taps (p, q) -> rows (a, b, r, s), the taps (r, s) of
# output phase (a, b)
_PHASE_FOLD = np.einsum("arp,bsq->abrspq", _AXIS_FOLD, _AXIS_FOLD).reshape(36, 9)


def _fold_phases(w: Tensor) -> Tensor:
    """(Co, C, 3, 3) kernel -> (4*Co, C, 3, 3), one block of Co per phase."""
    Co, C = w.shape[:2]
    out = (w.data.reshape(Co * C, 9) @ _PHASE_FOLD.T).reshape(Co, C, 4, 3, 3)

    def vjp(g: np.ndarray):
        g = g.reshape(4, Co, C, 9).transpose(1, 2, 0, 3).reshape(Co * C, 36)
        return (g @ _PHASE_FOLD).reshape(Co, C, 3, 3),

    return _emit(out.transpose(2, 0, 1, 3, 4).reshape(4 * Co, C, 3, 3), (w,), vjp)


def _tile_phases(b: Tensor) -> Tensor:
    """(Co,) bias -> (4*Co,), one copy per phase."""
    def vjp(g: np.ndarray):
        return g.reshape(4, -1).sum(axis=0),

    return _emit(np.tile(b.data, 4), (b,), vjp)


def _depth_to_space(y: Tensor) -> Tensor:
    """(B, 4*Co, H, W) phase maps -> (B, Co, 2H, 2W); phase (a, b) fills the
    pixels (2i+a, 2j+b)."""
    B, C4, H, W = y.shape
    Co = C4 // 4
    out = y.data.reshape(B, 2, 2, Co, H, W).transpose(0, 3, 4, 1, 5, 2)
    out = out.reshape(B, Co, 2 * H, 2 * W)

    def vjp(g: np.ndarray):
        return g.reshape(B, Co, H, 2, W, 2).transpose(0, 3, 5, 1, 2, 4).reshape(B, C4, H, W),

    return _emit(out, (y,), vjp)


def upsample_conv2d(x: Tensor, p: LayerParams) -> Tensor:
    """``conv2d(upsample_nearest2x(x), p, stride=1, pad=1)`` for a 3x3 kernel,
    run at x's resolution: one conv with the kernel folded per output phase,
    then a depth-to-space shuffle.  Folding pre-sums kernel taps, so results
    match the upsample-then-conv order to rounding, not bit for bit."""
    if p.weights.shape[2:] != (3, 3):
        raise ShapeError(f"upsample_conv2d needs a 3x3 kernel, got {p.weights.shape}")
    phases = LayerParams(_fold_phases(p.weights), _tile_phases(p.bias))
    return _depth_to_space(conv2d(x, phases, stride=1, pad=1))


def global_avg_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be (B,C,H,W), got {x.shape}")
    B, C, H, W = x.shape
    out = x.data.mean(axis=(2, 3))

    def vjp(g: np.ndarray):
        return np.broadcast_to(g[:, :, None, None] / (H * W), x.shape).copy(),

    return _emit(out, (x,), vjp)


def repeat_batch(x: Tensor, n: int) -> Tensor:
    """n copies of x stacked on the batch axis, copy-major: row k*B + b is x[b]."""
    out = np.tile(x.data, (n,) + (1,) * (x.data.ndim - 1))

    def vjp(g: np.ndarray):
        return g.reshape((n,) + x.shape).sum(axis=0),

    return _emit(out, (x,), vjp)


# ---------------------------------------------------------------------------
# losses


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"l1_loss: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    n = diff.size

    def vjp(g: np.ndarray):
        da = np.sign(diff) * (float(g) / n)
        return da, -da

    return _emit(np.asarray(np.abs(diff).mean()), (a, b), vjp)


def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mse_loss: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    n = diff.size

    def vjp(g: np.ndarray):
        da = diff * (2.0 * float(g) / n)
        return da, -da

    return _emit(np.asarray((diff * diff).mean()), (a, b), vjp)


IGNORE_VALUE = 255


def softmax_cross_entropy(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean of -log softmax(pred)[target] over non-ignored positions.

    pred is (B,K) with integer target (B,), or (B,K,H,W) with target (B,H,W).
    Positions whose target equals IGNORE_VALUE contribute neither to the loss
    nor to the gradient; if everything is ignored the loss is 0 with zero
    gradients.
    """
    target = np.asarray(target)
    if not np.issubdtype(target.dtype, np.integer):
        raise TypeError("cross-entropy target must be an integer label map")
    squeeze = pred.data.ndim == 2
    z = pred.data[:, :, None, None] if squeeze else pred.data
    t = target[:, None, None] if squeeze else target
    if z.ndim != 4:
        raise ShapeError(f"cross-entropy pred must be (B,K) or (B,K,H,W), got {pred.shape}")
    B, K, H, W = z.shape
    if t.shape != (B, H, W):
        raise ShapeError(f"cross-entropy target shape {target.shape} does not match pred {pred.shape}")

    keep = t != IGNORE_VALUE
    bad = keep & ((t < 0) | (t >= K))
    if bad.any():
        raise ValueError(
            f"cross-entropy labels outside [0,{K}) and != ignore {IGNORE_VALUE}: "
            f"{np.unique(t[bad])}"
        )
    n_kept = int(keep.sum())

    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - zmax - np.log(sez)
    tk = np.where(keep, t, 0)
    picked = np.take_along_axis(logp, tk[:, None, :, :], axis=1)[:, 0]
    loss = -(picked[keep]).sum() / n_kept if n_kept else 0.0

    def vjp(g: np.ndarray):
        if n_kept == 0:
            return np.zeros(pred.shape),
        p = ez / sez
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, tk[:, None, :, :], 1.0, axis=1)
        dz = (p - onehot) * (keep[:, None, :, :] * (float(g) / n_kept))
        return dz[:, :, 0, 0] if squeeze else dz,

    return _emit(np.asarray(loss), (pred,), vjp)


def sigmoid_bce_with_logits(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against targets in [0,1]."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"bce: target shape {t.shape} != logits shape {logits.shape}")
    z = logits.data
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def vjp(g: np.ndarray):
        sig = 1.0 / (1.0 + np.exp(-z))
        return (sig - t) * (float(g) / n),

    return _emit(np.asarray(loss.mean()), (logits,), vjp)
