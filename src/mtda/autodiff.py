"""Dense float64 tensors with a tape-based reverse-mode backward pass.

Everything the transfer and task networks need lives here: convolution,
a nearest 2x upsample fused with the 3x3 convolution after it,
fully-connected, instance normalization, ReLU, the loss functions, and a
handful of structural ops (concat/slice on channels and on the batch axis,
nearest upsampling, channel-wise affine modulation, global average pooling,
batch tiling).
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

Tensors are NCHW at every op boundary, and ``conv2d`` never leaves that
layout.  It lowers its input along the width only, as MEC does (Cho & Brand,
*MEC: Memory-efficient Convolution for Deep Neural Network*, ICML 2017), and
K-major: row (c, j) and column (q, x) of an image's lowered matrix hold
padded pixel (q, x + j) of channel c, so every row is a run of an input row,
gathered with a few slice copies, and the zero padding is written once per
call.  Kernel row i is then one GEMM, (Co, kw*C) @ (kw*C, Ho*Wo), over the
columns from i*Wo on, which lands in the image's NCHW output; the kh
products are summed and the bias is added in place.  For a 3x3 kernel that
gathers a third of im2col's matrix, for the same FLOPs.  At strides above 1
a row spans the whole window, as in im2col.  Columns are gathered and
multiplied a few images at a time, so a chunk is still in cache for its
GEMMs.  Backward lowers ``x`` again for ``dw``, so the tape keeps no lowered
matrix, and takes ``db`` from ``g``, each only when needed.  ``dx`` is a
transposed convolution at stride 1: ``g``, padded, lowered the same way
against the flipped kernel.  At larger strides, where that would mostly
multiply zeros, ``w.T @ g`` is added back onto the pixels each lowered value
came from.  Neither ``x``, ``g`` nor ``dx`` is ever transposed.

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
import functools
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


# Bytes of K-major lowered matrix gathered per chunk of images: a chunk stays in
# a core's cache from its gather through its kernel-row GEMMs instead of making a
# round trip through memory.  Half a MiB measured faster than 1 MiB on most calls.
_COL_CHUNK_BYTES = 1 << 19


@functools.lru_cache(maxsize=256)
def _taps(H: int, W: int, kh: int, kw: int, stride: int, pad_h: int, pad_w: int,
          ho: int, wo: int):
    """``(u, nq, copies)``: how to lower NCHW images of H x W pixels, zero-padded
    by pad_h rows and pad_w columns (a negative pad crops), for a kh x kw
    kernel with ho x wo outputs.

    The lowering is K-major: row (c, r, j) and column (q, x) of an image's
    matrix hold padded pixel (q*s + r, x*s + j) of channel c.  A row spans u
    kernel rows, 1 at stride 1 and kh above (where the lowering is im2col),
    and an image has nq column groups of wo.  Each copy
    ``(r, j, cols_q, cols_x, rows_src, cols_src)`` moves the in-range pixels
    of rows (., r, j); the rest stay zero."""
    u = 1 if stride == 1 else kh
    nq = ho + kh - u

    def span(r: int, pad: int, size: int, n: int) -> tuple[slice, slice] | None:
        lo, hi = max(0, -((r - pad) // stride)), min(n, -((r - pad - size) // stride))
        start = lo * stride + r - pad
        return (slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)
                ) if lo < hi else None

    copies = []
    for r, j in itertools.product(range(u), range(kw)):
        q, x = span(r, pad_h, H, nq), span(j, pad_w, W, wo)
        if q and x:
            copies.append((r, j, q[0], x[0], q[1], x[1]))
    return u, nq, tuple(copies)


def _lowered(x: np.ndarray, kh: int, kw: int, stride: int, pad_h: int, pad_w: int,
             ho: int, wo: int):
    """Yield ``(b0, low)`` for each chunk of images from b0 on: their lowered
    matrices as :func:`_taps` lays them out, (n, C*u*kw, nq*wo).  One buffer
    serves every chunk, so a chunk is valid only until the next is yielded."""
    B, C, H, W = x.shape
    u, nq, copies = _taps(H, W, kh, kw, stride, pad_h, pad_w, ho, wo)
    per = max(1, min(B, _COL_CHUNK_BYTES // (8 * C * u * kw * nq * wo)))
    low = np.zeros((per, C, u, kw, nq, wo))  # the padding stays zero in every chunk
    for b0 in range(0, B, per):
        n = min(per, B - b0)
        for r, j, q, xs, rows_src, cols_src in copies:
            low[:n, :, r, j, q, xs] = x[b0 : b0 + n, :, rows_src, cols_src]
        yield b0, low[:n].reshape(n, C * u * kw, nq * wo)


def _lowered_gemm(x: np.ndarray, w: np.ndarray, stride: int, pad_h: int, pad_w: int,
                  out: np.ndarray) -> None:
    """Write into the NCHW array ``out`` the correlation of the NCHW array
    ``x``, padded as in :func:`_taps`, with the (Co, C, kh, kw) kernel ``w``.
    Per chunk of images, kernel row block i is one GEMM per image,
    (Co, C*u*kw) @ (C*u*kw, ho*wo), over the lowered columns from i*wo on."""
    co, C, kh, kw = w.shape
    ho, wo = out.shape[2:]
    u = 1 if stride == 1 else kh
    wrows = w.reshape(co, C, kh // u, u * kw).transpose(2, 0, 1, 3).reshape(kh // u, co, -1)
    for b0, low in _lowered(x, kh, kw, stride, pad_h, pad_w, ho, wo):
        dst = out[b0 : b0 + len(low)].reshape(len(low), co, ho * wo)
        np.matmul(wrows[0], low[:, :, : ho * wo], out=dst)
        for i in range(1, kh // u):
            dst += wrows[i] @ low[:, :, i * wo : i * wo + ho * wo]


def _lowered_dw(x: np.ndarray, g: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> np.ndarray:
    """The (Co, C, kh, kw) kernel gradient of the conv of the NCHW array ``x``
    whose output gradient is the NCHW array ``g``.  x is lowered again, chunk
    by chunk, so the tape keeps no lowered matrix; kernel row block i is
    (C*u*kw, ho*wo) @ (ho*wo, Co) per image, over the lowered columns from
    i*wo on, summed over images."""
    B, co, ho, wo = g.shape
    C = x.shape[1]
    u = 1 if stride == 1 else kh
    gt = g.reshape(B, co, ho * wo).transpose(0, 2, 1)[:, None]
    dw = 0.0
    for b0, low in _lowered(x, kh, kw, stride, pad, pad, ho, wo):
        n, k = low.shape[:2]
        blocks = as_strided(low, (n, kh // u, k, ho * wo),
                            (low.strides[0], wo * low.strides[2], *low.strides[1:]))
        dw = dw + (blocks @ gt[b0 : b0 + n]).sum(axis=0)
    return dw.reshape(kh // u, C, u, kw, co).transpose(4, 1, 0, 2, 3).reshape(co, C, kh, kw)


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
    # the arrays, not the tensors: a step between two backwards rebinds w.data
    xd, wd = x.data, w.data
    tape = _active_tape()
    need_dx, need_dw, need_db = (
        t.requires_grad or (tape is not None and t._tape == tape._id) for t in (x, w, b))
    out = np.empty((B, Co, Ho, Wo))
    _lowered_gemm(xd, wd, stride, pad, pad, out)
    out += b.data[:, None, None]

    def vjp(g: np.ndarray):
        db = g.sum(axis=(0, 2, 3)) if need_db else None
        dw = _lowered_dw(xd, g, kh, kw, stride, pad) if need_dw else None
        if not need_dx:
            return None, dw, db
        if stride == 1:
            # transposed convolution: g padded by k-1-pad, correlated with the
            # flipped kernel
            dx = np.empty((B, C, H, W))
            w_flip = wd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            _lowered_gemm(g, w_flip, 1, kh - 1 - pad, kw - 1 - pad, dx)
        else:
            # a strided transposed convolution would multiply mostly zeros; add
            # each lowered gradient back onto the pixel it was gathered from
            _, _, copies = _taps(H, W, kh, kw, stride, pad, pad, Ho, Wo)
            dlow = (wd.reshape(Co, -1).T @ g.reshape(B, Co, Ho * Wo)).reshape(
                B, C, kh, kw, Ho, Wo)
            dx = np.zeros((B, C, H, W))
            for r, j, q, xs, rows_src, cols_src in copies:
                dx[:, :, rows_src, cols_src] += dlow[:, :, r, j, q, xs]
        return dx, dw, db

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
    ``v / (v + NORM_EPS)`` for an input channel of variance ``v``.

    The variance is taken of the centred values (two passes), and each
    spatial sum, of x, (x - m)^2, g and g*y, is one ``einsum`` row reduction:
    no squared or product temporary, and numpy's own loop, whose rounding does
    not depend on the BLAS thread count as a threaded BLAS dot's does."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm input must be (B,C,H,W), got {x.shape}")
    B, C, H, W = x.shape
    n = H * W
    x2 = x.data.reshape(B * C, n)
    y = x2 - (np.einsum("ij->i", x2) / n)[:, None]
    istd = (1.0 / np.sqrt(np.einsum("ij,ij->i", y, y) / n + NORM_EPS))[:, None]
    y *= istd

    def vjp(g: np.ndarray):
        g2 = g.reshape(B * C, n)
        dx = y * -(np.einsum("ij,ij->i", g2, y) / n)[:, None]
        dx += g2
        dx -= (np.einsum("ij->i", g2) / n)[:, None]
        dx *= istd
        return dx.reshape(x.shape),

    return _emit(y.reshape(x.shape), (x,), vjp)


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


def concat_batch(parts: list[Tensor]) -> Tensor:
    """The tensors stacked on the batch axis, in order."""
    if not parts:
        raise ValueError("concat_batch needs at least one tensor")
    base = parts[0].shape
    for t in parts[1:]:
        if t.data.ndim != len(base) or t.shape[1:] != base[1:]:
            raise ShapeError(f"concat_batch: {t.shape} incompatible with {base}")
    out = np.concatenate([t.data for t in parts])
    splits = np.cumsum([t.shape[0] for t in parts])[:-1]

    def vjp(g: np.ndarray):
        return tuple(np.split(g, splits))

    return _emit(out, tuple(parts), vjp)


def slice_batch(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start .. stop-1 of x."""
    if x.data.ndim < 1 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_batch [{start}:{stop}] out of range for shape {x.shape}")
    out = x.data[start:stop].copy()

    def vjp(g: np.ndarray):
        dx = np.zeros(x.shape)
        dx[start:stop] = g
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
    """n copies of x stacked on the batch axis, copy-major: row k*B + b is x[b].
    One copy is a read-only view of x's array, not a copy."""
    out = np.broadcast_to(x.data, (n,) + x.shape).reshape((n * x.shape[0],) + x.shape[1:])

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
