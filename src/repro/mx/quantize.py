"""FP32 <-> MX conversion, following the paper's Figure 6 step by step.

Encoding a block of 16 values:

1. Take each value's binary exponent (``floor(log2 |v|)``).
2. The *shared exponent* ``E`` is the maximum exponent in the block, clamped
   to the 8-bit range.
3. For each sub-block of 2 values, the *microexponent* bit is set when every
   exponent in the sub-block is strictly below ``E``; the sub-block is then
   scaled one binade lower (``E - 1``), recovering one mantissa bit.
4. Mantissas are quantized to ``m`` magnitude bits (round-to-nearest-even,
   saturating) against the sub-block scale ``2 ** (E_sub - m + 1)``.

Decoding multiplies the integer mantissa back by its sub-block scale.  Both
directions are exact integer/power-of-two arithmetic, so encode->decode is a
pure function of the input bits -- there is no hidden floating-point fuzz
beyond the quantization itself.

:func:`quantize_blocks` and :func:`dequantize` are the reference: they
follow the steps above literally on a ``(*lead, blocks, block_size)`` layout.

:func:`quantize` (fake quantization, the learning substrate's hot path) is
a fused encode+decode that is bit-identical to
``dequantize(quantize_blocks(...))``: every arithmetic step is the same
power-of-two scaling in the same order, with no integer round-trip.  The
learning substrate calls it tens of thousands of times per cell on blocks
of a few hundred values, so its cost is the number of numpy calls, not
arithmetic.  The kernel is laid out to make few, cheap calls:

1. Layout.  The values are viewed in place as ``(sub-blocks, sub-block
   size, trailing)``: the blocking axis need not be last, so a C-contiguous
   input with no partial block is never copied or transposed.  A partial
   block is zero-padded in one copy with the blocking axis moved last, and
   a non-contiguous input is copied in its own memory order.  The result
   is a view of that working array, sliced to drop the padding and with
   its axes permuted back.
2. Exponents.  One ``frexp`` gives every exponent (``floor(log2 |v|) + 1``,
   exact for subnormals too); zeros get the minimum.  The ``+1`` offset is
   kept throughout and undone by the scale base ``2 ** -m``.  The frexp
   mantissa doubles as the NaN/Inf check: its sum is finite exactly when
   every input is.
3. Sub-block maxima with ``np.maximum`` of the 2-wide sub-block's element
   slices.  A numpy reduction over a 2-wide axis runs its inner loop once
   per pair, which cost several times the elementwise call; only the block
   maximum (over the sub-block maxima) is a reduction.
4. The 8-bit clamp of the shared exponent as an in-place
   ``maximum``/``minimum`` pair, then the microexponent compare, then one
   ``ldexp`` for the sub-block scales.  When the blocking axis is
   innermost the scales are repeated to element width, so the divide and
   multiply run contiguous instead of broadcasting over pairs.
5. Divide, round-to-nearest-even, saturate, normalize ``-0.0``, multiply:
   in place, in the buffer ``frexp`` allocated for the mantissas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.mx.formats import (
    MAX_SHARED_EXPONENT,
    MIN_SHARED_EXPONENT,
    MXFormat,
)
from repro.numeric import ensure_float

__all__ = ["MXTensor", "quantize_blocks", "dequantize", "quantize"]


@dataclass(frozen=True)
class MXTensor:
    """A tensor encoded in an MX format.

    The payload is stored unpacked for simulation convenience (one numpy
    element per field) but :attr:`nbytes` reports the packed hardware size.

    Attributes:
        fmt: The MX format this tensor is encoded in.
        mantissas: Signed integer mantissas, shape ``(*lead, blocks, block_size)``.
        shared_exponents: Per-block shared exponents, shape ``(*lead, blocks)``.
        microexponents: Per-sub-block 0/1 bits, shape
            ``(*lead, blocks, subblocks_per_block)``.
        shape: Logical (unpadded) shape of the original tensor.
        axis: The axis of ``shape`` along which blocks were formed.
    """

    fmt: MXFormat
    mantissas: np.ndarray
    shared_exponents: np.ndarray
    microexponents: np.ndarray
    shape: tuple[int, ...]
    axis: int

    @property
    def num_values(self) -> int:
        """Number of logical (unpadded) values represented."""
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def num_blocks(self) -> int:
        """Number of hardware blocks, padding included."""
        return int(np.prod(self.shared_exponents.shape))

    @property
    def nbytes(self) -> int:
        """Packed storage size in bytes, as laid out by the memory interface."""
        return self.num_blocks * self.fmt.block_bytes


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise QuantizationError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def _binary_exponents(values: np.ndarray) -> np.ndarray:
    """Per-element ``floor(log2 |v|)``, with zeros mapped to the minimum.

    Uses ``frexp`` (``|v| = f * 2**e`` with ``f`` in ``[0.5, 1)``), so the
    binary exponent is exactly ``e - 1`` without log-precision concerns.
    """
    _, exp = np.frexp(values)
    exponents = exp.astype(np.int32, copy=False)
    exponents -= 1
    exponents[values == 0.0] = MIN_SHARED_EXPONENT
    return exponents


def _prepare_blocks(
    values: np.ndarray, fmt: MXFormat, axis: int
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Validate input and reshape it into the block layout.

    Dtype-polymorphic: float32 and float64 inputs keep their dtype through
    the whole encode (non-float inputs are cast to float64 as before);
    every downstream scale is built in the operand dtype, so a float32
    block never silently upcasts to float64 mid-kernel.

    Returns ``(arr, axis, grouped, length)`` where ``grouped`` has shape
    ``(*lead, blocks, block_size)`` (zero-padded along the final block) and
    ``length`` is the unpadded extent along the blocking axis.
    """
    arr = ensure_float(values)
    if arr.size and not np.isfinite(arr).all():
        raise QuantizationError("MX cannot encode NaN or Inf values")
    if arr.ndim == 0:
        arr = arr.reshape(1)
    axis = _normalize_axis(axis, arr.ndim)
    moved = arr if axis == arr.ndim - 1 else np.moveaxis(arr, axis, -1)
    length = moved.shape[-1]
    if length == 0:
        raise QuantizationError("cannot quantize along an empty axis")

    blocks = -(-length // fmt.block_size)
    padded_len = blocks * fmt.block_size
    if padded_len != length:
        padded = np.zeros(
            (*moved.shape[:-1], padded_len), dtype=arr.dtype
        )
        padded[..., :length] = moved
        moved = padded
    grouped = moved.reshape(*moved.shape[:-1], blocks, fmt.block_size)
    return arr, axis, grouped, length


def _encode_core(
    grouped: np.ndarray,
    fmt: MXFormat,
    rounding: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-pass block encode on the grouped layout.

    Returns ``(quantized, scales, shared, micro)`` where ``quantized`` holds
    the rounded, saturated mantissa *values* as float64 in the sub-block
    layout ``(*lead, blocks, subblocks, subblock_size)`` and ``scales`` are
    the per-sub-block power-of-two scales.  ``quantized`` is freshly
    allocated, so callers may mutate it in place.
    """
    exponents = _binary_exponents(grouped)
    shared = exponents.max(axis=-1)
    shared = np.clip(shared, MIN_SHARED_EXPONENT, MAX_SHARED_EXPONENT)
    shared = shared.astype(np.int32, copy=False)

    sub_shape = (*grouped.shape[:-1], fmt.subblocks_per_block, fmt.subblock_size)
    sub_exponents = exponents.reshape(sub_shape)
    sub_max = sub_exponents.max(axis=-1)
    micro = (sub_max < shared[..., None]).astype(np.uint8)

    # Effective sub-block exponent: one binade lower when the microexponent
    # bit is set, which is what buys back a bit of precision (Figure 6).
    scale_exp = shared[..., None] - micro.astype(np.int32)
    scale_exp -= fmt.mantissa_bits - 1
    # Scales in the operand dtype (powers of two are exact in either), so
    # a float32 encode stays float32 end to end instead of upcasting here.
    scales = np.ldexp(grouped.dtype.type(1.0), scale_exp)

    scaled = grouped.reshape(sub_shape) / scales[..., None]
    if rounding == "nearest":
        quantized = np.round(scaled, out=scaled)
    elif rounding == "stochastic":
        if rng is None:
            raise QuantizationError(
                "stochastic rounding requires an rng argument"
            )
        floor = np.floor(scaled)
        quantized = floor + (rng.random(scaled.shape) < (scaled - floor))
    else:
        raise QuantizationError(
            f"unknown rounding mode {rounding!r}; "
            "expected 'nearest' or 'stochastic'"
        )
    limit = float(fmt.max_mantissa)
    # clip == minimum(maximum(x, lo), hi); the two in-place ufunc calls skip
    # np.clip's scalar-bound promotion machinery on this hot path.
    np.maximum(quantized, -limit, out=quantized)
    np.minimum(quantized, limit, out=quantized)
    return quantized, scales, shared, micro


def quantize_blocks(
    values: np.ndarray,
    fmt: MXFormat,
    axis: int = -1,
    rounding: str = "nearest",
    rng: np.random.Generator | None = None,
) -> MXTensor:
    """Encode ``values`` into an :class:`MXTensor`.

    Args:
        values: Real-valued array.  NaN/Inf are rejected, mirroring the
            hardware which has no encodings for them.
        fmt: Target MX format.
        axis: Axis along which 16-value blocks are formed (address-adjacency
            axis).  A trailing partial block is zero-padded.
        rounding: ``"nearest"`` (round-to-nearest-even, the default) or
            ``"stochastic"`` (FAST-style stochastic rounding, unbiased in
            expectation -- useful for low-precision training studies).
        rng: Randomness source, required for stochastic rounding.

    Returns:
        The encoded tensor.

    Raises:
        QuantizationError: On non-finite input, an empty axis, or an
            unknown rounding mode.
    """
    arr, axis, grouped, _ = _prepare_blocks(values, fmt, axis)
    quantized, _, shared, micro = _encode_core(grouped, fmt, rounding, rng)
    mantissas = quantized.reshape(grouped.shape).astype(np.int32)

    return MXTensor(
        fmt=fmt,
        mantissas=mantissas,
        shared_exponents=shared,
        microexponents=micro,
        shape=arr.shape,
        axis=axis,
    )


def dequantize(tensor: MXTensor, dtype: np.dtype = np.float64) -> np.ndarray:
    """Decode an :class:`MXTensor` to ``dtype``, dropping block padding.

    Every representable MX value (mantissa magnitude < 2**8 times a power
    of two) is exact in float32 and float64 alike, so decoding to either
    dtype yields the same real numbers.
    """
    fmt = tensor.fmt
    dtype = np.dtype(dtype)
    effective = tensor.shared_exponents[..., None] - tensor.microexponents.astype(
        np.int32
    )
    scale_exp = effective - (fmt.mantissa_bits - 1)
    scales = np.ldexp(dtype.type(1.0), scale_exp)
    sub_shape = (
        *tensor.mantissas.shape[:-1],
        fmt.subblocks_per_block,
        fmt.subblock_size,
    )
    sub_mantissas = tensor.mantissas.reshape(sub_shape).astype(dtype)
    decoded = (sub_mantissas * scales[..., None]).reshape(tensor.mantissas.shape)

    flat = decoded.reshape(*decoded.shape[:-2], -1)
    length = tensor.shape[tensor.axis] if tensor.shape else 1
    flat = flat[..., :length]
    moved_shape = list(tensor.shape)
    moved_shape.append(moved_shape.pop(tensor.axis))
    flat = flat.reshape(moved_shape)
    return np.moveaxis(flat, -1, tensor.axis)


def quantize(values: np.ndarray, fmt: MXFormat, axis: int = -1) -> np.ndarray:
    """Fake-quantize: encode to ``fmt`` and immediately decode.

    This is the workhorse used by the learning substrate to expose MX
    precision effects to the proxy models without carrying packed tensors
    around.  The result is bit-identical to
    ``dequantize(quantize_blocks(values, fmt, axis))``, down to the sign of
    zeros; the module docstring lists the kernel's steps.
    """
    arr = ensure_float(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    ndim = arr.ndim
    axis = _normalize_axis(axis, ndim)
    length = arr.shape[axis]
    if length == 0:
        raise QuantizationError("cannot quantize along an empty axis")
    blocks = -(-length // fmt.block_size)
    padded_len = blocks * fmt.block_size

    # ``work`` is a C-contiguous array holding ``arr`` with its axes permuted
    # by ``order`` (None: not permuted); ``pos`` is the blocking axis in it.
    order = None
    if padded_len != length:
        # Zero-pad in a copy with the blocking axis last.
        if axis != ndim - 1:
            order = (*range(axis), *range(axis + 1, ndim), axis)
            arr = arr.transpose(order)
        work = np.zeros((*arr.shape[:-1], padded_len), dtype=arr.dtype)
        work[..., :length] = arr
        pos = ndim - 1
    elif arr.flags.c_contiguous:
        work = arr
        pos = axis
    else:
        # Compute in the input's memory order, so the result keeps its layout.
        strides = arr.strides
        order = tuple(sorted(range(ndim), key=lambda i: -abs(strides[i])))
        work = np.ascontiguousarray(arr.transpose(order))
        pos = order.index(axis)
    shape = work.shape
    subblocks = fmt.subblocks_per_block
    size = fmt.subblock_size
    post = math.prod(shape[pos + 1:])
    nsub = math.prod(shape[:pos]) * blocks * subblocks
    grouped = work.reshape(nsub, size, post)

    # frexp exponents are floor(log2 |v|) + 1; every exponent below stays
    # offset by that +1 (zeros included), which the scale base undoes.
    mantissas, exps = np.frexp(grouped)
    # |mantissa| < 1 for finite input, so the sum is finite unless a value
    # is NaN or Inf (frexp passes those through as the mantissa).
    if not math.isfinite(mantissas.sum()):
        raise QuantizationError("MX cannot encode NaN or Inf values")
    exps[mantissas == 0.0] = MIN_SHARED_EXPONENT + 1
    sub_max = exps[:, 0]
    if size > 1:
        sub_max = np.maximum(sub_max, exps[:, 1])
        for k in range(2, size):
            np.maximum(sub_max, exps[:, k], out=sub_max)
    sub_max = sub_max.reshape(nsub // subblocks, subblocks, post)
    shared = np.maximum.reduce(sub_max, axis=1, keepdims=True)
    np.maximum(shared, MIN_SHARED_EXPONENT + 1, out=shared)
    np.minimum(shared, MAX_SHARED_EXPONENT + 1, out=shared)
    # Microexponent bit set: the sub-block scales one binade lower.
    scale_exp = shared - (sub_max < shared)
    scales = np.ldexp(
        grouped.dtype.type(0.5**fmt.mantissa_bits),
        scale_exp.reshape(nsub, 1, post),
    )
    if size > 1 and post == 1:
        # Broadcasting over the innermost sub-block axis would run numpy's
        # inner loop once per pair; a repeated scale runs contiguous.
        scales = scales.repeat(size, axis=1)

    # The mantissas are spent: their buffer takes the result.
    quantized = np.divide(grouped, scales, out=mantissas)
    np.rint(quantized, out=quantized)
    limit = float(fmt.max_mantissa)
    # clip == minimum(maximum(x, lo), hi); the two in-place ufunc calls skip
    # np.clip's scalar-bound promotion machinery on this hot path.
    np.maximum(quantized, -limit, out=quantized)
    np.minimum(quantized, limit, out=quantized)
    # The reference's integer cast normalizes negative zeros (round(-0.1) ->
    # -0.0 -> int32 0 -> +0.0); adding +0.0 reproduces that exactly
    # (IEEE-754: -0.0 + 0.0 == +0.0, every other finite value is unchanged).
    np.add(quantized, 0.0, out=quantized)
    np.multiply(quantized, scales, out=quantized)

    out = quantized.reshape(shape)
    if padded_len != length:
        out = out[..., :length]
    if order is None:
        return out
    return out.transpose(sorted(range(ndim), key=order.__getitem__))
