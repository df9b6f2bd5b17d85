"""Property-based tests (hypothesis) for MX quantization invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mx import FORMATS, MX4, MX9, dequantize, quantize, quantize_blocks
from repro.mx.formats import MIN_SHARED_EXPONENT

finite_floats = st.floats(
    min_value=-1e30,
    max_value=1e30,
    allow_nan=False,
    allow_infinity=False,
)

vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=100),
    elements=finite_floats,
)

formats = st.sampled_from(FORMATS)

#: Magnitude floor keeping every exponent comfortably above the shared-
#: exponent clamp even after scaling by the test's power-of-two factors.
#: Below ``2 ** MIN_SHARED_EXPONENT`` the 8-bit shared exponent saturates
#: and power-of-two scaling genuinely stops commuting (see
#: ``test_clamped_binade_saturates``), exactly as on the hardware.
_UNCLAMPED_MIN = 2.0 ** (MIN_SHARED_EXPONENT + 6)

unclamped_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=_UNCLAMPED_MIN, max_value=1e30),
    st.floats(min_value=-1e30, max_value=-_UNCLAMPED_MIN),
)

unclamped_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=100),
    elements=unclamped_floats,
)


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_round_trip_preserves_shape(x, fmt):
    assert quantize(x, fmt).shape == x.shape


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_quantization_is_idempotent(x, fmt):
    once = quantize(x, fmt)
    np.testing.assert_array_equal(quantize(once, fmt), once)


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_error_bounded_by_one_ulp_of_block_scale(x, fmt):
    # One ULP covers the sign-magnitude saturation sliver at the top of the
    # shared binade; non-saturating values meet half a ULP (unit test).
    enc = quantize_blocks(x, fmt)
    dec = dequantize(enc)
    scales = np.ldexp(
        1.0, enc.shared_exponents.astype(int) - (fmt.mantissa_bits - 1)
    )
    bound = np.repeat(scales.ravel(), fmt.block_size)[: x.size]
    assert np.all(np.abs(x - dec) <= bound * (1 + 1e-12) + 1e-300)


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_sign_antisymmetry(x, fmt):
    np.testing.assert_array_equal(quantize(-x, fmt), -quantize(x, fmt))


@given(vectors)
@settings(max_examples=200, deadline=None)
def test_precision_ordering(x):
    # Higher-precision formats never produce a larger max error.
    errors = [np.abs(x - quantize(x, fmt)).max() for fmt in FORMATS]
    assert errors == sorted(errors, reverse=True) or np.allclose(
        errors, sorted(errors, reverse=True)
    )


@given(unclamped_vectors, formats, st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_power_of_two_scaling_commutes(x, fmt, scale_pow):
    # Scaling inputs by a power of two scales the output identically,
    # because block exponents shift uniformly -- as long as no block
    # saturates the shared-exponent clamp (bounded by the strategy; the
    # clamped binade is pinned by test_clamped_binade_saturates below).
    factor = 2.0 ** np.floor(np.log2(scale_pow))
    lhs = quantize(x * factor, fmt)
    rhs = quantize(x, fmt) * factor
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=0)


def test_clamped_binade_saturates():
    # Regression for the property above: below 2**MIN_SHARED_EXPONENT the
    # 8-bit shared exponent clamps, the mantissa grid stops tracking the
    # input binade, and power-of-two scaling no longer commutes.  This is
    # faithful hardware saturation, not an encoder bug.
    tiny = 1.74710504e-39  # ~1.19 * 2**-129, three binades under the clamp
    x = np.array([tiny])

    for fmt in FORMATS:
        enc = quantize_blocks(x, fmt)
        # The shared exponent saturates at the clamp (the zero padding of
        # the block carries the sentinel minimum exponent as well).
        assert enc.shared_exponents.max() == MIN_SHARED_EXPONENT

    # At MX4 the clamped grid step is 2**-127: quantize(x) underflows to 0
    # while quantize(2 * x) rounds up to one step, so scaling by 2 does not
    # commute -- the exact falsifying example the unbounded property finds.
    assert quantize(x, MX4)[0] == 0.0
    assert quantize(2.0 * x, MX4)[0] != 0.0

    # Back inside the representable range the property holds again.
    safe = x * 2.0 ** 64
    np.testing.assert_array_equal(
        quantize(2.0 * safe, MX4), 2.0 * quantize(safe, MX4)
    )


#: Magnitudes that clamp the shared exponent at MIN_SHARED_EXPONENT: zeros,
#: values below ``2 ** MIN_SHARED_EXPONENT`` and subnormals.
_CLAMPED_MAX = 2.0 ** (MIN_SHARED_EXPONENT - 1)


@st.composite
def fake_quantize_cases(draw):
    """``(x, axis)`` covering every layout the fused kernel distinguishes.

    float32 and float64; 1-3 dimensions blocked along any axis (axis 0 is
    the weight layout, axis 1 of a 3-D array a stacked ``(K, in, out)``
    bank); C-contiguous, Fortran-ordered, transposed and strided views;
    magnitudes up to the dtype's max/8 (float64 reaches the 2**127 clamp);
    and optionally a leading block of zeros and subnormals whose shared
    exponent clamps at ``MIN_SHARED_EXPONENT``, with an all-zero sub-block.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    big = float(np.finfo(dtype).max) / 8
    tiny = st.floats(-_CLAMPED_MAX, _CLAMPED_MAX, width=width)
    elements = st.one_of(
        st.floats(-big, big, width=width),
        st.floats(-1e3, 1e3, width=width),
        tiny,
        st.sampled_from([0.0, -0.0]),
    )
    ndim = draw(st.integers(min_value=1, max_value=3))
    shape = draw(
        hnp.array_shapes(
            min_dims=ndim, max_dims=ndim, min_side=1,
            max_side=70 if ndim == 1 else 20,
        )
    )
    x = draw(hnp.arrays(dtype=dtype, shape=shape, elements=elements))
    axis = draw(st.integers(min_value=-ndim, max_value=ndim - 1))
    if draw(st.booleans()):
        block = draw(st.lists(tiny, min_size=16, max_size=16))
        block[:2] = [0.0, -0.0]
        n = min(16, shape[axis])
        profile = [1] * ndim
        profile[axis] = n
        index = [slice(None)] * ndim
        index[axis] = slice(0, n)
        x[tuple(index)] = np.array(block[:n], dtype=dtype).reshape(profile)
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "transposed":
        x = np.ascontiguousarray(x.T).T
    elif layout == "strided":
        host = np.zeros(tuple(2 * n for n in shape), dtype=dtype)
        view = host[(slice(None, None, 2),) * ndim]
        view[...] = x
        x = view
    return x, axis


@given(fake_quantize_cases(), formats)
@settings(max_examples=300, deadline=None)
def test_fused_quantize_matches_encode_decode_bitwise(case, fmt):
    # The fused fake-quantize must equal the explicit encode/decode path to
    # the last bit -- including the sign of zeros, which array_equal would
    # not catch (the int32 round-trip normalizes -0.0 to +0.0).
    x, axis = case
    fused = quantize(x, fmt, axis=axis)
    reference = dequantize(quantize_blocks(x, fmt, axis=axis), dtype=x.dtype)
    assert fused.dtype == x.dtype
    assert fused.shape == x.shape
    assert fused.tobytes() == reference.tobytes()


def test_fused_quantize_normalizes_negative_zero():
    # round(-0.001 / scale) produces -0.0; the fused kernel must emit +0.0
    # exactly as the old float64 -> int32 -> float64 round-trip did.
    out = quantize(np.array([-0.2, 0.0, 1.0, -3.7, -1e-3]), MX4)
    assert not np.signbit(out[np.where(out == 0.0)]).any()


@given(vectors, formats)
@settings(max_examples=200, deadline=None)
def test_zeros_stay_zero(x, fmt):
    mask = x == 0.0
    dec = quantize(x, fmt)
    assert np.all(dec[mask] == 0.0)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=40),
        ),
        elements=finite_floats,
    ),
    formats,
)
@settings(max_examples=100, deadline=None)
def test_rows_quantize_independently(x, fmt):
    # Quantizing a matrix along its last axis equals quantizing each row.
    full = quantize(x, fmt, axis=1)
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(full[i], quantize(x[i], fmt))


@given(vectors, formats)
@settings(max_examples=100, deadline=None)
def test_packed_bytes_match_format_accounting(x, fmt):
    enc = quantize_blocks(x, fmt)
    assert enc.nbytes == fmt.bytes_for(x.size)


@given(vectors)
@settings(max_examples=100, deadline=None)
def test_mx4_mantissas_fit_two_bits(x):
    enc = quantize_blocks(x, MX4)
    assert np.all(np.abs(enc.mantissas) <= 3)


@given(vectors)
@settings(max_examples=100, deadline=None)
def test_mx9_representable_round_trip_is_exact(x):
    # Anything MX9 emits must round-trip exactly through MX9 again.
    once = quantize(x, MX9)
    np.testing.assert_array_equal(quantize(once, MX9), once)
