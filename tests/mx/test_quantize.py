"""Unit tests for MX encode/decode."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.mx import MX4, MX6, MX9, dequantize, quantize, quantize_blocks


class TestRoundTripShapes:
    def test_1d_exact_block(self):
        x = np.linspace(-1, 1, 16)
        assert quantize(x, MX9).shape == x.shape

    def test_1d_partial_block_preserves_shape(self):
        x = np.linspace(-1, 1, 19)
        assert quantize(x, MX9).shape == x.shape

    def test_2d_default_axis(self):
        x = np.random.default_rng(0).normal(size=(5, 40))
        assert quantize(x, MX6).shape == x.shape

    def test_2d_axis0(self):
        x = np.random.default_rng(0).normal(size=(40, 5))
        assert quantize(x, MX6, axis=0).shape == x.shape

    def test_scalar_input(self):
        assert quantize(np.float64(0.5), MX9).shape == (1,)

    def test_3d_middle_axis(self):
        x = np.random.default_rng(1).normal(size=(3, 33, 4))
        assert quantize(x, MX4, axis=1).shape == x.shape


class TestEncodedMetadata:
    def test_shared_exponent_is_block_max(self):
        x = np.array([0.25] * 15 + [8.0])  # exponents -2 and 3
        enc = quantize_blocks(x, MX9)
        assert enc.shared_exponents.ravel()[0] == 3

    def test_microexponent_set_for_small_subblocks(self):
        # First sub-block holds the max (micro=0); all others are one binade
        # or more below, so their microexponent bit must be 1.
        x = np.array([8.0, 8.0] + [0.25] * 14)
        enc = quantize_blocks(x, MX9)
        micro = enc.microexponents.ravel()
        assert micro[0] == 0
        assert np.all(micro[1:] == 1)

    def test_microexponent_zero_when_subblock_contains_max(self):
        x = np.array([1.0] * 16)
        enc = quantize_blocks(x, MX9)
        assert np.all(enc.microexponents == 0)

    def test_num_values_and_nbytes(self):
        x = np.zeros(33)
        enc = quantize_blocks(x, MX6)
        assert enc.num_values == 33
        assert enc.num_blocks == 3
        assert enc.nbytes == 3 * MX6.block_bytes

    def test_mantissas_within_format_range(self):
        x = np.random.default_rng(2).normal(size=256) * 100
        for fmt in (MX4, MX6, MX9):
            enc = quantize_blocks(x, fmt)
            assert np.all(np.abs(enc.mantissas) <= fmt.max_mantissa)


class TestValues:
    def test_zero_maps_to_zero(self):
        x = np.zeros(16)
        assert np.all(quantize(x, MX4) == 0.0)

    def test_powers_of_two_are_exact(self):
        x = np.array([1.0, 2.0, 4.0, 0.5] * 4)
        np.testing.assert_array_equal(quantize(x, MX9), x)

    def test_uniform_block_is_exact_for_representable_values(self):
        # 1.25 = 1.01b needs 3 mantissa bits -> exact in MX6/MX9, not MX4.
        x = np.full(16, 1.25)
        np.testing.assert_array_equal(quantize(x, MX9), x)
        np.testing.assert_array_equal(quantize(x, MX6), x)
        assert not np.array_equal(quantize(x, MX4), x)

    def test_error_bounded_by_one_ulp(self):
        # Sign-magnitude mantissas saturate in the top sliver of the shared
        # binade, so the hardware-faithful bound is one ULP of the block
        # scale (half a ULP away from saturation).
        rng = np.random.default_rng(3)
        x = rng.normal(size=160)
        for fmt in (MX4, MX6, MX9):
            enc = quantize_blocks(x, fmt)
            dec = dequantize(enc)
            scales = np.ldexp(
                1.0, enc.shared_exponents.astype(int) - (fmt.mantissa_bits - 1)
            )
            bound = np.repeat(scales.ravel(), fmt.block_size)[: x.size]
            assert np.all(np.abs(x - dec) <= bound + 1e-300)

    def test_error_half_ulp_away_from_saturation(self):
        # Values whose mantissa does not clamp meet the classic half-ULP
        # round-to-nearest bound.
        rng = np.random.default_rng(30)
        x = rng.uniform(-1.4, 1.4, size=160)  # stays below saturation zone
        x[::16] = 1.5  # pin every block's shared exponent to 0
        for fmt in (MX4, MX6, MX9):
            enc = quantize_blocks(x, fmt)
            dec = dequantize(enc)
            saturated = np.abs(enc.mantissas) == fmt.max_mantissa
            scales = np.ldexp(
                1.0, enc.shared_exponents.astype(int) - (fmt.mantissa_bits - 1)
            )
            err = np.abs(x - dec).reshape(enc.mantissas.shape)
            ok = err <= 0.5 * scales[..., None] + 1e-300
            assert np.all(ok | saturated)

    def test_more_mantissa_bits_never_increase_error(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=320)
        err4 = np.abs(x - quantize(x, MX4)).max()
        err6 = np.abs(x - quantize(x, MX6)).max()
        err9 = np.abs(x - quantize(x, MX9)).max()
        assert err9 <= err6 <= err4

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        np.testing.assert_allclose(quantize(-x, MX6), -quantize(x, MX6))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=64)
        once = quantize(x, MX6)
        twice = quantize(once, MX6)
        np.testing.assert_array_equal(once, twice)

    def test_tiny_values_flush_to_zero_in_wide_range_block(self):
        x = np.array([1.0] + [1e-30] * 15)
        dec = quantize(x, MX4)
        assert dec[0] == 1.0
        assert np.all(dec[1:] == 0.0)


class TestErrors:
    def test_nan_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([np.nan] * 16), MX9)

    def test_inf_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([np.inf] + [0.0] * 15), MX9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_axis0_and_float32(self, dtype, bad):
        # The NaN/Inf check rides on the kernel's frexp pass: it must fire
        # for weights blocked along axis 0 (padded and unpadded), a stacked
        # bank blocked along its middle axis, and single-precision input.
        for shape, axis, index in (
            ((16,), -1, (9,)),
            ((24, 16), 0, (17, 3)),
            ((32, 10), 0, (0, 9)),
            ((3, 24, 16), 1, (2, 23, 15)),
        ):
            x = np.zeros(shape, dtype=dtype)
            x[index] = bad
            with pytest.raises(QuantizationError):
                quantize(x, MX6, axis=axis)
            with pytest.raises(QuantizationError):
                quantize_blocks(x, MX6, axis=axis)

    def test_bad_axis_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.zeros((4, 4)), MX9, axis=2)

    def test_empty_axis_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.zeros((4, 0)), MX9)
