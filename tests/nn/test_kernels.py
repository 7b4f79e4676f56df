"""Transformer kernel library: bit-exactness, modes, and twins."""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, Op
from repro.nn import (
    NN_KERNEL_NAMES,
    Layout,
    build_nn_kernel,
    gemm_kernel,
    run_nn_kernel,
    softmax_kernel,
)
from repro.nn.kernels import _ref_gemm

#: Small shapes so the whole matrix runs in seconds.
SMALL = {
    "gemm": dict(k=4, n=4),
    "softmax": dict(c=5),
    "layernorm": dict(c=5),
    "attention": dict(d_head=2, n_heads=2),
    "ffn": dict(d_model=4, d_ff=8),
}


class TestBitExactness:
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    @pytest.mark.parametrize("dtype", ["fp16", "fp64"])
    def test_kernel_matches_reference(self, name, dtype):
        comparison = run_nn_kernel(
            build_nn_kernel(name, dtype=dtype, **SMALL[name])
        )
        assert comparison.correct
        assert np.array_equal(
            comparison.output, comparison.expected, equal_nan=True
        )
        assert comparison.output.dtype == (
            np.float16 if dtype == "fp16" else np.float64
        )

    def test_gemm_matches_plain_numpy_in_fp64(self):
        """In fp64 the tiled recipe reproduces A @ B to float64
        round-off (the paged accumulation order differs from BLAS)."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((128, 6))
        b = rng.standard_normal((6, 3))
        kernel = gemm_kernel(m=128, k=6, n=3, dtype="fp64", a=a, b=b)
        comparison = run_nn_kernel(kernel)
        assert comparison.correct
        np.testing.assert_allclose(
            comparison.output, a @ b, rtol=1e-12, atol=1e-12
        )

    def test_softmax_rows_sum_to_about_one(self):
        comparison = run_nn_kernel(softmax_kernel(c=7, dtype="fp16"))
        sums = comparison.output.astype(np.float64).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=2e-2)

    def test_fp16_and_fp64_outputs_differ(self):
        outputs = {
            dtype: run_nn_kernel(
                build_nn_kernel("gemm", dtype=dtype, k=8, n=4)
            ).output.astype(np.float64)
            for dtype in ("fp16", "fp64")
        }
        err = np.abs(outputs["fp16"] - outputs["fp64"]).max()
        assert 0.0 < err < 0.05


def _ref_gemm_per_column(a_tiles, b, np_dtype):
    """Oracle: one output column, one k-step, one small op at a time."""
    t_count, k_count, units, lanes = a_tiles.shape
    n = b.shape[1]
    out = np.zeros((t_count, n, units, lanes), dtype=np_dtype)
    for t in range(t_count):
        for j in range(n):
            acc = np.zeros((units, lanes), dtype=np_dtype)
            for k in range(k_count):
                acc = acc + a_tiles[t, k] * np.full(
                    lanes, b[k, j], dtype=np_dtype
                )
            out[t, j] = acc
    return out


class TestReferenceGemm:
    """The k-step-at-a-time GEMM reference equals the per-column loop."""

    @pytest.mark.parametrize("dtype", ["fp16", "fp64"])
    def test_matches_per_column_loop_with_special_values(self, dtype):
        np_dtype = np.dtype(np.float16 if dtype == "fp16" else np.float64)
        rng = np.random.default_rng(11)
        # magnitudes wide enough to overflow binary16 products (inf),
        # then inf - inf and 0 * inf (NaN), plus subnormal operands and
        # products that underflow into the subnormal range
        specials = np.array(
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 2.0**-24, -(2.0**-20),
             2.0**-15, 1e-3, -1e-3, 65504.0, 300.0]
        )
        a = rng.standard_normal((2, 6, 4, 16)) * 40.0
        b = rng.standard_normal((6, 5)) * 40.0
        # tile 1 x column 4: every product lands in the subnormal range
        a[1] *= 2.5e-6
        b[:, 4] *= 2.5e-4
        a.flat[rng.choice(a.size, 120, replace=False)] = rng.choice(
            specials, 120
        )
        head = b[:, :4]
        head.flat[rng.choice(head.size, 8, replace=False)] = rng.choice(
            specials, 8
        )
        a, b = a.astype(np_dtype), b.astype(np_dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _ref_gemm(a, b, np_dtype)
            want = _ref_gemm_per_column(a, b, np_dtype)
        assert got.dtype == want.dtype == np_dtype
        assert got.tobytes() == want.tobytes()
        # the inputs really exercise the special cases
        assert np.isnan(got).any() and np.isinf(got).any()
        if dtype == "fp16":
            tiny = np.finfo(np.float16).smallest_normal
            assert ((got != 0) & (np.abs(got) < tiny)).any()


class TestBankGroups:
    @pytest.mark.parametrize("name", ["gemm", "softmax", "ffn"])
    def test_bank_group_mode_is_bit_identical_but_slower(self, name):
        shape = dict(SMALL[name])
        # pin the row count so both modes solve the same problem
        shape["m" if name in ("gemm", "softmax") else "seq_len"] = 128
        per_bank = run_nn_kernel(
            build_nn_kernel(name, dtype="fp16", **shape)
        )
        grouped = run_nn_kernel(
            build_nn_kernel(
                name, dtype="fp16", bank_groups=True, **shape
            )
        )
        assert per_bank.correct and grouped.correct
        assert np.array_equal(
            per_bank.output, grouped.output, equal_nan=True
        )
        assert grouped.pim.n_pim > per_bank.pim.n_pim
        assert grouped.pim.makespan_ns > per_bank.pim.makespan_ns

    def test_layout_halves_units_in_group_mode(self):
        config = MemSysConfig()
        per_bank = Layout(config)
        grouped = Layout(config, bank_groups=True)
        assert grouped.units == per_bank.units // 2
        assert grouped.rows_per_tile == per_bank.rows_per_tile // 2
        assert grouped.data_bank(1) == 2  # unit 1 -> even bank 2


class TestLayout:
    def test_tiles_untile_round_trip_with_padding(self):
        layout = Layout(MemSysConfig())
        matrix = np.arange(150.0 * 3).reshape(150, 3)
        tiles = layout.tiles(matrix)
        assert tiles.shape[0] == 2  # 150 rows pad to 2 x 128
        assert np.array_equal(layout.untile(tiles, 150), matrix)
        # padding is zeros
        assert float(np.abs(tiles[1, :, :, :]).sum()) == float(
            np.abs(matrix[128:]).sum()
        )

    def test_capacity_guard(self):
        layout = Layout(MemSysConfig())
        with pytest.raises(ValueError, match="slots per bank"):
            layout.check_capacity(layout.capacity_slots + 1)


class TestTwinsAndValidation:
    def test_host_twin_moves_every_logical_operand(self):
        kernel = gemm_kernel(m=128, k=4, n=4, dtype="fp16")
        twin = kernel.host_trace()
        lanes = Layout(kernel.config).lanes
        reads = sum(1 for r in twin if r.op is Op.READ)
        writes = sum(1 for r in twin if r.op is Op.WRITE)
        assert reads == (128 * 4) // lanes + -(-(4 * 4) // lanes)
        assert writes == (128 * 4) // lanes

    def test_unknown_kernel_name(self):
        with pytest.raises(KeyError, match="available"):
            build_nn_kernel("conv2d")

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            gemm_kernel(dtype="bf16")

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            gemm_kernel(k=0)
        with pytest.raises(ValueError):
            softmax_kernel(c=0)

    def test_explicit_operands_must_match_shape(self):
        with pytest.raises(ValueError, match="shape"):
            gemm_kernel(m=8, k=2, n=2, a=np.zeros((3, 3)))

    def test_composed_attention_chains_through_bank_state(self):
        """The second GEMM must consume the softmax-normalized score
        pages, not stale ones: corrupting a score page after softmax
        would break bit-exactness, so exactness here proves the
        chain."""
        comparison = run_nn_kernel(
            build_nn_kernel("attention", dtype="fp16", **SMALL["attention"])
        )
        assert comparison.correct
        assert comparison.output.shape == (128, 4)  # seq x d_model
