import numpy as np
import pytest

from scnls import Grid
from scnls.errors import GridMismatchError
from scnls.grid import CHUNK_POINTS, cis


def l2_quadrature(grid, f):
    # independent oracle: plain rectangle-rule quadrature of |f|^2
    return np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(100, 1.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Grid(8, 1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(64, 0.0)

    def test_rejects_dim_3(self):
        with pytest.raises(ValueError):
            Grid((16, 16, 16), 1.0, dim=3)

    @pytest.mark.parametrize("n, length, dim", [
        ((16, 16), 1.0, 1), (16, (1.0, 2.0), 1), (16, (1.0, 2.0, 3.0), 2)])
    def test_rejects_axes_not_matching_dim(self, n, length, dim):
        with pytest.raises(ValueError, match="n/length do not match dim"):
            Grid(n, length, dim=dim)

    def test_2d_tensor_product(self):
        g = Grid((32, 16), (2.0, 4.0))
        assert g.dim == 2
        assert g.coords.shape == (2, 32, 16)
        assert g.cell_volume == pytest.approx((2.0 / 32) * (4.0 / 16))


class TestDerivative:
    def test_sine_single_mode(self, grid_1d):
        L = grid_1d.lengths[0]
        x = grid_1d.axes[0]
        f = np.sin(2 * np.pi * x / L).astype(complex)
        d = grid_1d.spectral_derivative(f, 0)
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.max(np.abs(d.real - expected)) < 1e-10
        assert np.max(np.abs(d.imag)) < 1e-12

    def test_constant_derivative_zero(self, grid_1d):
        f = np.full(grid_1d.shape, 3.7 + 0.1j)
        assert np.max(np.abs(grid_1d.spectral_derivative(f, 0))) < 1e-13

    def test_complex_exponential(self, grid_1d):
        L = grid_1d.lengths[0]
        x = grid_1d.axes[0]
        f = np.exp(1j * 4 * np.pi * x / L)
        d = grid_1d.spectral_derivative(f, 0)
        assert np.max(np.abs(d - 1j * (4 * np.pi / L) * f)) < 1e-12

    def test_axis_out_of_range(self, grid_1d):
        with pytest.raises(ValueError):
            grid_1d.spectral_derivative(np.zeros(grid_1d.shape), 1)

    def test_grid_mismatch(self, grid_1d):
        with pytest.raises(GridMismatchError):
            grid_1d.spectral_derivative(np.zeros(17), 0)

    def test_second_derivative_matches_laplacian(self, grid_1d):
        # band-limited field (no Nyquist content)
        rng = np.random.default_rng(7)
        fh = np.zeros(grid_1d.shape, dtype=complex)
        fh[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
        fh[-20:] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        f = grid_1d.ifft(fh)
        twice = grid_1d.spectral_derivative(
            grid_1d.spectral_derivative(f, 0), 0)
        lap = grid_1d.laplacian(f)
        scale = np.max(np.abs(lap))
        assert np.max(np.abs(twice - lap)) < 1e-10 * scale

    def test_2d_gradient_divergence(self):
        g = Grid((32, 32), 2 * np.pi)
        x, y = g.coords
        f = np.sin(x) * np.cos(2 * y)
        gx, gy = g.gradient(f)
        assert np.max(np.abs(gx.real - np.cos(x) * np.cos(2 * y))) < 1e-12
        assert np.max(np.abs(gy.real + 2 * np.sin(x) * np.sin(2 * y))) < 1e-12
        vec = np.stack([f, 2 * f])
        div = g.divergence(vec)
        expected = np.cos(x) * np.cos(2 * y) - 4 * np.sin(x) * np.sin(2 * y)
        assert np.max(np.abs(div.real - expected)) < 1e-11

    @pytest.mark.parametrize("shape", [(32, 32), (3, 32, 32), (1, 2, 32, 32)])
    def test_divergence_needs_dim_components(self, shape):
        # a scalar field, or a stack whose first axis is not the dim
        # components, is no vector field
        g = Grid((32, 32), 2 * np.pi)
        with pytest.raises(GridMismatchError, match="does not start with dim 2"):
            g.divergence(np.zeros(shape))


BATCH_OPS = {
    "fft": lambda g, f: g.fft(f),
    "ifft": lambda g, f: g.ifft(f),
    "gradient": lambda g, f: g.gradient(f),
    "laplacian": lambda g, f: g.laplacian(f),
    "dealias": lambda g, f: g.dealias(f),
    "spectral_derivative": lambda g, f: g.spectral_derivative(f, g.dim - 1),
    "integral": lambda g, f: g.integral(f),
    "l2_norm": lambda g, f: g.l2_norm(f),
    "lebesgue_norm_1": lambda g, f: g.lebesgue_norm(f, 1),
    "lebesgue_norm_3": lambda g, f: g.lebesgue_norm(f, 3),
    "lebesgue_norm_inf": lambda g, f: g.lebesgue_norm(f, np.inf),
    "sobolev_norm": lambda g, f: g.sobolev_norm(f, 1.5),
}
NORMS = {name for name in BATCH_OPS if "norm" in name}


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("shape", [(64,), (32, 16)], ids=["1d", "2d"])
class TestBatchAxes:
    """Leading axes are a batch: every transform-based operation and every
    norm equals the stack of its per-member results bit for bit, and a norm
    of a single field is a Python float."""

    @pytest.fixture
    def grid_and_fields(self, shape):
        g = Grid(shape, (2.0, 3.0)[: len(shape)])
        rng = np.random.default_rng(21)
        batch = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        vec = rng.standard_normal((g.dim, 3, *shape))
        return g, batch, vec

    @pytest.mark.parametrize("name", sorted(BATCH_OPS))
    def test_batch_equals_members(self, grid_and_fields, name):
        g, batch, vec = grid_and_fields
        op = BATCH_OPS[name]
        lead = 1 if name == "gradient" else 0  # gradient prepends the components
        for field in (batch, vec):
            out = op(g, field)
            for idx in np.ndindex(field.shape[: field.ndim - g.dim]):
                member = out[(slice(None),) * lead + idx]
                single = op(g, field[idx])
                assert bits(member) == bits(single)
                if name in NORMS:
                    assert type(single) is float

    def test_divergence_batch_equals_members(self, grid_and_fields):
        g, _, vec = grid_and_fields
        out = g.divergence(vec)
        assert out.shape == vec.shape[1:]
        for m in range(vec.shape[1]):
            assert bits(out[m]) == bits(g.divergence(vec[:, m]))

    @pytest.mark.parametrize("name", ["gradient", "laplacian", "dealias",
                                      "spectral_derivative", "divergence"])
    def test_wrong_trailing_shape_raises(self, grid_and_fields, name):
        g, *_ = grid_and_fields
        op = BATCH_OPS.get(name, lambda g, f: g.divergence(f))
        wrong = (g.dim, 3, *g.shape[:-1], g.shape[-1] // 2)
        with pytest.raises(GridMismatchError):
            op(g, np.zeros(wrong))
        with pytest.raises(GridMismatchError):  # batch axis trailing
            op(g, np.zeros((g.dim, *g.shape, 3)))


class TestHalfSpectra:
    """Real fields as rfftn half spectra: the spectral multipliers act on
    them as on full spectra, and transforms of large batches go in chunks
    with the bits of one call per member."""

    @pytest.fixture(params=[(64,), (32, 16)], ids=["1d", "2d"])
    def grid_and_real(self, request):
        g = Grid(request.param, (2.0, 3.0)[: len(request.param)])
        rng = np.random.default_rng(31)
        return g, rng.standard_normal((3, *g.shape))

    def test_shapes_and_round_trip(self, grid_and_real):
        g, f = grid_and_real
        fh = g.rfft(f)
        assert fh.shape == (3, *g.half_shape)
        assert np.max(np.abs(g.irfft(fh) - f)) < 1e-14 * np.max(np.abs(f))

    def test_multipliers_match_full_spectra(self, grid_and_real):
        g, f = grid_and_real
        fh, full = g.rfft(f), g.fft(f)
        scale = np.max(np.abs(g.gradient(f)))
        pairs = [
            (g.spectral_gradient, g.gradient(f).real),
            (g.spectral_laplacian, g.laplacian(f).real),
            (lambda h: g.project(h, g.dealias_mask), g.dealias(f).real),
        ]
        for op, expected in pairs:
            assert np.max(np.abs(g.irfft(op(fh)) - expected)) < 1e-12 * scale
            assert np.max(np.abs(g.ifft(op(full)) - expected)) < 1e-12 * scale
        jet = g.spectral_jet(fh)
        assert jet.shape == (1 + g.dim, *fh.shape)
        np.testing.assert_array_equal(jet[0], fh)
        np.testing.assert_array_equal(jet[1:], g.spectral_gradient(fh))

    @pytest.mark.parametrize("name", ["fft", "ifft", "rfft", "irfft"])
    def test_chunked_batch_equals_members(self, name):
        # 5 fields of 128x64 points pass CHUNK_POINTS, so the batch goes in
        # chunks; every member keeps the bits of its own call.  The batch's
        # result owns its data, as an unchunked one does: numpy elides a
        # large temporary only into an operand that owns its data, which
        # fixes the operand order of fft(u) * m, and so its bits
        g = Grid((128, 64), (4.0, 2.0))
        assert 5 * g.size > CHUNK_POINTS >= g.size
        rng = np.random.default_rng(32)
        real = rng.standard_normal((5, *g.shape))
        field = {"fft": real + 1j * real[::-1], "ifft": g.fft(real),
                 "rfft": real, "irfft": g.rfft(real)}[name]
        op = getattr(g, name)
        out = op(field)
        assert out.base is None and op(field[0]).base is None
        for m in range(5):
            assert bits(out[m]) == bits(op(field[m]))


class TestOneAxisTransforms:
    """Grid's transforms are numpy's one-axis transforms, one call per grid
    axis, with the bits of numpy's n-d transforms over the grid axes."""

    @pytest.mark.parametrize("shape,batch", [
        ((64,), ()), ((32, 16), ()), ((64,), (3,)), ((32, 16), (2, 3)),
        ((128, 64), (5,)),  # 5 fields pass CHUNK_POINTS: chunked
    ], ids=["1d", "2d", "1d-batch", "2d-batch", "2d-chunked"])
    def test_bitwise_numpy_nd(self, shape, batch):
        g = Grid(shape, (4.0, 2.0)[: len(shape)])
        axes = tuple(range(-g.dim, 0))
        if len(shape) == 2 and batch == (5,):
            assert 5 * g.size > CHUNK_POINTS >= g.size
        rng = np.random.default_rng(33)
        real = rng.standard_normal((*batch, *g.shape))
        field = real + 1j * rng.standard_normal(real.shape)
        half = np.fft.rfftn(real, axes=axes)
        pairs = [(g.fft(field), np.fft.fftn(field, axes=axes)),
                 (g.ifft(field), np.fft.ifftn(field, axes=axes)),
                 (g.rfft(real), np.fft.rfftn(real, axes=axes)),
                 (g.irfft(half), np.fft.irfftn(half, s=g.shape, axes=axes))]
        for got, want in pairs:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert bits(got) == bits(want)


class TestCis:
    """cis(theta) is e^(i*theta) of a real array, written as cos and sin."""

    theta = np.random.default_rng(5).uniform(-60.0, 60.0, (3, 16, 32))

    def test_matches_complex_exp(self):
        got = cis(self.theta)
        assert got.shape == self.theta.shape and got.dtype == complex
        assert np.max(np.abs(got - np.exp(1j * self.theta))) < 1e-15

    def test_unimodular(self):
        assert np.max(np.abs(np.abs(cis(self.theta)) - 1.0)) < 1e-15

    def test_fills_out(self):
        out = np.full(self.theta.shape, np.nan, complex)
        assert cis(self.theta, out) is out
        assert np.array_equal(out.real, np.cos(self.theta))
        assert np.array_equal(out.imag, np.sin(self.theta))


class TestRoundTrip:
    def test_fft_round_trip(self, grid_1d):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        back = grid_1d.ifft(grid_1d.fft(f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_real_field_stays_real(self, grid_1d):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid_1d.shape)
        back = grid_1d.ifft(grid_1d.fft(f))
        assert np.max(np.abs(back.imag)) < 1e-12 * np.max(np.abs(f))


class TestSobolevNorm:
    def test_constant_any_order(self, grid_1d):
        L = grid_1d.lengths[0]
        c = 2.5 - 1.5j
        f = np.full(grid_1d.shape, c)
        for s in (0.0, 0.5, 1.0, 3.0):
            assert grid_1d.sobolev_norm(f, s) == pytest.approx(
                abs(c) * np.sqrt(L), rel=1e-12)

    def test_single_lattice_mode(self, grid_1d):
        L = grid_1d.lengths[0]
        xi0 = 2 * np.pi * 5 / L
        f = np.exp(1j * xi0 * grid_1d.axes[0])
        for s in (0.0, 1.0, 2.5):
            expected = np.sqrt(L) * (1 + xi0**2) ** (s / 2)
            assert grid_1d.sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_h0_equals_l2_quadrature(self, grid_1d):
        rng = np.random.default_rng(11)
        fh = np.zeros(grid_1d.shape, dtype=complex)
        fh[:30] = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        f = grid_1d.ifft(fh)
        oracle = l2_quadrature(grid_1d, f)
        assert grid_1d.sobolev_norm(f, 0.0) == pytest.approx(oracle, rel=1e-10)
        assert grid_1d.l2_norm(f) == pytest.approx(oracle, rel=1e-10)

    def test_monotone_in_order(self, grid_1d):
        rng = np.random.default_rng(12)
        f = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        orders = [0.0, 0.5, 1.0, 2.0, 3.5]
        vals = [grid_1d.sobolev_norm(f, s) for s in orders]
        assert all(vals[i] <= vals[i + 1] * (1 + 1e-14) for i in range(len(vals) - 1))

    def test_spectral_input(self, grid_1d):
        rng = np.random.default_rng(13)
        f = rng.standard_normal(grid_1d.shape) + 0j
        fh = grid_1d.fft(f)
        assert grid_1d.sobolev_norm(fh, 1.5, space="spectral") == pytest.approx(
            grid_1d.sobolev_norm(f, 1.5), rel=1e-12)

    def test_negative_order_rejected(self, grid_1d):
        with pytest.raises(ValueError):
            grid_1d.sobolev_norm(np.zeros(grid_1d.shape), -1.0)

    def test_unknown_space_rejected(self, grid_1d):
        with pytest.raises(ValueError, match="unknown space 'fourier'"):
            grid_1d.sobolev_norm(np.zeros(grid_1d.shape), 1.0, space="fourier")


class TestLebesgueNorm:
    def test_constant(self, grid_1d):
        L = grid_1d.lengths[0]
        f = np.ones(grid_1d.shape)
        for sigma in (1, 2, 3):
            p = sigma + 1
            assert grid_1d.lebesgue_norm(f, p) == pytest.approx(
                L ** (1.0 / p), rel=1e-12)

    def test_zero_field(self, grid_1d):
        f = np.zeros(grid_1d.shape)
        for p in (1, 2, 3.5, np.inf):
            assert grid_1d.lebesgue_norm(f, p) == 0.0

    def test_cosine_l2_closed_form(self, grid_1d):
        # oracle: int cos^2(2 pi x/L) dx = L/2 exactly
        L = grid_1d.lengths[0]
        f = np.cos(2 * np.pi * grid_1d.axes[0] / L)
        assert grid_1d.lebesgue_norm(f, 2) == pytest.approx(
            np.sqrt(L / 2), rel=1e-10)

    def test_infinity_is_max(self, grid_1d):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(grid_1d.shape)
        assert grid_1d.lebesgue_norm(f, np.inf) == np.max(np.abs(f))

    def test_p_below_one_rejected(self, grid_1d):
        with pytest.raises(ValueError):
            grid_1d.lebesgue_norm(np.ones(grid_1d.shape), 0.5)


class TestDealias:
    def test_idempotent_and_band_preserving(self, grid_1d):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(grid_1d.shape) + 0j
        once = grid_1d.dealias(f)
        twice = grid_1d.dealias(once)
        assert np.max(np.abs(once - twice)) < 1e-14

    def test_kills_high_modes(self, grid_1d):
        n = grid_1d.shape[0]
        fh = np.zeros(grid_1d.shape, dtype=complex)
        fh[n // 2 - 1] = 1.0  # well beyond 2/3 band
        f = grid_1d.ifft(fh)
        assert np.max(np.abs(grid_1d.dealias(f))) < 1e-15

    def test_constant_untouched(self, grid_1d):
        f = np.full(grid_1d.shape, 1.23)
        assert np.max(np.abs(grid_1d.dealias(f) - f)) < 1e-14


class TestBoundaryTail:
    def test_centered_gaussian_negligible(self, grid_wide):
        x = grid_wide.axes[0]
        f = np.exp(-(x**2))
        assert grid_wide.boundary_tail_fraction(f) < 1e-12

    def test_edge_mass_detected(self, grid_wide):
        f = np.zeros(grid_wide.shape)
        f[0] = 1.0
        assert grid_wide.boundary_tail_fraction(f) == pytest.approx(1.0)

    def test_zero_field_has_no_tail(self, grid_wide):
        # no mass, no tail: 0.0, not 0/0 (the invariants of zero data)
        assert grid_wide.boundary_tail_fraction(np.zeros(grid_wide.shape)) == 0.0
