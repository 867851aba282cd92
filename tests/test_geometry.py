import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resistor.geometry import (
    DEGENERACY_TOL,
    ORTHONORMALITY_TOL,
    OrthonormalBasis,
    arbitrary_perp_unit,
    dot_norm,
    orthonormal_extend,
    perp_component,
    random_orthonormal_basis,
    sample_ball,
    sample_sphere,
)
from resistor.streams import stream

from conftest import full_ball, full_sphere, unit


def basis_of(*rows):
    return OrthonormalBasis(np.vstack(rows))


class TestPerpComponent:
    def test_canonical_projection(self):
        out = perp_component(np.array([1.0, 1.0, 0.0]), basis_of(unit(3, 0)))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_in_span_gives_zero(self):
        out = perp_component(np.array([0.5, 0.0, 0.0]), basis_of(unit(3, 0)))
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_empty_basis_is_identity(self):
        x = np.array([0.3, 0.4, 0.5])
        out = perp_component(x, OrthonormalBasis.empty(3))
        np.testing.assert_array_equal(out, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            perp_component(np.ones(4), basis_of(unit(3, 0)))


class TestOrthonormalExtend:
    def test_gram_schmidt_step(self):
        basis, u = orthonormal_extend(basis_of(unit(3, 0)), np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        assert u is not None
        np.testing.assert_allclose(u, [0.0, 1.0, 0.0], atol=1e-12)
        assert len(basis) == 2

    def test_in_span_is_degenerate(self):
        start = basis_of(unit(3, 0))
        basis, u = orthonormal_extend(start, np.array([0.5, 0.0, 0.0]))
        assert u is None
        assert basis is start

    def test_empty_basis_normalizes(self):
        basis, u = orthonormal_extend(OrthonormalBasis.empty(3), np.array([0.0, 3.0, 0.0]))
        np.testing.assert_allclose(u, [0.0, 1.0, 0.0], atol=1e-15)
        assert len(basis) == 1

    @given(st.floats(min_value=1e-14, max_value=1e-6), st.floats(-1.0, 1.0))
    @settings(max_examples=60)
    def test_degeneracy_band(self, eps, along):
        # Extended only above the tolerance, Degenerate only below twice it.
        basis = basis_of(unit(3, 0))
        x = along * unit(3, 0) + eps * unit(3, 1)
        _, u = orthonormal_extend(basis, x)
        if u is not None:
            assert eps > 1e-10
        else:
            assert eps <= 2e-10


class TestArbitraryPerpUnit:
    def test_unique_perpendicular_line(self):
        basis = basis_of(unit(3, 0), unit(3, 1))
        v = arbitrary_perp_unit(basis, stream(1, "t"))
        assert abs(abs(v[2]) - 1.0) < 1e-12

    def test_empty_basis_unit_norm(self):
        v = arbitrary_perp_unit(OrthonormalBasis.empty(2), stream(2, "t"))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_seeded_reproducibility(self):
        basis = basis_of(unit(3, 0))
        v1 = arbitrary_perp_unit(basis, stream(7, "t"))
        v2 = arbitrary_perp_unit(basis, stream(7, "t"))
        np.testing.assert_array_equal(v1, v2)
        assert abs(np.dot(v1, unit(3, 0))) < 1e-12
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-12

    def test_full_span_errors(self):
        basis = basis_of(unit(2, 0), unit(2, 1))
        with pytest.raises(ValueError, match="spans"):
            arbitrary_perp_unit(basis, stream(0, "t"))


class TestSampleBall:
    def test_support(self):
        for r in (1, 2, 5):
            v = sample_ball(r, stream(0, "ball", r), size=2000)
            assert np.all(np.linalg.norm(v, axis=1) <= 1.0)

    def test_r1_mean_abs(self):
        # |v| for v uniform on [-1, 1]: mean 1/2, variance 1/12
        n = 100_000
        v = sample_ball(1, stream(1, "ball"), size=n)
        sigma = np.sqrt(1.0 / 12.0 / n)
        assert abs(np.abs(v).mean() - 0.5) <= 3 * sigma

    def test_r3_mean_norm(self):
        # E||v|| = r/(r+1) = 3/4; E||v||^2 = r/(r+2) = 3/5
        n = 100_000
        v = sample_ball(3, stream(2, "ball"), size=n)
        sigma = np.sqrt((3.0 / 5.0 - 9.0 / 16.0) / n)
        assert abs(np.linalg.norm(v, axis=1).mean() - 0.75) <= 3 * sigma

    def test_scalar_shape(self):
        assert sample_ball(4, stream(3, "ball")).shape == (4,)


class TestSampleSphere:
    def test_r1_two_point(self):
        n = 10_000
        v = sample_sphere(1, stream(0, "sph"), size=n)[:, 0]
        assert set(np.unique(v)) == {-1.0, 1.0}
        freq = (v > 0).mean()
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_r2_mean_vector_small(self):
        v = sample_sphere(2, stream(1, "sph"), size=100_000)
        assert np.linalg.norm(v.mean(axis=0)) <= 0.02

    def test_unit_norm(self):
        v = sample_sphere(6, stream(2, "sph"), size=500)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_full_coords_is_the_full_sampler_bit_for_bit(seed, r, n):
    # coords = r (or left out) draws all r coordinates, exactly as the
    # reference samplers do, consuming the stream the same way
    ref_rng, rng, default_rng = (stream(seed, "full") for _ in range(3))
    sphere = full_sphere(r, ref_rng, n)
    assert sample_sphere(r, rng, size=n, coords=r).tobytes() == sphere.tobytes()
    assert sample_sphere(r, default_rng, size=n).tobytes() == sphere.tobytes()
    ball = full_ball(r, ref_rng, n)
    assert sample_ball(r, rng, size=n, coords=r).tobytes() == ball.tobytes()
    assert sample_ball(r, default_rng, size=n).tobytes() == ball.tobytes()
    assert rng.random() == ref_rng.random() == default_rng.random()


def reference_sphere(r, rng, size=None, coords=None):
    """sample_sphere with its allocating arithmetic: a fresh array for
    each column square and for the square root."""
    q = r if coords is None else coords
    n = 1 if size is None else int(size)

    def norms_of(g):
        if q == r:
            return np.sqrt(np.add.reduce(g * g, axis=1))
        squares = rng.chisquare(r - q, len(g))
        for column in g.T:
            squares += column * column
        return np.sqrt(squares)

    g = rng.standard_normal((n, q))
    norms = norms_of(g)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), q))
        norms[bad] = norms_of(g[bad])
    g /= norms[:, None]
    return g[0] if size is None else g


def reference_ball(r, rng, size=None, coords=None):
    """sample_ball with an out-of-place power for the radius."""
    n = 1 if size is None else int(size)
    v = reference_sphere(r, rng, size=n, coords=coords)
    v *= (rng.random(n) ** (1.0 / r))[:, None]
    return v[0] if size is None else v


@st.composite
def sampler_args(draw):
    r = draw(st.integers(1, 12))
    coords = draw(st.one_of(st.none(), st.integers(1, r)))
    size = draw(st.one_of(st.none(), st.integers(1, 3000)))
    return r, coords, size


@given(st.integers(0, 2**32 - 1), sampler_args())
@example(0, (1, None, 3000))
@example(1, (2, 1, 3000))
@example(2, (2, None, None))
@settings(max_examples=80, deadline=None)
def test_in_place_samplers_match_the_reference_bit_for_bit(seed, args):
    # the reused buffers, in-place square root and in-place radius power
    # change no bit and no stream use; r = 1 and 2 take numpy's fast
    # paths for the exponents 1 and 1/2
    r, coords, size = args
    ref_rng, rng = stream(seed, "ref", r), stream(seed, "ref", r)
    sphere = reference_sphere(r, ref_rng, size, coords)
    assert sample_sphere(r, rng, size=size, coords=coords).tobytes() == sphere.tobytes()
    ball = reference_ball(r, ref_rng, size, coords)
    assert sample_ball(r, rng, size=size, coords=coords).tobytes() == ball.tobytes()
    assert rng.random() == ref_rng.random()


@st.composite
def single_point_args(draw):
    r = draw(st.integers(1, 400))
    return r, draw(st.one_of(st.none(), st.integers(1, r)))


@given(st.integers(0, 2**32 - 1), single_point_args())
@example(0, (1, None))
@example(1, (51, 3))
@settings(max_examples=80, deadline=None)
def test_single_point_is_the_size_one_draw_bit_for_bit(seed, args):
    # size=None draws one point without the (1, r) batch: the bits of the
    # size=1 draw's row, and the stream left where that draw leaves it
    r, coords = args
    for sampler in (sample_sphere, sample_ball):
        batch_rng, single_rng = stream(seed, "single", r), stream(seed, "single", r)
        batch = sampler(r, batch_rng, size=1, coords=coords)
        point = sampler(r, single_rng, coords=coords)
        assert point.shape == batch.shape[1:] and point.tobytes() == batch[0].tobytes()
        assert single_rng.random() == batch_rng.random()


@pytest.mark.parametrize("r, q", [(9, 2), (3, 2), (6, 1)])
def test_projected_law_matches_full_sampler(r, q):
    # 5000 draws each way: the coords = q form against the first q
    # coordinates of full r-dimensional draws, two-sample KS on every
    # coordinate and on the squared norm, for the sphere and the ball (the
    # ball's squared norm carries its U^(1/r) radius)
    n = 5000
    full_rng, rng = stream(1, "full", 10 * r + q), stream(1, "projected", 10 * r + q)
    pairs = [
        (full_sphere(r, full_rng, n)[:, :q], sample_sphere(r, rng, size=n, coords=q)),
        (full_ball(r, full_rng, n)[:, :q], sample_ball(r, rng, size=n, coords=q)),
    ]
    pvalues = []
    for full, projected in pairs:
        assert projected.shape == (n, q)
        for j in range(q):
            pvalues.append(ks_pvalue(full[:, j], projected[:, j]))
        pvalues.append(ks_pvalue((full * full).sum(axis=1), (projected * projected).sum(axis=1)))
    assert min(pvalues) > 1e-3, pvalues


def test_projected_shapes_and_support():
    assert sample_sphere(5, stream(0, "s"), coords=2).shape == (2,)
    assert sample_ball(5, stream(0, "b"), coords=3).shape == (3,)
    v = sample_sphere(5, stream(1, "s"), size=2000, coords=2)
    assert np.all(np.linalg.norm(v, axis=1) <= 1.0)
    for coords in (0, 6):
        with pytest.raises(ValueError, match="coords must lie in"):
            sample_sphere(5, stream(0, "s"), coords=coords)


def reference_basis(d, count, rng):
    """dense_basis as a chain of orthonormal_extend calls, a degenerate
    draw being redrawn."""
    basis = OrthonormalBasis.empty(d)
    while len(basis) < count:
        basis, _ = orthonormal_extend(basis, rng.standard_normal(d), capacity=count)
    return basis


def dense_basis(d, count, rng):
    """Gram-Schmidt on i.i.d. Gaussian vectors of R^d: the small-d law
    reference for random_orthonormal_basis.

    Built in place in one (count, d) array plus one d-sized scratch
    vector: row n is drawn into its slot, projected twice against the
    rows above it and normalized, with the same operations on the same
    operands as a chain of orthonormal_extend calls, so the result is
    bit-identical to reference_basis on the same stream.
    """
    rows = np.empty((count, d))
    scratch = np.empty(d)
    n = 0
    while n < count:
        row, prev = rows[n], rows[:n]
        rng.standard_normal(out=row)
        for _ in range(2):
            if n:
                np.matmul(prev.T, prev @ row, out=scratch)
                np.subtract(row, scratch, out=row)
            norm = np.linalg.norm(row)
            if not (norm > DEGENERACY_TOL):
                # probability zero for a Gaussian draw: redraw into this row
                break
        else:
            np.divide(row, norm, out=row)
            n += 1
    rows.setflags(write=False)
    return OrthonormalBasis(rows)


class SpanDraw:
    """Generator whose second draw is twice the first, so it lies in the
    span of the first row and must be redrawn."""

    def __init__(self, seed):
        self.rng = stream(seed, "span-draw")
        self.draws = []

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size if out is None else out.shape)
        if len(self.draws) == 1:
            g = 2.0 * self.draws[0]
        self.draws.append(g)
        if out is None:
            return g
        out[...] = g
        return out


def ks_pvalue(a, b):
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.abs(
        np.searchsorted(a, grid, side="right") / len(a)
        - np.searchsorted(b, grid, side="right") / len(b)
    ).max()
    n = len(a) * len(b) / (len(a) + len(b))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * gap
    terms = [(-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101)]
    return min(1.0, max(0.0, 2.0 * sum(terms)))


def frame_statistics(rows, explicit):
    """Per-frame statistics that the two constructions share in law: two
    explicit-block entries, the explicit block's squared Frobenius norm,
    and rotation-invariant statistics of the rest (two Gram entries)."""
    block, rest = rows[:, :explicit], rows[:, explicit:]
    gram = rest @ rest.T
    return block[0, 0], block[-1, -1], float((block * block).sum()), gram[0, 1], gram[-1, -1]


count_and_dim = st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 300)))


@st.composite
def frame_sizes(draw):
    """(d, count, explicit) with count <= 400, explicit <= count + 1 and
    explicit + count <= d <= 10^12, small d included."""
    count = draw(st.integers(1, 400))
    explicit = draw(st.integers(0, count + 1))
    low = explicit + count
    d = draw(st.one_of(st.integers(low, low + 10), st.integers(low, 10**12)))
    return d, count, explicit


class TestRandomOrthonormalBasis:
    @given(st.integers(0, 2**32 - 1), count_and_dim)
    @settings(max_examples=60, deadline=None)
    def test_bits_match_extend_chain(self, seed, sizes):
        count, d = sizes
        basis = dense_basis(d, count, stream(seed, "basis"))
        reference = reference_basis(d, count, stream(seed, "basis"))
        assert basis.matrix.tobytes() == reference.matrix.tobytes()

    def test_bits_match_extend_chain_high_dim(self):
        d, count = 200_000, 9
        basis = dense_basis(d, count, stream(5, "basis"))
        reference = reference_basis(d, count, stream(5, "basis"))
        assert basis.matrix.tobytes() == reference.matrix.tobytes()
        assert basis.violations() == []

    def test_draw_in_span_is_redrawn(self):
        d, count = 50, 4
        rng = SpanDraw(3)
        basis = dense_basis(d, count, rng)
        reference = reference_basis(d, count, SpanDraw(3))
        assert len(rng.draws) == count + 1
        assert basis.matrix.tobytes() == reference.matrix.tobytes()
        assert basis.violations() == []

    @given(st.integers(0, 2**32 - 1), frame_sizes())
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_at_any_size(self, seed, sizes):
        d, count, explicit = sizes
        basis = random_orthonormal_basis(d, count, stream(seed, "basis"), explicit)
        assert basis.matrix.shape == (count, explicit + count)
        assert not basis.matrix.flags.writeable
        assert basis.violations() == []

    @pytest.mark.parametrize("d, count, explicit", [(10, 3, -1), (10, 3, 8), (2, 3, 0)])
    def test_refuses_sizes_that_do_not_fit(self, d, count, explicit):
        with pytest.raises(
            ValueError,
            match=f"cannot fit {count} orthonormal vectors beside {explicit} "
            f"explicit directions in dimension {d}",
        ):
            random_orthonormal_basis(d, count, stream(0, "b"), explicit)

    def test_law_matches_dense_reference(self):
        # d = 40, 4 explicit directions, 3 vectors: 5000 frames each way
        d, count, explicit, n = 40, 3, 4, 5000
        dense_rng, rng = stream(1, "dense"), stream(1, "frame")
        dense = np.array([frame_statistics(dense_basis(d, count, dense_rng).matrix, explicit) for _ in range(n)])
        drawn = np.array([
            frame_statistics(random_orthonormal_basis(d, count, rng, explicit).matrix, explicit)
            for _ in range(n)
        ])
        pvalues = [ks_pvalue(dense[:, j], drawn[:, j]) for j in range(dense.shape[1])]
        assert min(pvalues) > 1e-3, pvalues

    def test_peak_memory_is_independent_of_d(self):
        count, explicit = 9, 10
        peaks = []
        for d in (explicit + count, 10**12):
            rng = stream(2, "basis")
            tracemalloc.start()
            try:
                basis = random_orthonormal_basis(d, count, rng, explicit)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(basis) == count
            peaks.append(peak)
        assert max(peaks) <= 16 * (explicit + count) * count * 8, peaks

    def test_gram_identity(self):
        basis = random_orthonormal_basis(4, 2, stream(0, "b"), 2)
        gram = basis.matrix @ basis.matrix.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_inner_product_concentration(self):
        # |<a_1, e_1>| for a random unit vector in d=1000 concentrates at
        # scale 1/sqrt(d); 0.15 is 4.7 sigma out. e_1 is the one explicit
        # direction, the first coordinate.
        hits = 0
        for s in range(1000):
            basis = random_orthonormal_basis(1000, 1, stream(s, "conc"), 1)
            if abs(basis.matrix[0, 0]) < 0.15:
                hits += 1
        assert hits >= 990

    def test_determinism(self):
        b1 = random_orthonormal_basis(8, 3, stream(9, "b"), 3)
        b2 = random_orthonormal_basis(8, 3, stream(9, "b"), 3)
        np.testing.assert_array_equal(b1.matrix, b2.matrix)

    def test_d_smaller_than_count_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            random_orthonormal_basis(2, 3, stream(0, "b"), 0)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4))
@settings(max_examples=40)
def test_perp_inner_products_tiny(seed, d, n):
    # Invariant: residual inner products stay within 10x ORTHONORMALITY_TOL.
    rng = stream(seed, "prop")
    basis = random_orthonormal_basis(d, min(n, d), rng, d - min(n, d))
    x = rng.standard_normal(d)
    p = perp_component(x, basis)
    if len(basis):
        assert np.max(np.abs(basis.matrix @ p)) <= 10 * ORTHONORMALITY_TOL * max(1.0, np.linalg.norm(x))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_sampling_pure_in_stream(seed):
    a = sample_ball(3, stream(seed, "pure"), size=5)
    b = sample_ball(3, stream(seed, "pure"), size=5)
    np.testing.assert_array_equal(a, b)


# Entries that stress the sum of squares: NaN, infinities, subnormals
# (whose squares underflow) and magnitudes whose squares overflow.
_EDGE_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e155, -1e200, 1.7e308])


@given(arrays(np.float64, st.integers(0, 2000), elements=st.one_of(st.floats(), _EDGE_ENTRIES)))
@example(np.array([]))
@example(np.array([1e200, 1e200]))
@example(np.array([math.inf, math.nan]))
@example(np.full(1000, 5e-324))
@settings(max_examples=200, deadline=None)
def test_dot_norm_is_numpys_norm_bit_for_bit(v):
    # the same value and bits as np.linalg.norm, NaN included, also on a
    # reversed and a strided view and on a Fortran-ordered 2-d copy
    views = [v, v[::-1], v[::3]]
    if len(v) % 2 == 0:
        views.append(np.asfortranarray(v.reshape(2, -1)))
    with np.errstate(all="ignore"):
        for w in views:
            got, want = dot_norm(w), np.linalg.norm(w)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()
