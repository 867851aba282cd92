"""Vector substrate: orthonormal bases, incremental Gram-Schmidt, random
orthonormal frames, and uniform sampling on balls and spheres.

Vectors are plain 1-d numpy arrays. Every sampling function takes an
explicit numpy Generator, so reproducibility is controlled entirely by
the caller's stream (see streams.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Vector = np.ndarray

ORTHONORMALITY_TOL = 1e-10
# Below this perpendicular norm the normalized direction is numerically
# meaningless, so the extension is treated as degenerate.
DEGENERACY_TOL = 1e-10


def frozen(a: np.ndarray) -> np.ndarray:
    """a itself if neither a nor the array owning its memory is writable,
    else a read-only copy of a."""
    if a.flags.writeable or (isinstance(a.base, np.ndarray) and a.base.flags.writeable):
        a = a.copy()
        a.setflags(write=False)
    return a


def dot_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float64 array of any shape, bit for bit
    (NaN, inf and overflow included), without its dispatch: the square
    root of v.dot(v), v being x flattened in memory order, numpy's own
    formula."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


def vector_norm(x: np.ndarray) -> float:
    """dot_norm(x) while the sum of squares of the float64 array x stays
    finite. Past that, for a finite x, m * ||x / m|| with m the largest
    magnitude in x, which overflows only if the norm itself does. A NaN
    or infinite entry gives what np.linalg.norm gives."""
    with np.errstate(over="ignore"):
        norm = dot_norm(x)
        if norm == math.inf and np.isfinite(x).all():
            scale = np.abs(x).max()
            norm = scale * dot_norm(x / scale)
    return float(norm)


class _RowStore:
    """Append-only rows shared by a chain of extended bases.

    Each basis of the chain is a view of the first n rows. The rows are
    read-only except while append() writes the row at `used`, so rows
    below `used` never change.
    """

    def __init__(self, rows: np.ndarray, capacity: int):
        self.rows = np.empty((capacity, rows.shape[1]))
        self.rows[: len(rows)] = rows
        self.rows.setflags(write=False)
        self.used = len(rows)

    def append(self, row: np.ndarray) -> np.ndarray:
        """Write row at `used`; return a view of all rows written so far."""
        self.rows.setflags(write=True)
        self.rows[self.used] = row
        self.rows.setflags(write=False)
        self.used += 1
        return self.rows[: self.used]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Ordered orthonormal vectors, stored as the rows of an (n, d) matrix.

    Immutable after construction; extension returns a new basis. The
    matrix is copied unless it is already frozen (see frozen()), so
    bases that share rows also share memory.
    """

    matrix: np.ndarray
    _store: _RowStore | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("basis matrix must have shape (n, d)")
        object.__setattr__(self, "matrix", frozen(m))

    def extended(self, unit: Vector, capacity: int = 0) -> "OrthonormalBasis":
        """This basis with `unit` appended as its last row.

        The rows live in a store of at least `capacity` rows that further
        extensions of the result fill in place: extending the newest basis
        of a chain copies only `unit`. Extending any other basis copies its
        rows into a new store, so no basis ever sees its rows change.
        """
        unit = np.asarray(unit, dtype=float)
        _check_dim(unit, self)
        n = len(self)
        store = self._store
        if store is None or store.used != n or n == len(store.rows):
            store = _RowStore(self.matrix, max(capacity, n + 1))
        return OrthonormalBasis(store.append(unit), store)

    @classmethod
    def empty(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.zeros((0, dim)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def coords(self, x: Vector) -> Vector:
        """Coordinates of x against this basis (projection onto the span)."""
        return self.matrix @ np.asarray(x, dtype=float)

    def lift(self, coords: Vector) -> Vector:
        """Ambient vector with the given basis coordinates."""
        return self.matrix.T @ np.asarray(coords, dtype=float)

    def violations(self) -> list[str]:
        """Orthonormality defects exceeding ORTHONORMALITY_TOL (or not a
        number), as readable strings."""
        out: list[str] = []
        n = len(self)
        if n == 0:
            return out
        gram = self.matrix @ self.matrix.T
        for i in range(n):
            diag = abs(gram[i, i] - 1.0)
            if not (diag <= ORTHONORMALITY_TOL):
                out.append(f"| ||u_{i}|| - 1 | = {diag:.3e} > {ORTHONORMALITY_TOL:.1e}")
        off = gram - np.diag(np.diag(gram))
        worst = np.abs(off).max() if n > 1 else 0.0
        if not (worst <= ORTHONORMALITY_TOL):
            i, j = np.unravel_index(np.abs(off).argmax(), off.shape)
            out.append(f"|<u_{i}, u_{j}>| = {worst:.3e} > {ORTHONORMALITY_TOL:.1e}")
        if n > self.dim:
            out.append(f"count {n} exceeds dimension {self.dim}")
        return out


def _check_dim(x: np.ndarray, basis: OrthonormalBasis) -> None:
    if x.shape != (basis.dim,):
        raise ValueError(
            f"dimension mismatch: vector has shape {x.shape}, basis is {basis.dim}-dimensional"
        )


def perp_component(x: Vector, basis: OrthonormalBasis) -> Vector:
    """Component of x orthogonal to the basis span: x - sum_j <x,u_j> u_j."""
    x = np.asarray(x, dtype=float)
    _check_dim(x, basis)
    if len(basis) == 0:
        return x.copy()
    return x - basis.matrix.T @ (basis.matrix @ x)


def orthonormal_extend(
    basis: OrthonormalBasis,
    x: Vector,
    capacity: int = 0,
    coords: Vector | None = None,
) -> tuple[OrthonormalBasis, Vector | None]:
    """Append the normalized perpendicular of x, or report degeneracy.

    Returns (basis', unit), unit being the new last row of basis'; unit
    is None and the basis is unchanged when the perpendicular norm is at
    most DEGENERACY_TOL (or not a number). The projection is applied
    twice ("twice is enough") so the extended basis stays orthonormal to
    ORTHONORMALITY_TOL even in very high dimension, and even for an x
    that lies just beyond DEGENERACY_TOL off the span. coords, if given,
    are x's coordinates against the basis, one np.vecdot per row, and
    stand in for basis.coords(x) in the first projection: a caller that
    already has them saves a pass over the rows, and gets other last bits
    than without them. capacity: rows to reserve for further extensions
    (see OrthonormalBasis.extended).
    """
    if coords is None:
        p = perp_component(x, basis)
    else:
        x = np.asarray(x, dtype=float)
        _check_dim(x, basis)
        p = x - basis.lift(coords)
    if not (dot_norm(p) > DEGENERACY_TOL):
        return basis, None
    p = perp_component(p, basis)
    norm = dot_norm(p)
    if not (norm > DEGENERACY_TOL):
        return basis, None
    extended = basis.extended(p / norm, capacity)
    return extended, extended.matrix[-1]


def arbitrary_perp_unit(basis: OrthonormalBasis, rng: np.random.Generator) -> Vector:
    """Unit vector orthogonal to the basis span, drawn from rng.

    A Gaussian direction projected off the span. It is projected a second
    time only when the first projection kept less than half its norm
    (|p|^2 < |g|^2 / 4), the reorthogonalization test of Daniel, Gragg,
    Kaufman & Stewart (Math. Comp. 30, 1976) and Parlett (The Symmetric
    Eigenvalue Problem, 1980, sec. 6-9): a perpendicular that large is
    already orthogonal to the span to roundoff, one that small may not
    be. With r rows in dimension d that is about one projection while
    r <= 3d/4, two beyond.

    Deterministic given the stream position. Raises if the basis already
    spans the whole space.
    """
    if len(basis) >= basis.dim:
        raise ValueError("basis already spans the full space")
    for _ in range(16):
        g = rng.standard_normal(basis.dim)
        p = perp_component(g, basis)
        square = p @ p
        if square < (g @ g) / 4:
            p = perp_component(p, basis)
            square = p @ p
        norm = math.sqrt(square)  # np.linalg.norm(p), bit for bit
        if norm > 1e-8:
            return p / norm
    raise RuntimeError("could not draw a perpendicular direction")


def sample_sphere(
    r: int, rng: np.random.Generator, size: int | None = None, coords: int | None = None
) -> np.ndarray:
    """Uniform sample(s) on the unit sphere of R^r, or their first `coords`
    coordinates.

    A uniform point is g / |g| with g ~ N(0, I_r), so its first q
    coordinates are z / sqrt(|z|^2 + chi^2_{r-q}) with z ~ N(0, I_q): q
    normals and one chi-square draw instead of r normals. coords = r
    (the default) draws the whole point; its outputs are normalized
    exactly, so | ||v|| - 1 | is at roundoff level. Returns shape
    (coords,) for size=None, else (size, coords); the single point is the
    size=1 draw's row, bit for bit, from the same draws.
    """
    q = r if coords is None else coords
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not 1 <= q <= r:
        raise ValueError(f"coords must lie in [1, r = {r}], got {q}")
    if size is None:
        norm = 0.0
        while norm == 0.0:  # probability-zero guard
            g = rng.standard_normal(q)
            # the batch's sums: numpy's pairwise reduce, or column by column
            if q == r:
                square = np.add.reduce(g * g)
            else:
                square = rng.chisquare(r - q)
                for c in g.tolist():
                    square += c * c
            norm = math.sqrt(square)
        g /= norm
        return g
    n = int(size)

    def norms_of(g: np.ndarray) -> np.ndarray:
        if q == r:
            # np.linalg.norm(g, axis=1) without its conj() copy, bit for bit
            squares = np.add.reduce(g * g, axis=1)
        else:
            # the chi-square mass of the r - q coordinates not drawn, plus the
            # drawn ones column by column (faster than a reduce over a short
            # axis), each column squared into one reused buffer
            squares = rng.chisquare(r - q, len(g))
            buf = np.empty(len(g))
            for column in g.T:
                squares += np.multiply(column, column, out=buf)
        return np.sqrt(squares, out=squares)

    g = rng.standard_normal((n, q))
    norms = norms_of(g)
    while np.any(norms == 0.0):  # probability-zero guard
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), q))
        norms[bad] = norms_of(g[bad])
    g /= norms[:, None]
    return g


def sample_ball(
    r: int, rng: np.random.Generator, size: int | None = None, coords: int | None = None
) -> np.ndarray:
    """Uniform sample(s) in the closed unit ball of R^r, or their first
    `coords` coordinates (see sample_sphere).

    Gaussian direction times a U^(1/r) radius, which works at any r
    (no rejection); the radius keeps the exponent 1/r whatever coords
    is. Returns shape (coords,) for size=None, else (size, coords). The
    radius is raised to 1/r as an array at every size: numpy's array power
    and Python's float power differ in the last bit.
    """
    v = sample_sphere(r, rng, size=size, coords=coords)
    radii = rng.random(1 if size is None else int(size))
    radii **= 1.0 / r
    v *= radii if size is None else radii[:, None]
    return v


def random_orthonormal_basis(
    d: int, count: int, rng: np.random.Generator, explicit: int
) -> OrthonormalBasis:
    """A Haar-random orthonormal set of `count` vectors in R^d, written in
    the explicit + count coordinates of E + span, E being `explicit` fixed
    directions of R^d.

    The first `explicit` coordinates of each row are its components along
    E; they have exactly the law of the first `explicit` coordinates of
    Gram-Schmidt on a d x count Gaussian. The last `count` coordinates
    place the row in the frame's span beyond E, in an orthonormal basis of
    that span drawn with the frame. A client whose vectors are fixed
    vectors of E plus combinations of the rows can tell nothing more, so d
    enters only as a degrees-of-freedom count and memory is
    O((explicit + count) * count) at any d. With explicit = d - count the
    working space is all of R^d.

    Gram-Schmidt on the Gaussian [G_E; G_rest] depends on G_rest only
    through its R factor, whose law is Bartlett's: chi with d - explicit - i
    degrees of freedom on the diagonal, N(0, 1) above it. The rows are the
    Q factor of [G_E; R], signed so that its own R has a positive diagonal:
    [G_E L^-T; chol(I - U_E^T U_E)^T] with L = chol(G_E^T G_E + R^T R),
    computed by one Householder QR that cannot break down.
    """
    if explicit < 0 or explicit + count > d:
        raise ValueError(
            f"cannot fit {count} orthonormal vectors beside {explicit} explicit "
            f"directions in dimension {d}"
        )
    gauss = rng.standard_normal((explicit, count))
    bartlett = np.zeros((count, count))
    bartlett[np.diag_indices(count)] = np.sqrt(rng.chisquare(d - explicit - np.arange(count)))
    bartlett[np.triu_indices(count, 1)] = rng.standard_normal(count * (count - 1) // 2)
    q, r = np.linalg.qr(np.vstack([gauss, bartlett]))
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return OrthonormalBasis(q.T)
