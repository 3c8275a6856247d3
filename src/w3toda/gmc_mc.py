"""Monte Carlo layer: half-plane Gaussian field, chaos masses, correlators.

Desk-scale probabilistic checks of the exact layer.  The two-component free
field lives on a finite point set: the mollified covariance is factored once
per call, in float64, by LAPACK ``dpotrf``, and the factor is shared across
replicas.  The interaction masses are grid quadratures of the renormalized
exponential field against the insertion-dependent shift weights; the
zero-mode integral factorizes over the two fundamental-weight directions and
is evaluated by Gauss-Legendre quadrature on an adaptively grown window
whose tail increment is reported, together with the quadrature error (the
change under a doubled node count, on the first sampling block).  Boundary
arcs left without grid points by the exclusion radius are reported as well.

The sampling path runs in single precision, from the triangular product up
to the per-replica masses.  Each block draws float64 standard normals and
casts them once to float32, so every replica is the float64 stream's
realization moved only by rounding.  BLAS ``strmm`` multiplies them in
place by a float32 copy of the factor; ``exponentials`` exponentiates that
buffer in place (it depends on gamma and the grids only); and ``sgemm``
applies the insertion-dependent weights of every mass to it in one call.
Each mass model holds an (n, keys) weight matrix, so the fusion probe, which
rebinds the weights of every ladder rung up front, reads every key of every
rung from each block with that one call; it streams the blocks once and
holds one block at a time whatever the replica count.  The masses are
returned in float64, and all that follows them runs in float64: the
zero-mode integral, the windows, the means and stderrs, and the mass
expectations (``expected_masses``, from the same weight matrix).  The layer
reports its own rounding error: ``sampling_rel_error`` is the largest
relative gap, over every mass key, between the float32 masses of the first
block's first ``_PROBE_DRAWS`` draws and the same draws' masses taken in
float64 (the float64 factor through ``dtrmm``, then ``exp`` and ``dgemm``).
float32 ``exp`` overflows above 88.72 (float64's limit is 709.78); a
non-finite mass raises, naming gamma, rho and the block's largest exponent.

``_pooled_masses`` is the one pooling loop, over a sequence of models.  From
pooled masses to a value there is one path, ``_zero_mode_estimate``: the
correlator estimate and every fusion rung go through it for their windows,
quadrature error, mean and stderr.

Every dense linear-algebra call of this module (the factorization, the
triangular products, the mass sums and the zero-mode quadrature sums) goes
through ``scipy.linalg``'s BLAS and LAPACK, never numpy's ``@`` or
``np.linalg``.  numpy and scipy each bundle their own OpenBLAS, each with
its own thread pool whose workers keep spinning after a call; on a small
host, every switch from one library to the other makes the next threaded
call share a CPU with the other library's spinning workers.  scipy is
loaded on the first GMC call, not when this module is imported: each
function that calls into it imports it itself.  Nothing else in the
package uses scipy, and loading it (about 110 modules and 30 MB) took most
of the start-up of a process that imports every layer but runs only the
exact ones.  After the first call each of those imports is a
``sys.modules`` lookup of about a microsecond.

Replicas come in antithetic pairs: every sampled field phi is followed by
its mirror -phi, which has the same law, needs no new normals and no
triangular product, and whose exponentials are the reciprocals of the
draw's.  A pair's two replicas are correlated, distinct pairs are not, so
the stderr of the value and of every mass is taken from the pair means
(``_paired_mean_stderr``), never from the correlated replicas themselves.

Conventions, fixed here and used consistently throughout:

* covariance ``E <u, X(x)> <v, X(y)> = <u, v> G(x, y)`` with
  ``G(x, y) = Ghat(x, y) + Ghat(x, conj y)`` and
  ``Ghat(x, y) = ln 1/|x - y| + ln max(|x|, 1) + ln max(|y|, 1)``;
  mollification replaces every kernel entry by its exact expectation under
  independent Gaussian jitters of scale ``rho`` at each argument (closed
  form through the exponential integral), which keeps the matrix a true
  covariance at every ``rho`` and leaves separations beyond a few ``rho``
  untouched;
* the closed-form zero-measure correlator pairs the insertion charges over
  the doubled list (bulk points, their conjugates, then boundary points):
  each unordered pair contributes ``|zeta_k - zeta_l| ** (-inner/2)`` of the
  listed weights, so a boundary pair carries half the naive exponent while
  a merging bulk pair still shows the full one (two doubled pairs share
  each modulus);
* the chaos-mass weights exponentiate the pairing of ``gamma e_i`` (half of
  it on the boundary) against the shifted background: the full listed
  weight at every doubled point, plus the background ``|x|_+`` decay that
  the shift of the global field produces;
* insertions are expected inside the closed unit disk, where their own
  ``|zeta_k|_+`` normalization factors degenerate to one.

Field draws are organized in fixed blocks of 512: block ``b`` of seed
``S`` draws from ``default_rng([S, b])`` and gives 1,024 replicas, its 512
draws and then their mirrors.  Any replica can be replayed
deterministically, and partial runs merge by summing the moments of their
pair means.  ``replicas`` always counts field evaluations, draws and
mirrors alike; for an odd count the last draw has no mirror.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import (
    E1,
    E2,
    OMEGA1,
    OMEGA2,
    AlgebraError,
    CartanVector,
    inner,
)
from .free_field import CorrelatorConfig, doubled_insertions
from .hyp_numeric import legendre_rule

BLOCK = 512
MAX_GRID = 4096
_SQRT3 = math.sqrt(3.0)
_QUAD_NODES = 128
_ZERO_MODE_CHUNK = 4096             # replicas per zero-mode buffer pass
_EXP_UNDERFLOW = -745.2             # exp(x) rounds to exactly 0.0 below this
_EXP_OVERFLOW = math.log(sys.float_info.max)    # and overflows above this
_COV_ROWS = 128                     # rows per block of mollified_covariance
_PROBE_DRAWS = 32                   # draws of the float64 rounding probe
_EXP32_OVERFLOW = math.log(float(np.finfo(np.float32).max))     # 88.72

_FRAME = (E1, E1 + 2 * E2)          # orthogonal frame, norms sqrt(2), sqrt(6)
_FRAME_NORM = (math.sqrt(2.0), math.sqrt(6.0))


def frame_coefficients(u: CartanVector) -> tuple:
    """Coefficients of <u, X> over the two independent scalar components."""
    return tuple(float(inner(u, f)) / n for f, n in zip(_FRAME, _FRAME_NORM))


_ROOT_COEFFS = (frame_coefficients(E1), frame_coefficients(E2))


def _doubled_floats(cfg: CorrelatorConfig) -> tuple:
    """Doubled positions as complex floats with their listed charge weights."""
    pts, wts = [], []
    for z, alpha in doubled_insertions(cfg):
        pts.append(complex(z))
        wts.append(alpha)
    return np.asarray(pts, dtype=complex), tuple(wts)


# ---------------------------------------------------------------------------
# Gaussian field on a finite point set
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329
_CIRCLE_NODES = 64
# exp1 underflows to exactly 0.0 from about 738.53 on
_EXP1_ZERO = 740.0


def _smoothed_log(d2: np.ndarray, tau: float) -> np.ndarray:
    """E[-ln|d + Z|] for complex Gaussian Z with E|Z|^2 = tau^2: the exact
    Gaussian smoothing of the log kernel, -ln d - E1(d^2/tau^2)/2, finite
    at zero.  E1 is evaluated only where it does not underflow, which at
    separations of a few tau is a small share of the entries; the result
    is built in one buffer."""
    from scipy.special import exp1
    d2 = np.asarray(d2, dtype=float)
    pos = d2 > 0
    out = np.where(pos, d2, 1.0)
    # the cutoff is applied to d2, not d2 / tau^2, so it may move by an ulp;
    # exp1 is exactly 0.0 on both sides of it
    near = out < _EXP1_ZERO * (tau * tau)
    e1 = out[near] / (tau * tau)
    np.log(out, out=out)
    out *= -0.5
    exp1(e1, out=e1)
    e1 *= 0.5
    out[near] -= e1
    out[~pos] = 0.5 * (_EULER_GAMMA - 2.0 * math.log(tau))
    return out


def _smoothed_log_plus(p: np.ndarray, rho: float) -> np.ndarray:
    """Mollification of ln max(|x|, 1) at jitter scale rho: the function is
    the log-potential of the uniform unit-circle measure, so its smoothing
    is the circle average of the smoothed log kernel."""
    theta = 2 * math.pi * (np.arange(_CIRCLE_NODES) + 0.5) / _CIRCLE_NODES
    circle = np.exp(1j * theta)
    d2 = np.abs(p[:, None] - circle[None, :]) ** 2
    tau = math.sqrt(2.0) * rho          # one jitter: E|U|^2 = 2 rho^2
    return -_smoothed_log(d2, tau).mean(axis=1)


def mollified_covariance(points, rho: float) -> np.ndarray:
    """Covariance matrix of one scalar component of the rho-mollified field
    on the given points.

    Every ingredient is the exact expectation of the unmollified kernel
    over independent Gaussian jitters of the two arguments, so the matrix
    is a true covariance (positive semi-definite up to grid degeneracy):
    pair terms carry jitter variance 2 rho^2 per point (tau = 2 rho), the
    one-point plus-parts a single jitter (tau = sqrt(2) rho), and at
    separations beyond a few rho everything reduces to the unsmoothed
    kernel exponentially fast.

    Every term is symmetric in its two points bit for bit, so only the
    lower triangle is computed, in blocks of ``_COV_ROWS`` rows (each up to
    and including its diagonal block), and each block is copied into the
    upper triangle as it is done."""
    p = np.asarray(points, dtype=complex)
    tau = 2.0 * rho
    lplus = _smoothed_log_plus(p, rho)
    cov = np.empty((p.size, p.size))
    for lo in range(0, p.size, _COV_ROWS):
        hi = min(lo + _COV_ROWS, p.size)
        rows, cols = p[lo:hi, None], p[None, :hi]
        block = cov[lo:hi, :hi]
        block[...] = _smoothed_log(_abs2(rows - cols), tau)
        block += _smoothed_log(_abs2(rows - np.conj(cols)), tau)
        plus = np.add(lplus[lo:hi, None], lplus[None, :hi])
        plus *= 2.0
        block += plus
        cov[:lo, lo:hi] = block[:, :lo].T
    return cov


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2, squared in place: one float buffer instead of two."""
    out = np.abs(z)
    out **= 2
    return out


class GffEnsemble:
    """Covariance factorization of one grid, shared by all replicas.

    LAPACK ``dpotrf`` factors the covariance in place, in float64, and the
    dense covariance survives only as that factor.  ``chol`` is the float32
    copy of the lower factor that every ``sample_block`` multiplies by,
    Fortran-ordered so that ``strmm`` takes it without a copy (n^2 * 4
    bytes, 3.2 MB on the benchmark grids of about 900 points).  The float64
    factor, ``dpotrf``'s own output, is kept only for the float64 reference
    draws of ``sample_block``; ``cov_diag`` is the covariance diagonal."""

    def __init__(self, points, rho: float):
        from scipy.linalg.lapack import dpotrf
        pts = np.asarray(list(points), dtype=complex)
        if pts.size == 0:
            raise AlgebraError("field sampling needs at least one point")
        if pts.size > MAX_GRID:
            raise AlgebraError(
                f"grid has {pts.size} points, over the dense factorization "
                f"budget of {MAX_GRID}")
        if not rho > 0:
            raise AlgebraError("mollification radius must be positive")
        self.points = pts
        self.rho = float(rho)
        cov = mollified_covariance(pts, self.rho)
        self.cov_diag = cov.diagonal().copy()
        # cov is symmetric, so its Fortran-ordered transpose is the same
        # matrix and LAPACK factors it in place
        factor, info = dpotrf(cov.T, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise AlgebraError(
                "covariance is not positive semi-definite after "
                f"mollification; radius {rho} is too small for the grid "
                f"spacing (dpotrf info {info})")
        self.chol = factor.astype(np.float32, order="F")
        self._factor = factor

    @property
    def n(self) -> int:
        return self.points.size

    def sample_block(self, seed: int, block: int,
                     reference: np.ndarray | None = None) -> np.ndarray:
        """Field draws [block*BLOCK, (block+1)*BLOCK) of the seed's stream
        as a float32 array (2, n, BLOCK).

        The block's float64 normals (n, 2*BLOCK) come from
        ``default_rng([seed, block])`` and are cast once to float32; column
        ``r`` is field ``r`` of component 0 and column ``BLOCK + r`` field
        ``r`` of component 1.  ``strmm`` multiplies that buffer by ``chol``
        in place, and the result is a (2, n, BLOCK) view of it.

        ``reference``, if given, is a float64 array (2, n, k) that receives
        the float64 fields of the block's first k draws: the same float64
        normals times the float64 factor, through ``dtrmm``."""
        from scipy.linalg.blas import dtrmm, strmm
        rng = np.random.default_rng([int(seed), int(block)])
        normals = rng.standard_normal((self.n, 2 * BLOCK))
        if reference is not None:
            k = reference.shape[2]
            first = normals.reshape(self.n, 2, BLOCK)[:, :, :k]
            reference[...] = _lower_product(
                dtrmm, self._factor, first.reshape(self.n, 2 * k))
        return _lower_product(strmm, self.chol, normals.astype(np.float32))


def _lower_product(trmm, factor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``factor @ z`` in place, for a Fortran-ordered lower-triangular
    factor and a C-ordered z of shape (n, 2m): BLAS ``trmm`` forms
    ``z.T @ factor.T`` on z's Fortran-ordered transpose, so neither operand
    is copied.  Returns the (2, n, m) view (component, point, draw)."""
    n, m = z.shape[0], z.shape[1] // 2
    mixed = trmm(1.0, factor, z.T, side=1, lower=1, trans_a=1,
                 overwrite_b=1).T
    return mixed.reshape(n, 2, m).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Closed-form zero-measure correlator value
# ---------------------------------------------------------------------------

def coulomb_value(cfg: CorrelatorConfig) -> float:
    """Zero-measure correlator: the Gaussian pairing of the insertion
    charges, as the product over unordered doubled pairs of
    ``|zeta_k - zeta_l| ** (-inner(w_k, w_l) / 2)``."""
    pts, wts = _doubled_floats(cfg)
    log_value = 0.0
    for k in range(len(pts)):
        for l in range(k + 1, len(pts)):
            e = -0.5 * float(inner(wts[k], wts[l]))
            if e:
                log_value += e * math.log(abs(pts[k] - pts[l]))
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# Quadrature grids over the truncated domains
# ---------------------------------------------------------------------------

# Midpoint lattices: bulk over [-_EXTENT, _EXTENT] x [delta, _EXTENT], and
# boundary over [-_EXTENT, _EXTENT], with radius-eps neighbourhoods of the
# insertions removed.
_EXTENT = 2.0
_BULK_SHAPE = (34, 24)
_BOUNDARY_N = 96


def _bulk_grid(delta, eps, excluded):
    nx, ny = _BULK_SHAPE
    hx, hy = 2 * _EXTENT / nx, (_EXTENT - delta) / ny
    xs = -_EXTENT + hx * (np.arange(nx) + 0.5)
    ys = delta + hy * (np.arange(ny) + 0.5)
    pts = (xs[:, None] + 1j * ys[None, :]).ravel()
    keep = np.ones(pts.size, dtype=bool)
    for z in excluded:
        keep &= np.abs(pts - z) >= eps
    return pts[keep], np.full(int(keep.sum()), hx * hy)


def _boundary_grid(eps, excluded):
    h = 2 * _EXTENT / _BOUNDARY_N
    xs = -_EXTENT + h * (np.arange(_BOUNDARY_N) + 0.5)
    keep = np.ones(_BOUNDARY_N, dtype=bool)
    for s in excluded:
        keep &= np.abs(xs - s) >= eps
    xs = xs[keep]
    return xs, np.full(xs.size, h)


def _arc_index(xs: np.ndarray, cfg: CorrelatorConfig) -> np.ndarray:
    """Arc label per boundary point: arc l spans (s_l, s_{l+1}); the last
    arc wraps through infinity."""
    svals = sorted(float(s) for s, _ in cfg.boundary)
    if not svals:
        return np.zeros(xs.size, dtype=int)
    return (np.searchsorted(svals, xs) - 1) % len(svals)


# ---------------------------------------------------------------------------
# Interaction masses
# ---------------------------------------------------------------------------

def _shift_log_weight(cfg, x: np.ndarray, direction: int) -> np.ndarray:
    """ln of the deterministic mass weight in direction i: the pairing of
    ``gamma e_i`` against the insertion shift (full listed weight at every
    doubled point) plus the background ``|x|_+ ** (-2 gamma q)`` decay."""
    e_i = (E1, E2)[direction - 1]
    g = float(cfg.gamma)
    q = float(cfg.q)
    pts, weights = _doubled_floats(cfg)
    lp = np.log(np.maximum(np.abs(x), 1.0))
    total = -2.0 * g * q * lp
    for zk, wk in zip(pts, weights):
        c = g * float(inner(e_i, wk))
        if c:
            total = total + c * (lp - np.log(np.abs(x - zk)))
    return total


class _MassModel:
    """Grids plus an (n, keys) weight matrix, so that a replica's masses
    are ``weights.T @ exp(phi)``, each key read on its own direction's
    exponentials.  The bulk key of direction i carries the quadrature base
    of direction i on the bulk rows, and the key ("boundary", i, arc)
    carries that direction's boundary base on the arc's rows; every other
    entry is zero.  The grids depend only on the truncation data and
    exclusion set; ``rebound`` swaps the insertion weights while keeping the
    grids (and hence any shared field samples and their ``exponentials``)
    fixed.  ``empty_arcs`` lists the (direction, arc) boundary masses that
    have no grid point, and so are identically zero: an exclusion radius
    wider than an arc removes all of it."""

    def __init__(self, cfg, delta, eps, rho, extra_exclusions=()):
        self.rho = float(rho)
        bulk_excl = [complex(z) for z, _ in cfg.bulk]
        bnd_excl = [float(s) for s, _ in cfg.boundary]
        for z in extra_exclusions:
            z = complex(z)
            if z.imag > 0:
                bulk_excl.append(z)
            else:
                bnd_excl.append(z.real)
        self.bulk_pts, self.bulk_w = _bulk_grid(delta, eps, bulk_excl)
        self.bnd_pts, self.bnd_w = _boundary_grid(eps, bnd_excl)
        self.points = np.concatenate([self.bulk_pts, self.bnd_pts])
        self.n_bulk_pts = self.bulk_pts.size
        self._bind(cfg)

    def _bind(self, cfg):
        self.cfg = cfg
        self.bnd_arc = _arc_index(self.bnd_pts, cfg)
        arcs = max(cfg.n_boundary, 1)
        self.empty_arcs = tuple((i, a) for i in (1, 2) for a in range(arcs)
                                if not np.any(self.bnd_arc == a))
        g = float(cfg.gamma)
        log_rho = math.log(self.rho)
        nb = self.n_bulk_pts
        column = {k: c for c, k in enumerate(self.mass_keys)}
        self.weights = np.zeros((self.points.size, len(column)), order="F")
        for i in (1, 2):
            lw_bulk = _shift_log_weight(cfg, self.bulk_pts, i)
            lw_bnd = _shift_log_weight(cfg, self.bnd_pts.astype(complex), i)
            self.weights[:nb, column[("bulk", i)]] = \
                self.bulk_w * np.exp(g * g * log_rho + lw_bulk)
            bnd_base = self.bnd_w * np.exp(0.5 * (g * g * log_rho + lw_bnd))
            for arc in range(arcs):
                rows = np.flatnonzero(self.bnd_arc == arc)
                self.weights[nb + rows, column[("boundary", i, arc)]] = \
                    bnd_base[rows]

    def rebound(self, cfg) -> "_MassModel":
        clone = object.__new__(_MassModel)
        clone.__dict__.update(self.__dict__)
        clone._bind(cfg)
        return clone

    @property
    def mass_keys(self) -> tuple:
        arcs = max(self.cfg.n_boundary, 1)
        return tuple([("bulk", 1), ("bulk", 2)]
                     + [("boundary", i, a) for i in (1, 2) for a in range(arcs)])

    def exponents(self, fields: np.ndarray) -> np.ndarray:
        """The exponents of ``exponentials``, in place on a block of scalar
        fields (2, n, R), which it returns: plane d becomes
        ``phi_d = gamma <e_d, X>`` on the bulk rows and ``phi_d / 2`` on the
        boundary rows.  gamma is folded into the frame coefficients, and
        plane 1 is formed first, while plane 0 still holds component 0 (e_1
        is the first frame vector, so phi_1 reads component 0 alone)."""
        g = float(self.cfg.gamma)
        (a1, _), (a2, b2) = _ROOT_COEFFS
        x0, x1 = fields
        x1 *= g * b2
        x1 += (g * a2) * x0
        x0 *= g * a1
        fields[:, self.n_bulk_pts:] *= 0.5
        return fields

    def exponentials(self, fields: np.ndarray) -> np.ndarray:
        """Per direction d, exp(phi_d) on the bulk grid and exp(phi_d / 2)
        on the boundary grid, in place on a block of scalar fields
        (2, n, R): ``exponents`` and then one ``np.exp`` over the block.
        They depend on gamma and the grids only, not on the insertion
        weights."""
        return np.exp(self.exponents(fields), out=fields)

    def masses(self, exps: np.ndarray) -> dict:
        """Float64 replica masses of a block of ``exponentials`` (2, n, R):
        the weight matrix applied in one GEMM (``_key_masses``)."""
        own = _key_masses(exps, self.weights, self.mass_keys)
        return {k: own[:, c].astype(float)
                for c, k in enumerate(self.mass_keys)}

    def expected_masses(self, cov_diag: np.ndarray) -> dict:
        """Deterministic expectations of the replica masses: ``masses`` of
        the Gaussian exponential moments against the covariance diagonal,
        in float64, as a block of one replica (the same in both
        directions)."""
        g = float(self.cfg.gamma)
        nb = self.n_bulk_pts
        moments = np.exp(g * g * cov_diag)
        moments[nb:] = np.exp(0.25 * g * g * cov_diag[nb:])
        return {k: float(v[0]) for k, v in
                self.masses(np.stack((moments, moments))[:, :, None]).items()}


def _key_masses(exps: np.ndarray, weights: np.ndarray, keys) -> np.ndarray:
    """Masses (R, len(keys)) of a block of exponentials (2, n, R), each key
    on its own direction's plane.  One GEMM takes every weight column
    against both planes: ``sgemm`` on a float32 block, ``dgemm`` on a
    float64 one, with the block's (n, 2R) buffer passed as its
    Fortran-ordered transpose, so a whole sampled block is not copied."""
    from scipy.linalg.blas import dgemm, sgemm
    gemm = sgemm if exps.dtype == np.float32 else dgemm
    n, r = exps.shape[1:]
    table = gemm(1.0, exps.transpose(1, 0, 2).reshape(n, 2 * r).T,
                 weights.astype(exps.dtype, order="F", copy=False))
    first = np.array([k[1] == 1 for k in keys])
    return np.where(first, table[:r], table[r:])


def _pair_means(values: np.ndarray) -> np.ndarray:
    """Means of the (draw, mirror) pairs in replica values pooled in the
    order of ``_pooled_masses``; an unpaired last draw is left out."""
    full = values.size - values.size % (2 * BLOCK)
    head = values[:full].reshape(-1, 2, BLOCK)
    tail = values[full:]
    mirrors = tail.size // 2
    return np.concatenate([0.5 * (head[:, 0] + head[:, 1]).ravel(),
                           0.5 * (tail[:mirrors] + tail[tail.size - mirrors:])])


def _paired_mean_stderr(values: np.ndarray) -> tuple:
    """Mean of pooled replica values and its standard error, taken from
    the pair means: a draw and its mirror are correlated, distinct pairs
    are independent.  An unpaired last draw counts as half a pair, so the
    stderr is that of the pair means scaled by sqrt(2 * pairs / replicas);
    with fewer than two pairs it is 0.0."""
    pairs = _pair_means(values)
    err = _mean_stderr(pairs)[1] * math.sqrt(2 * pairs.size / values.size) \
        if pairs.size > 1 else 0.0
    return float(values.mean()), err


def _pairing(replicas: int) -> dict:
    """Pairing counts of a replica total, for the diagnostics."""
    return {"pairs": replicas // 2, "unpaired": replicas % 2,
            "draw_blocks": -(-replicas // (2 * BLOCK))}


def _pooled_masses(models, ensemble, seed: int, replicas: int) -> tuple:
    """``(pooled, sampling_rel_error)`` for the seed's first ``replicas``
    replicas.  ``pooled`` holds one dict per mass model of the sequence
    ``models`` (which share one grid and gamma) of per-key float64 replica
    masses in replica order.

    Blocks stream through one at a time.  A block holds 2 * BLOCK replicas,
    its draws phi and then their mirrors -phi; the last one holds the rest
    of the requested count, and for an odd count its last draw has no
    mirror.  The first model's ``exponentials`` are taken in place in the
    sampled buffer, and one ``sgemm`` reads every key of every model from
    it.  The mirrors' exponentials are the reciprocals of the draws'
    (exp(-phi) = 1 / exp(phi)): one ``np.reciprocal`` over the same buffer,
    with no normals, no triangular product and no ``exp``, and a second
    ``sgemm`` reads their masses.  A mass that is not finite raises.

    The first block also draws the float64 fields of its first
    ``_PROBE_DRAWS`` draws (``sample_block``'s reference) and takes their
    masses in float64; ``sampling_rel_error`` is the largest relative gap
    between those and the same draws' float32 masses, over every key of
    every model with a nonzero mass.  Taking it changes no pooled value."""
    base = models[0]
    keys = [k for m in models for k in m.mass_keys]
    weights = np.hstack([m.weights for m in models])
    weights32 = weights.astype(np.float32, order="F")
    reference = np.empty((2, ensemble.n, _PROBE_DRAWS))
    pieces, rel_error = [], 0.0

    def take(exps, width, block):
        own = _key_masses(exps, weights32, keys)
        if not np.isfinite(own[:width]).all():
            raise _overflow_error(base, ensemble, seed, block)
        pieces.append(own[:width])
        return own

    for b in range(-(-replicas // (2 * BLOCK))):
        count = min(2 * BLOCK, replicas - 2 * BLOCK * b)
        mirrors = count // 2
        exps = ensemble.sample_block(seed, b, reference if b == 0 else None)
        # an overflow shows as a non-finite mass, which raises in take
        with np.errstate(over="ignore", divide="ignore"):
            own = take(base.exponentials(exps), count - mirrors, b)
            if b == 0:
                rel_error = _probe_gap(own[:_PROBE_DRAWS], _key_masses(
                    base.exponentials(reference), weights, keys))
            if mirrors:
                take(np.reciprocal(exps, out=exps), mirrors, b)
        del exps, own       # not held while the next block is drawn
    table = np.concatenate(pieces).T.astype(float, order="C")
    pooled, col = [], 0
    for m in models:
        pooled.append({k: table[col + c] for c, k in enumerate(m.mass_keys)})
        col += len(m.mass_keys)
    return pooled, rel_error


def _probe_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest relative gap of float32 masses ``got`` from their float64
    reference ``want``, over the entries whose reference is nonzero (an
    empty arc's weights, and so both its masses, are exactly zero; every
    grid point carries a positive weight, so some entry is not)."""
    live = want != 0
    return float((np.abs(got[live] - want[live]) / np.abs(want[live])).max())


def _overflow_error(model, ensemble, seed: int, block: int) -> AlgebraError:
    """The error for a block with a non-finite mass, naming gamma, rho and
    the block's largest exponent |phi| (|phi / 2| on the boundary), which
    is read from a fresh draw of the block."""
    largest = float(np.abs(model.exponents(
        ensemble.sample_block(seed, block))).max())
    return AlgebraError(
        f"a replica mass of sampling block {block} is not finite: at gamma "
        f"{float(model.cfg.gamma)!r} and rho {model.rho!r} the block's "
        f"largest exponent |phi| is {largest:.6g}, and float32 exp overflows "
        f"above {_EXP32_OVERFLOW:.2f}")


# ---------------------------------------------------------------------------
# Zero-mode window
# ---------------------------------------------------------------------------

def zero_mode_window(sigma: float, gamma: float, bulk_term: float,
                     bnd_term: float, tol: float = 1e-8) -> tuple:
    """((lo, hi), tail) for one direction of the factorized zero-mode
    integral of ``exp(sigma v - P e^{gamma v} - Q e^{gamma v / 2})``.

    The window doubles around the mode until its integral increment falls
    below ``tol`` of the running total; the last increment, relative to the
    window mass, is the reported tail bound.  Measure terms so small that
    the mode lies where ``e^{gamma v}`` overflows are rejected, naming
    them; beyond the mode, an overflowing ``e^{gamma v}`` is the integrand's
    exact limit 0.
    """
    if not sigma > 0:
        raise AlgebraError(
            "zero-mode integral does not converge: the charge condition "
            f"needs a positive fundamental-weight pairing, got {sigma}")
    if bulk_term <= 0 and bnd_term <= 0:
        raise AlgebraError(
            "zero-mode integral does not converge: no interaction measure "
            "suppresses this direction")

    terms = f"bulk_term {bulk_term!r}, bnd_term {bnd_term!r}"

    def exponent(v):
        # a zero term is left out, which keeps 0 * inf out of the sum
        out = sigma * v
        with np.errstate(over="ignore"):
            if bulk_term:
                out = out - bulk_term * np.exp(gamma * v)
            if bnd_term:
                out = out - bnd_term * np.exp(0.5 * gamma * v)
        return out

    def slope(v):
        return (sigma - gamma * bulk_term * math.exp(gamma * v)
                - 0.5 * gamma * bnd_term * math.exp(0.5 * gamma * v))

    hi = 0.0
    while slope(hi) > 0:
        hi += 2.0
        if gamma * hi > _EXP_OVERFLOW:
            raise AlgebraError(
                f"zero-mode integral is out of floating-point range: {terms} "
                f"are too small against sigma {sigma!r}, so the mode lies "
                f"beyond v = {hi}, where e^(gamma v) overflows")
    lo = hi - 2.0
    while slope(lo) < 0:
        lo -= 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    mode = 0.5 * (lo + hi)

    width, prev, tail = 4.0, None, math.inf
    while width < 4096.0:
        grid = np.linspace(mode - width, mode + width, 801)
        total = float(np.trapezoid(
            np.exp(exponent(grid) - exponent(mode)), grid))
        if prev is not None and total > 0:
            tail = abs(total - prev) / total
            if tail <= tol:
                return (mode - width, mode + width), tail
        prev = total
        width *= 2.0
    raise AlgebraError(
        "zero-mode integral does not converge: window growth did not "
        f"stabilize (last increment {tail:.3e}; sigma {sigma!r}, {terms})")


def _gauss_nodes(window: tuple, sigma: float, nodes: int) -> tuple:
    x, w = legendre_rule(nodes)
    lo, hi = window
    v = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return v, 0.5 * (hi - lo) * w * np.exp(sigma * v)


def _mu_totals(cfg) -> tuple:
    """Per-direction (bulk mu, per-arc boundary mu tuple) as floats."""
    mub = tuple(float(x) for x in cfg.mu_bulk)
    mu_arc = tuple(tuple(float(p[i]) for p in cfg.mu_boundary)
                   for i in (0, 1))
    return mub, mu_arc


def _check_convergence_conditions(cfg) -> bool:
    """Raise unless the correlator of ``cfg`` can be estimated; True in the
    free case (every measure zero), where the configuration must be neutral
    and the value is the closed-form Coulomb product."""
    if cfg.all_mu_zero:
        if not cfg.neutral:
            raise AlgebraError(
                "zero-mode integral does not converge: with all measures "
                "zero the total charge must be neutral")
        return True
    failure = cfg.convergence_failure()
    if failure:
        raise AlgebraError(failure)
    mub, mu_arc = _mu_totals(cfg)
    for i in (1, 2):
        if mub[i - 1] <= 0 and sum(mu_arc[i - 1]) <= 0:
            raise AlgebraError(
                "zero-mode integral does not converge: no interaction "
                f"measure suppresses direction {i}")
    return False


def _sigma_pair(cfg) -> tuple:
    """Pairings of the total charge s with omega_1 and omega_2, the linear
    rates of the two zero-mode directions."""
    s = cfg.s_vector
    return float(inner(s, OMEGA1)), float(inner(s, OMEGA2))


def _mean_stderr(values: np.ndarray) -> tuple:
    """Sample mean and standard error of the mean (0.0 for one sample)."""
    err = float(values.std(ddof=1) / math.sqrt(values.size)) \
        if values.size > 1 else 0.0
    return float(values.mean()), err


def _measure_terms(masses: dict, cfg) -> tuple:
    """Per direction i, ``(mu_bulk_i * bulk mass, sum over arcs of
    mu_arc_i * boundary mass)``: the coefficients of ``e^{gamma v}`` and
    ``e^{gamma v / 2}`` in the zero-mode exponent.  The masses may be floats
    or per-replica arrays."""
    mub, mu_arc = _mu_totals(cfg)
    arcs = max(cfg.n_boundary, 1)
    return tuple((mub[i - 1] * masses[("bulk", i)],
                  sum(mu_arc[i - 1][a] * masses[("boundary", i, a)]
                      for a in range(arcs)))
                 for i in (1, 2))


def _windows_from_means(mean_masses: dict, cfg, tol: float) -> tuple:
    """(windows, tails) of the two directions, grown from the mean masses."""
    gamma = float(cfg.gamma)
    found = [zero_mode_window(sigma, gamma, bulk, bnd, tol)
             for sigma, (bulk, bnd) in zip(_sigma_pair(cfg),
                                           _measure_terms(mean_masses, cfg))]
    return tuple(w for w, _ in found), tuple(t for _, t in found)


def _zero_mode_estimate(pooled: dict, cfg, tol: float) -> tuple:
    """(mean, stderr, windows, tails, quad_error) of the zero-mode integral
    over the pooled replica masses: the windows grow from the mean masses,
    the stderr comes from the pair means (``_paired_mean_stderr``), and
    ``quad_error`` is the relative change of the first sampling block's
    mean integral (its draws and their mirrors) when the node count
    doubles."""
    windows, tails = _windows_from_means(
        {k: float(v.mean()) for k, v in pooled.items()}, cfg, tol)
    values = _zero_mode_values(pooled, cfg, windows)
    first = {k: v[:2 * BLOCK] for k, v in pooled.items()}
    ref = float(_zero_mode_values(first, cfg, windows, 2 * _QUAD_NODES).mean())
    quad_error = abs(float(values[:2 * BLOCK].mean()) - ref) / ref
    mean, stderr = _paired_mean_stderr(values)
    return mean, stderr, windows, tails, quad_error


def _zero_mode_values(masses: dict, cfg, windows,
                      nodes: int = _QUAD_NODES) -> np.ndarray:
    """Per-replica zero-mode integrals (1/sqrt(3)) prod_i I_i(replica),
    each I_i by ``nodes``-point Gauss-Legendre quadrature on its window.
    Replicas go through in chunks that reuse two (nodes, _ZERO_MODE_CHUNK)
    buffers and one mask.  Far out in a window the exponent reaches -1e9;
    ``np.exp`` runs only where it is at least _EXP_UNDERFLOW, and the rest
    is set to the 0.0 it would round to.  Each chunk's node sum is one BLAS
    ``dgemv`` on the transposed (Fortran-ordered) buffer."""
    from scipy.linalg.blas import dgemv
    gamma = float(cfg.gamma)
    terms = []
    for window, sigma, (bulk, bnd) in zip(windows, _sigma_pair(cfg),
                                          _measure_terms(masses, cfg)):
        v, lin = _gauss_nodes(window, sigma, nodes)
        terms.append((lin, -np.exp(gamma * v), bulk,
                      np.exp(0.5 * gamma * v), bnd))
    n = terms[0][2].size
    total = np.empty(n)
    buf = np.empty(2 * nodes * min(n, _ZERO_MODE_CHUNK))
    mask = np.empty(nodes * min(n, _ZERO_MODE_CHUNK), dtype=bool)
    for lo in range(0, n, _ZERO_MODE_CHUNK):
        hi = min(lo + _ZERO_MODE_CHUNK, n)
        size = nodes * (hi - lo)
        expo = buf[:size].reshape(nodes, hi - lo)
        scratch = buf[size:2 * size].reshape(nodes, hi - lo)
        live = mask[:size].reshape(nodes, hi - lo)
        for i, (lin, neg_e, bulk, half_e, bnd) in enumerate(terms):
            np.multiply.outer(neg_e, bulk[lo:hi], out=expo)
            np.multiply.outer(half_e, bnd[lo:hi], out=scratch)
            expo -= scratch
            np.greater_equal(expo, _EXP_UNDERFLOW, out=live)
            np.exp(expo, out=expo, where=live)
            np.copyto(expo, 0.0, where=np.logical_not(live, out=live))
            part = dgemv(1.0, expo.T, lin)
            if i == 0:
                total[lo:hi] = part
            else:
                total[lo:hi] *= part
    total /= _SQRT3
    return total


# ---------------------------------------------------------------------------
# Correlator estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmcEstimate:
    """Monte Carlo value with per-direction chaos masses.

    ``replicas`` counts field evaluations, draws and mirrors alike;
    ``masses`` maps ("bulk", i) and ("boundary", i, arc) to (mean, stderr);
    every stderr, the value's included, comes from the pair means.
    ``diagnostics`` records the zero-mode windows, tail increments and
    quadrature error (``quad_error``: the relative change of the first
    sampling block's mean integral under a doubled node count), grid sizes,
    the boundary masses with no grid point (``empty_arcs``, as (direction,
    arc) pairs), the closed-form Coulomb factor, the deterministic mass
    expectations, the pairing: ``pairs`` (draw, mirror) pairs,
    ``unpaired`` draws (1 for an odd replica count, else 0) and
    ``draw_blocks``, the number of sampled field blocks, and
    ``sampling_rel_error``, the float32 sampling path's rounding error: the
    largest relative gap, over every mass key, between the float32 and the
    float64 masses of the first block's first 32 draws."""

    value: float
    stderr: float
    replicas: int
    masses: dict
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        diag = {}
        for k, v in self.diagnostics.items():
            if isinstance(v, dict):
                diag[k] = {"_".join(map(str, kk)): vv for kk, vv in v.items()}
            else:
                diag[k] = v
        return {
            "value": self.value,
            "stderr": self.stderr,
            "replicas": self.replicas,
            "masses": {"_".join(map(str, k)): list(v)
                       for k, v in self.masses.items()},
            "diagnostics": diag,
        }


def estimate_correlator(cfg: CorrelatorConfig, delta: float, eps: float,
                        rho: float, replicas: int, *, seed: int = 0,
                        window_tol: float = 1e-8) -> GmcEstimate:
    """Monte Carlo estimate of the correlator at truncation scales
    (delta, eps) and mollification rho.

    With every interaction measure zero the configuration must be neutral;
    the value is then the closed-form Coulomb product and the replicas only
    feed the mass diagnostics.  Otherwise the charge-convergence conditions
    must hold and the zero-mode integral is evaluated on the reported
    window, factorized over the two fundamental-weight directions.

    The ``replicas`` field evaluations are ceil(replicas / 2) draws and
    their mirrors, from ceil(replicas / 1024) sampled blocks.  Stderrs come
    from the pair means, with an unpaired last draw counted as half a pair;
    with fewer than two pairs (under four replicas) they are 0.0.  The
    blocks stream through one at a time, the mirrors' reciprocals
    overwriting the draws' exponentials once the draws' masses are taken
    (``_pooled_masses``).  The mass expectations read the covariance
    diagonal (``GffEnsemble.cov_diag``).
    """
    if replicas <= 0:
        raise AlgebraError("no data: at least one replica is required")
    if not (delta > 0 and eps > 0 and rho > 0):
        raise AlgebraError(
            "truncation and mollification scales must be positive")
    free_case = _check_convergence_conditions(cfg)

    model = _MassModel(cfg, delta, eps, rho)
    ensemble = GffEnsemble(model.points, rho)
    expected = model.expected_masses(ensemble.cov_diag)
    (pooled,), sampling_rel_error = _pooled_masses(
        (model,), ensemble, seed, replicas)
    del ensemble        # its factors are not held through the zero mode

    mass_stats = {k: _paired_mean_stderr(v) for k, v in pooled.items()}

    coulomb = coulomb_value(cfg)
    diagnostics = {
        "coulomb": coulomb,
        "grid_bulk": int(model.n_bulk_pts),
        "grid_boundary": int(model.bnd_pts.size),
        "empty_arcs": model.empty_arcs,
        "rho": float(rho), "delta": float(delta), "eps": float(eps),
        "expected_masses": expected,
        **_pairing(replicas),
        "sampling_rel_error": sampling_rel_error,
    }

    if free_case:
        return GmcEstimate(coulomb, 0.0, replicas, mass_stats, diagnostics)

    mean, stderr, windows, tails, quad_error = _zero_mode_estimate(
        pooled, cfg, window_tol)
    diagnostics["window"] = windows
    diagnostics["tail_increment"] = tails
    diagnostics["quad_error"] = quad_error
    return GmcEstimate(coulomb * mean, coulomb * stderr, replicas,
                       mass_stats, diagnostics)


# ---------------------------------------------------------------------------
# Fusion probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionReport:
    """Log-log slope of the estimated correlator along a merging ladder,
    next to the short-distance exponent and its positive-part correction.
    Per sampled rung, ``tail_increments`` holds the zero-mode tail
    increment of each direction on that rung's own window,
    ``quad_errors`` the zero-mode quadrature error and ``empty_arcs`` the
    (direction, arc) boundary masses with no grid point (see
    ``GmcEstimate``).  ``pairs`` and ``draw_blocks`` count the shared
    antithetic pairs and sampled field blocks, and ``sampling_rel_error``
    is the float32 sampling path's rounding error over every key of every
    rung (see ``GmcEstimate``); all three are 0 in the free case, which
    samples nothing."""

    slope: float
    exponent: float
    correction: float
    distances: tuple
    values: tuple
    stderrs: tuple
    tail_increments: tuple = ()
    quad_errors: tuple = ()
    empty_arcs: tuple = ()
    pairs: int = 0
    draw_blocks: int = 0
    sampling_rel_error: float = 0.0

    @property
    def bound(self) -> float:
        return self.exponent + self.correction

    def satisfied(self, slack: float = 0.1) -> bool:
        return self.slope <= self.bound + slack

    def to_json(self) -> dict:
        return {"slope": self.slope, "exponent": self.exponent,
                "correction": self.correction, "bound": self.bound,
                "satisfied": self.satisfied(),
                "distances": list(self.distances),
                "values": list(self.values), "stderrs": list(self.stderrs),
                "tail_increments": [list(t) for t in self.tail_increments],
                "quad_errors": list(self.quad_errors),
                "empty_arcs": [[list(k) for k in rung]
                               for rung in self.empty_arcs],
                "pairs": self.pairs, "draw_blocks": self.draw_blocks,
                "sampling_rel_error": self.sampling_rel_error}


def _moved_config(cfg, kind, i, j, d):
    if kind == "bulk":
        bulk = [(complex(z), a) for z, a in cfg.bulk]
        bulk[j] = (bulk[i][0] + d, bulk[j][1])
        return CorrelatorConfig(cfg.gamma, tuple(bulk), cfg.boundary,
                                cfg.mu_bulk, cfg.mu_boundary)
    boundary = [(float(s), b) for s, b in cfg.boundary]
    boundary[j] = (boundary[i][0] + d, boundary[j][1])
    boundary.sort(key=lambda sb: sb[0])
    return CorrelatorConfig(cfg.gamma, cfg.bulk, tuple(boundary),
                            cfg.mu_bulk, cfg.mu_boundary)


def fusion_probe(cfg: CorrelatorConfig, pair, ladder, *, delta: float,
                 eps: float, rho: float, replicas: int,
                 seed: int = 0) -> FusionReport:
    """Fit the merging exponent of the estimated correlator as insertion
    ``j`` of the pair is re-placed at each ladder distance to the right of
    insertion ``i``.

    The grids and field replicas are shared across ladder rungs (every rung
    position is excluded from the quadrature grid up front).  Every rung
    rebinds the insertion-dependent weights before sampling starts; the
    field blocks then stream through once, each exponentiated once, and
    its draws, then its mirrors, feed every rung's masses (one GEMM over
    all of them) before the next block is drawn.  So one block's
    exponentials are held at a time, and only the per-rung masses grow
    with the replica count.  Each rung then grows its own zero-mode window
    from its mean masses and reports that window's tail increments.  The
    rungs thus re-weight the same (draw, mirror) pairs, and take their
    stderrs from the pair means as ``estimate_correlator`` does; at least
    two pairs (four replicas) are required.  The predicted short-distance
    exponent is ``-inner`` of the pair weights for a bulk pair and
    ``-inner/2`` for a boundary pair, plus a positive-part correction in
    the second simple-root direction; the fitted slope is expected on or
    below that bound.
    """
    kind, i, j = pair
    if kind not in ("bulk", "boundary"):
        raise AlgebraError("pair kind must be 'bulk' or 'boundary'")
    store = cfg.bulk if kind == "bulk" else cfg.boundary
    if not (0 <= i < len(store) and 0 <= j < len(store) and i != j):
        raise AlgebraError("pair indices must name two distinct insertions")
    if replicas < 4:
        raise AlgebraError(
            "no data: the fusion fit needs at least two antithetic pairs "
            "(four replicas) for its stderrs")
    ladder = sorted(float(d) for d in ladder)
    if len(ladder) < 2:
        raise AlgebraError("distance ladder needs at least two rungs")
    if ladder[0] < 2 * rho:
        raise AlgebraError(
            "distance ladder reaches below the mollification scale: "
            f"{ladder[0]} < 2 * {rho}")

    a_i, a_j = store[i][1], store[j][1]
    hyp = inner(a_i + a_j - cfg.Q, E1)
    if not hyp < 0:
        raise AlgebraError(
            "fusion hypothesis fails: the merged charge must pair "
            f"negatively with the first simple root, got {hyp}")
    pairing = float(inner(a_i, a_j))
    exponent = -pairing if kind == "bulk" else -0.5 * pairing
    gap = float(inner(a_i + a_j - cfg.Q, E2))
    correction = (0.5 if kind == "bulk" else 0.25) * gap * gap \
        if gap > 0 else 0.0

    free_case = _check_convergence_conditions(cfg)
    # the free case samples nothing
    counts = _pairing(0 if free_case else replicas)
    configs = [_moved_config(cfg, kind, i, j, d) for d in ladder]
    coulombs = [coulomb_value(cfg_d) for cfg_d in configs]
    values, errs, tails, quad_errors, empty_arcs = [], [], [], [], []
    sampling_rel_error = 0.0
    if free_case:
        values, errs = coulombs, [0.0] * len(ladder)
    else:
        if kind == "bulk":
            anchor = complex(store[i][0])
        else:
            anchor = complex(float(store[i][0]))
        base_model = _MassModel(cfg, delta, eps, rho,
                                extra_exclusions=[anchor + d for d in ladder])
        models = [base_model.rebound(cfg_d) for cfg_d in configs]
        pooled, sampling_rel_error = _pooled_masses(
            models, GffEnsemble(base_model.points, rho), seed, replicas)
        for model, cfg_d, coulomb, masses in zip(models, configs, coulombs,
                                                 pooled):
            mean, err, _, tail, quad_error = _zero_mode_estimate(
                masses, cfg_d, 1e-8)
            tails.append(tail)
            quad_errors.append(quad_error)
            empty_arcs.append(model.empty_arcs)
            values.append(coulomb * mean)
            errs.append(coulomb * err)

    logs = np.log(np.asarray(values))
    if np.ptp(logs) > 1e-14:
        slope = float(np.polyfit(np.log(np.asarray(ladder)), logs, 1)[0])
    else:
        slope = 0.0
    return FusionReport(slope, exponent, correction, tuple(ladder),
                        tuple(float(v) for v in values),
                        tuple(float(e) for e in errs), tuple(tails),
                        tuple(quad_errors), tuple(empty_arcs),
                        counts["pairs"], counts["draw_blocks"],
                        sampling_rel_error)
