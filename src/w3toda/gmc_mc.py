"""Monte Carlo layer: half-plane Gaussian field, chaos masses, correlators.

Desk-scale probabilistic checks of the exact layer.  The two-component free
field lives on a finite point set: the mollified covariance is factored once
per call, in float64, by LAPACK ``dpotrf``, and the factor is shared across
replicas.  The interaction masses are grid quadratures of the renormalized
exponential field against the insertion-dependent shift weights; the
zero-mode integral factorizes over the two fundamental-weight directions and
each replica's factor is evaluated in closed form (``_zero_mode_fit``, one
Chebyshev interpolant per rate), with the fit's own error estimate reported.
Boundary arcs left without grid points by the exclusion radius are reported
as well.

The sampling path runs in single precision, from the triangular product up
to the per-replica masses.  Each block draws float64 standard normals, a
chunk of rows at a time, and casts them once to float32, so every replica is
the float64 stream's realization moved only by rounding.  BLAS ``strmm``
multiplies them in place by a float32 copy of the factor; ``exponentials``
exponentiates that buffer in place (it depends on gamma and the grids only);
and ``sgemm`` applies the insertion-dependent weights of every mass to it in
one call.  Each mass model holds an (n, keys) weight matrix, so the fusion
probe, which rebinds the weights of every ladder rung up front, reads every
key of every rung from each block with that one call; it streams the blocks
once and holds one block per worker whatever the replica count.  The masses
are returned in float64, and all that follows them runs in float64: the
zero-mode integral, the means and stderrs, and the mass expectations
(``expected_masses``, from the same weight matrix).  The layer reports its
own rounding error: ``sampling_rel_error`` is the largest relative gap, over
every mass key, between the float32 masses of the first block's first
``_PROBE_DRAWS`` draws and the same draws' masses taken in float64 (the
float64 factor through ``dtrmm``, then ``exp`` and ``dgemm``).  float32
``exp`` overflows above 88.72 (float64's limit is 709.78); a non-finite mass
raises, naming gamma, rho and the block's largest exponent.

``_pool`` is the module's one thread pool.  It runs a list of tasks on one
worker thread per CPU the process may use (at most one per task): worker w
takes tasks w, w + W, w + 2W, ..., each worker with its own workspace from
the calling thread, and every task writes only its own part of an output
allocated before the run, so the result is the same bits at any worker
count.  Two stages of a GMC call are its tasks: the row blocks of the
covariance (``mollified_covariance``) and the sampling blocks
(``_pooled_masses``, the one pooling loop, over a sequence of models, in
which each block writes its masses into its own rows of one table, so the
replica order and every random stream are those of a serial loop); the
zero mode runs on the calling thread.  From mass models on one grid to their
records there is one path, ``_sampled_estimates``.  Each call logs the wall
time and pool width of each of its stages (covariance, ``dpotrf``, sampling
and zero mode) on one DEBUG line of the ``w3toda`` logger.

Every dense linear-algebra call of this module (the factorization, the
triangular products and the mass sums) goes through scipy's BLAS and
LAPACK, never numpy's ``@`` or ``np.linalg``.
numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool whose workers keep spinning after a call; on a small host, every
switch from one library to the other makes the next threaded call share a
CPU with the other library's spinning workers.  Two more facts shape the
pooled stages.  scipy's f2py BLAS wrappers hold the GIL for the whole call,
so a second Python thread stalls while one of them runs; the pool's tasks
therefore call ``strmm``, ``sgemm``, ``dtrmm`` and ``dgemm`` through ctypes
(``_Blas``), which releases the GIL, at the addresses scipy publishes in
``scipy.linalg.cython_blas``.  And a threaded OpenBLAS call
keeps a pool worker spinning on another CPU, which is the CPU a second
worker needs; so every BLAS and LAPACK call of this module runs with
scipy's OpenBLAS pinned to one thread (``_one_blas_thread``), each worker's
calls in that worker.  The pin also makes every result
independent of the BLAS thread count: a threaded ``dpotrf``, ``strmm`` or
``sgemm`` sums in an order that follows it.  OpenBLAS's
``openblas_set_num_threads_local``, the call behind the pin, sets the count
of the whole library in this build, so the pins of all threads are
counted, the last holder restores the count the first one found, and
``_pool`` holds one pin around each of its runs; other threads' scipy BLAS
calls run on one thread meanwhile.  Where the library does not
export that call, nothing is pinned and the pool has one worker.

scipy is loaded on the first GMC call, not when this module is imported:
each function that calls into it imports it itself, and so do the pool
(``concurrent.futures``) and the DEBUG line (``logging``).  Nothing
else in the package uses scipy, and loading it (about 110 modules and
30 MB) took most of the start-up of a process that imports every layer but
runs only the exact ones.  After the first call each of those imports is a
``sys.modules`` lookup of about a microsecond.

Replicas come in antithetic pairs: every sampled field phi is followed by
its mirror -phi, which has the same law, needs no new normals and no
triangular product, and whose exponentials are the reciprocals of the
draw's.  A pair's two replicas are correlated, distinct pairs are not, so
the stderr of the value and of every mass is taken from the pair means
(``_paired_stats``), never from the correlated replicas themselves.

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

import contextvars
import ctypes
import functools
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
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

BLOCK = 512
MAX_GRID = 4096
_SQRT3 = math.sqrt(3.0)
_EXP_OVERFLOW = math.log(sys.float_info.max)    # exp(x) overflows above this
_COV_ROWS = 32                      # rows per block of mollified_covariance
_PROBE_DRAWS = 32                   # draws of the float64 rounding probe
_EXP32_OVERFLOW = math.log(float(np.finfo(np.float32).max))     # 88.72
_NORMAL_CHUNKS = 8                  # float64 normals chunks per sampled block
_EXPONENT_ROWS = 32                 # rows per temporary of ``exponents``

_FRAME = (E1, E1 + 2 * E2)          # orthogonal frame, norms sqrt(2), sqrt(6)
_FRAME_NORM = (math.sqrt(2.0), math.sqrt(6.0))


def frame_coefficients(u: CartanVector) -> tuple:
    """Coefficients of <u, X> over the two independent scalar components."""
    return tuple(float(inner(u, f)) / n for f, n in zip(_FRAME, _FRAME_NORM))


_ROOT_COEFFS = (frame_coefficients(E1), frame_coefficients(E2))


def _doubled_floats(cfg: CorrelatorConfig) -> tuple:
    """The doubled insertions: their complex positions, and their listed
    weights as a tuple."""
    doubled = doubled_insertions(cfg)
    return (np.asarray([complex(z) for z, _ in doubled], dtype=complex),
            tuple(w for _, w in doubled))


def _float_pairings(weights: tuple) -> tuple:
    """Each pairing of the doubled ``weights`` taken once, as floats:
    ``(shifts, exponents)``, with ``shifts[i - 1][k]`` the pairing
    <e_i, w_k> and ``exponents`` the nonzero -<w_k, w_l> / 2 of the pairs
    k < l, as (k, l, exponent) in (k, l) order."""
    shifts = tuple(tuple(float(inner(e_i, w)) for w in weights)
                   for e_i in (E1, E2))
    exponents = []
    for k in range(len(weights)):
        for l in range(k + 1, len(weights)):
            e = -0.5 * float(inner(weights[k], weights[l]))
            if e:
                exponents.append((k, l, e))
    return shifts, tuple(exponents)


# ---------------------------------------------------------------------------
# GIL-free BLAS, pinned to one thread
# ---------------------------------------------------------------------------

class _Blas:
    """``trmm`` and ``gemm`` on scipy's OpenBLAS, called through ctypes.

    The routines are ``scipy.linalg.cython_blas``'s, at the addresses scipy
    publishes in its ``__pyx_capi__`` capsules.  ctypes releases the GIL for
    the call, where scipy's f2py wrappers hold it, and every call runs
    under ``_one_blas_thread``, so its result does not depend on the BLAS
    thread count, whoever calls it.  ``set_threads`` is OpenBLAS's
    ``openblas_set_num_threads_local`` from the library those routines link
    (it returns the previous count), or None where that library does not
    export it."""

    def __init__(self):
        from scipy.linalg import cython_blas
        api = ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", api))
        address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(("PyCapsule_GetPointer",
                                                      api))

        def bind(routine, args):
            capsule = cython_blas.__pyx_capi__[routine]
            prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * args)
            return prototype(address(capsule, name(capsule)))

        self._routines = {
            np.dtype(np.float32): (ctypes.c_float, bind("strmm", 11),
                                   bind("sgemm", 13)),
            np.dtype(np.float64): (ctypes.c_double, bind("dtrmm", 11),
                                   bind("dgemm", 13)),
        }
        try:
            set_threads = ctypes.CDLL(cython_blas.__file__)[
                "openblas_set_num_threads_local"]
        except AttributeError:
            set_threads = None
        else:
            set_threads.restype = ctypes.c_int
            set_threads.argtypes = [ctypes.c_int]
        self.set_threads = set_threads

    def trmm(self, factor: np.ndarray, z: np.ndarray) -> None:
        """``z = factor @ z`` in place, for a Fortran-ordered lower-triangular
        factor (n, n) and a C-ordered z (n, m) of the same dtype: ``trmm``
        forms ``z.T @ factor.T`` on z's Fortran-ordered transpose, so neither
        operand is copied."""
        n, m = z.shape
        if not (factor.flags.f_contiguous and z.flags.c_contiguous
                and factor.shape == (n, n) and factor.dtype == z.dtype):
            raise ValueError("trmm needs a Fortran-ordered (n, n) factor and "
                             "a C-ordered (n, m) operand of one dtype")
        scalar, trmm, _ = self._routines[z.dtype]
        with _one_blas_thread():
            trmm(b"R", b"L", b"T", b"N", _int(m), _int(n),
                 ctypes.byref(scalar(1.0)), factor.ctypes.data, _int(n),
                 z.ctypes.data, _int(m))

    def gemm(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``a.T @ w`` as a new Fortran-ordered (m, k) array, for a C-ordered
        a (n, m) and a Fortran-ordered w (n, k) of the same dtype: ``gemm``
        reads a as its Fortran-ordered transpose, so neither operand is
        copied."""
        (n, m), k = a.shape, w.shape[1]
        if not (a.flags.c_contiguous and w.flags.f_contiguous
                and w.shape[0] == n and a.dtype == w.dtype):
            raise ValueError("gemm needs a C-ordered (n, m) and a "
                             "Fortran-ordered (n, k) operand of one dtype")
        scalar, _, gemm = self._routines[a.dtype]
        out = np.empty((m, k), dtype=a.dtype, order="F")
        with _one_blas_thread():
            gemm(b"N", b"N", _int(m), _int(k), _int(n),
                 ctypes.byref(scalar(1.0)), a.ctypes.data, _int(m),
                 w.ctypes.data, _int(n), ctypes.byref(scalar(0.0)),
                 out.ctypes.data, _int(m))
        return out


def _int(value: int):
    """A Fortran integer argument: a pointer to a C int."""
    return ctypes.byref(ctypes.c_int(value))


@functools.cache
def _blas() -> _Blas:
    """The module's one ``_Blas``, bound on the first GMC call."""
    return _Blas()


_PIN_LOCK = threading.Lock()
_pin = {"holders": 0, "saved": 0}


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread.

    The count is process-wide in this build: its
    ``openblas_set_num_threads_local`` calls ``openblas_set_num_threads``.
    So the pins of all threads are counted: the first holder saves the
    count it finds and the last one restores it, whatever the order in
    which holders leave.  A no-op where the library cannot be pinned."""
    set_threads = _blas().set_threads
    if set_threads is None:
        yield
        return
    with _PIN_LOCK:
        if not _pin["holders"]:
            _pin["saved"] = set_threads(1)
        _pin["holders"] += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin["holders"] -= 1
            if not _pin["holders"]:
                set_threads(_pin["saved"])


def _worker_count(tasks: int) -> int:
    """Pool workers for ``tasks`` tasks: one per CPU this process may run
    on, at most one per task, and one where BLAS cannot be pinned to a
    thread (a threaded BLAS call would spin on the CPUs the others need)."""
    if _blas().set_threads is None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(cpus, tasks))


def _pool(tasks: int, work, workspace=lambda: None) -> int:
    """Run ``work(t, space)`` for every task t in range(tasks) on
    ``_worker_count(tasks)`` threads, and return that width.

    Worker w takes tasks w, w + W, w + 2W, ... in order, each with the
    worker's own ``space``, a ``workspace()`` allocated here, in the calling
    thread: buffers allocated in a worker thread stay in that thread's
    malloc arena once freed, which raised peak RSS by 5-10 MB.  The workers
    run under the caller's numpy error state (numpy's is per thread) and
    the pool under one ``_one_blas_thread`` pin.  A task that raises stops
    its worker, and every worker skips the tasks past the lowest failed
    one; once all of them have stopped, that task's error is raised, which
    is the error a serial loop would raise.  A pool of one worker runs in
    the calling thread; no worker thread outlives the call."""
    from concurrent.futures import ThreadPoolExecutor
    width = _worker_count(tasks)
    spaces = [workspace() for _ in range(width)]
    errstate = np.geterr()
    lock, failed = threading.Lock(), {}

    def run(w):
        with np.errstate(**errstate):
            for t in range(w, tasks, width):
                with lock:
                    if failed and t > min(failed):
                        return
                try:
                    work(t, spaces[w])
                except Exception as err:    # raised from the caller below
                    with lock:
                        failed[t] = err
                    return

    with _one_blas_thread():
        if width == 1:
            run(0)
        else:
            with ThreadPoolExecutor(
                    width, thread_name_prefix="w3toda-gmc") as pool:
                runs = [pool.submit(run, w) for w in range(width)]
            for r in runs:
                r.result()
    if failed:
        raise failed[min(failed)]
    return width


# the stage timings of the GMC call open in this context (``_logged_stages``)
_STAGES = contextvars.ContextVar("w3toda_gmc_stages", default=None)


@contextmanager
def _stage(name: str):
    """Time the block as stage ``name`` of the GMC call open in
    ``_logged_stages`` (a no-op outside one).  The block may set the
    ``workers`` of the dict it is given to the width of its pool."""
    entry = {"workers": 1}
    start = time.perf_counter()
    yield entry
    stages = _STAGES.get()
    if stages is not None:
        seconds, workers = stages.get(name, (0.0, 1))
        stages[name] = (seconds + time.perf_counter() - start,
                        max(workers, entry["workers"]))


@contextmanager
def _logged_stages(blocks: int, points: int):
    """Collect the ``_stage`` timings of one GMC call and, once it returns,
    log them on one DEBUG line of the ``w3toda`` logger, after the call's
    sampling blocks, grid points and BLAS pin.  No result reads them."""
    import logging
    stages = {}
    token = _STAGES.set(stages)
    try:
        yield
    finally:
        _STAGES.reset(token)
    logging.getLogger("w3toda").debug(
        "gmc_mc: %d blocks of %d points, BLAS %s; %s", blocks, points,
        "not pinned" if _blas().set_threads is None else
        "pinned to one thread",
        ", ".join(f"{name} {seconds:.4f} s on {workers} worker"
                  + "s" * (workers > 1)
                  for name, (seconds, workers) in stages.items()))


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
    upper triangle as it is done.  The blocks are the tasks of one
    ``_pool`` run: a block writes only its own rows and their mirror
    columns, which no other block writes, and every entry is elementwise,
    so the matrix is the same bits at any worker count.  The blocks are
    small because each allocates its temporaries in its worker."""
    p = np.asarray(points, dtype=complex)
    tau = 2.0 * rho
    with _stage("covariance") as stage:
        lplus = _smoothed_log_plus(p, rho)
        cov = np.empty((p.size, p.size))

        def fill(b, _):
            lo = b * _COV_ROWS
            hi = min(lo + _COV_ROWS, p.size)
            rows, cols = p[lo:hi, None], p[None, :hi]
            block = cov[lo:hi, :hi]
            block[...] = _smoothed_log(_abs2(rows - cols), tau)
            block += _smoothed_log(_abs2(rows - np.conj(cols)), tau)
            plus = np.add(lplus[lo:hi, None], lplus[None, :hi])
            plus *= 2.0
            block += plus
            cov[:lo, lo:hi] = block[:, :lo].T

        stage["workers"] = _pool(-(-p.size // _COV_ROWS), fill)
    return cov


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2, squared in place: one float buffer instead of two."""
    out = np.abs(z)
    out **= 2
    return out


class GffEnsemble:
    """Covariance factorization of one grid, shared by all replicas.

    LAPACK ``dpotrf`` factors the covariance in place, in float64 and on one
    BLAS thread, and the dense covariance survives only as that factor.
    ``chol`` is the float32 copy of the lower factor that every
    ``sample_block`` multiplies by, Fortran-ordered so that ``strmm`` takes
    it without a copy (n^2 * 4 bytes, 3.2 MB on the benchmark grids of about
    900 points).  The float64 factor, ``dpotrf``'s own output, is kept only
    for the float64 reference draws of ``sample_block``; ``cov_diag`` is the
    covariance diagonal."""

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
        with _stage("dpotrf"), _one_blas_thread():
            factor, info = dpotrf(cov.T, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise AlgebraError(
                "covariance is not positive semi-definite in floating point "
                f"after mollification (dpotrf info {info}): rho {rho!r} is "
                "too large for the grid, whose smallest spacing is "
                f"{_smallest_spacing(pts):.4g}; at that radius the mollified "
                "kernel is smooth on the grid scale and neighbouring rows "
                "are numerically dependent.  Take a smaller rho or points "
                "further apart")
        self.chol = factor.astype(np.float32, order="F")
        self._factor = factor

    @property
    def n(self) -> int:
        return self.points.size

    def workspace(self) -> tuple:
        """Buffers ``sample_block`` draws a block into: the float32 block
        (n, 2 * BLOCK) and a float64 normals chunk of ceil(n /
        _NORMAL_CHUNKS) rows."""
        rows = -(-self.n // _NORMAL_CHUNKS)
        return (np.empty((self.n, 2 * BLOCK), dtype=np.float32),
                np.empty((rows, 2 * BLOCK)))

    def sample_block(self, seed: int, block: int,
                     reference: np.ndarray | None = None,
                     workspace: tuple | None = None) -> np.ndarray:
        """Field draws [block*BLOCK, (block+1)*BLOCK) of the seed's stream
        as a float32 array (2, n, BLOCK), a view of the workspace's block
        buffer (of a new ``workspace()`` if none is given).

        The block's float64 normals (n, 2*BLOCK) come from
        ``default_rng([seed, block])``, drawn into the float64 chunk a few
        rows at a time (the same stream as one draw of the whole block) and
        cast to float32 into the block buffer; column ``r`` is field ``r``
        of component 0 and column ``BLOCK + r`` field ``r`` of component 1.
        ``strmm`` multiplies that buffer by ``chol`` in place.

        ``reference``, if given, is a float64 array (2, n, k) that receives
        the float64 fields of the block's first k draws: the same float64
        normals times the float64 factor, through ``dtrmm``."""
        out, chunk = self.workspace() if workspace is None else workspace
        rng = np.random.default_rng([int(seed), int(block)])
        if reference is not None:
            k = reference.shape[2]
            first = np.empty((self.n, 2, k))
        for lo in range(0, self.n, chunk.shape[0]):
            part = chunk[:self.n - lo]
            rng.standard_normal(out=part)
            hi = lo + part.shape[0]
            out[lo:hi] = part
            if reference is not None:
                first[lo:hi] = part.reshape(-1, 2, BLOCK)[:, :, :k]
        if reference is not None:
            reference[...] = _lower_product(self._factor,
                                            first.reshape(self.n, 2 * k))
        return _lower_product(self.chol, out)


def _lower_product(factor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``factor @ z`` in place (``_Blas.trmm``) for a C-ordered z of shape
    (n, 2m); returns the (2, n, m) view (component, point, draw)."""
    n, m = z.shape[0], z.shape[1] // 2
    _blas().trmm(factor, z)
    return z.reshape(n, 2, m).transpose(1, 0, 2)


def _smallest_spacing(points: np.ndarray) -> float:
    """Smallest distance between two of the points (0.0 for a repeated
    point), in blocks of ``_COV_ROWS`` rows."""
    best = math.inf
    for lo in range(0, points.size, _COV_ROWS):
        dist = np.abs(points[lo:lo + _COV_ROWS, None] - points[None, :])
        np.fill_diagonal(dist[:, lo:], math.inf)
        best = min(best, float(dist.min()))
    return best


# ---------------------------------------------------------------------------
# Closed-form zero-measure correlator value
# ---------------------------------------------------------------------------

def coulomb_value(cfg: CorrelatorConfig) -> float:
    """Zero-measure correlator: the Gaussian pairing of the insertion
    charges, as the product over unordered doubled pairs of
    ``|zeta_k - zeta_l| ** (-inner(w_k, w_l) / 2)``."""
    pts, weights = _doubled_floats(cfg)
    return _coulomb(pts, _float_pairings(weights)[1])


def _coulomb(points: np.ndarray, exponents) -> float:
    """``coulomb_value`` from the doubled points and ``_float_pairings``'
    exponents."""
    log_value = 0.0
    for k, l, e in exponents:
        log_value += e * math.log(abs(points[k] - points[l]))
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

def _shift_log_weight(cfg, points: np.ndarray, shifts: tuple,
                      x: np.ndarray) -> np.ndarray:
    """ln of the deterministic mass weight in direction i: the pairing of
    ``gamma e_i`` against the insertion shift (full listed weight at every
    doubled point, ``shifts`` being direction i's pairings <e_i, w_k> at
    the doubled ``points``) plus the background ``|x|_+ ** (-2 gamma q)``
    decay."""
    g = float(cfg.gamma)
    q = float(cfg.q)
    lp = np.log(np.maximum(np.abs(x), 1.0))
    total = -2.0 * g * q * lp
    for zk, shift in zip(points, shifts):
        c = g * shift
        if c:
            total = total + c * (lp - np.log(np.abs(x - zk)))
    return total


class _MassModel:
    """Grids plus an (n, keys) weight matrix, so that a replica's masses
    are ``weights.T @ exp(phi)``, each key read on its own direction's
    exponentials.  The bulk key of direction i carries the quadrature base
    of direction i on the bulk rows, and the key ("boundary", i, arc)
    carries that direction's boundary base on the arc's rows; every other
    entry is zero.  The grids depend only on the truncation data
    (``delta``, ``eps``) and exclusion set; ``rebound`` swaps the insertion
    weights while keeping the grids (and hence any shared field samples and
    their ``exponentials``) fixed.  ``empty_arcs`` lists the (direction,
    arc) boundary masses that have no grid point, and so are identically
    zero: an exclusion radius wider than an arc removes all of it.
    ``coulomb`` is the bound configuration's ``coulomb_value``, taken from
    the same float pairings as the weights; a rebound that keeps the
    insertion weights, and moves only their positions, keeps those
    pairings."""

    def __init__(self, cfg, delta, eps, rho, extra_exclusions=()):
        self.delta, self.eps, self.rho = float(delta), float(eps), float(rho)
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
        self._charge_weights = None
        self._bind(cfg)

    def _bind(self, cfg):
        self.cfg = cfg
        self.bnd_arc = _arc_index(self.bnd_pts, cfg)
        arcs = max(cfg.n_boundary, 1)
        self.empty_arcs = tuple((i, a) for i in (1, 2) for a in range(arcs)
                                if not np.any(self.bnd_arc == a))
        pts, weights = _doubled_floats(cfg)
        if weights != self._charge_weights:
            self._charge_weights = weights
            self._pairings = _float_pairings(weights)
        shifts, exponents = self._pairings
        self.coulomb = _coulomb(pts, exponents)
        g = float(cfg.gamma)
        log_rho = math.log(self.rho)
        nb = self.n_bulk_pts
        column = {k: c for c, k in enumerate(self.mass_keys)}
        self.weights = np.zeros((self.points.size, len(column)), order="F")
        for i in (1, 2):
            lw_bulk = _shift_log_weight(cfg, pts, shifts[i - 1],
                                        self.bulk_pts)
            lw_bnd = _shift_log_weight(cfg, pts, shifts[i - 1],
                                       self.bnd_pts.astype(complex))
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
        is the first frame vector, so phi_1 reads component 0 alone).  Its
        component-0 term is added ``_EXPONENT_ROWS`` rows at a time, so no
        temporary as large as a plane is allocated."""
        g = float(self.cfg.gamma)
        (a1, _), (a2, b2) = _ROOT_COEFFS
        x0, x1 = fields
        x1 *= g * b2
        for lo in range(0, x0.shape[0], _EXPONENT_ROWS):
            rows = slice(lo, lo + _EXPONENT_ROWS)
            x1[rows] += (g * a2) * x0[rows]
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
    on its own direction's plane.  One GEMM (``_Blas.gemm``, in the block's
    precision) takes every weight column against both planes, with the
    block's (n, 2R) buffer passed as its Fortran-ordered transpose, so a
    whole sampled block is not copied."""
    n, r = exps.shape[1:]
    table = _blas().gemm(
        np.ascontiguousarray(exps.transpose(1, 0, 2).reshape(n, 2 * r)),
        weights.astype(exps.dtype, order="F", copy=False))
    first = np.array([k[1] == 1 for k in keys])
    return np.where(first, table[:r], table[r:])


def _paired_stats(table: np.ndarray) -> tuple:
    """``(means, stderrs)`` per row of a (rows, replicas) table of replica
    values pooled in the order of ``_pooled_masses``.  A stderr is the
    sample stderr of the (draw, mirror) pair means, which are independent,
    scaled by sqrt(2 * pairs / replicas): an unpaired last draw counts as
    half a pair.  With fewer than two pairs it is 0.0."""
    rows, replicas = table.shape
    full = replicas - replicas % (2 * BLOCK)
    head = table[:, :full].reshape(rows, -1, 2, BLOCK)
    tail = table[:, full:]
    mirrors = tail.shape[1] // 2
    pairs = np.hstack(
        [0.5 * (head[:, :, 0] + head[:, :, 1]).reshape(rows, -1),
         0.5 * (tail[:, :mirrors] + tail[:, tail.shape[1] - mirrors:])])
    n = pairs.shape[1]
    errs = pairs.std(axis=1, ddof=1) / math.sqrt(n) \
        * math.sqrt(2 * n / replicas) if n > 1 else np.zeros(rows)
    return table.mean(axis=1), errs


def _pooled_masses(models, ensemble, seed: int, replicas: int) -> tuple:
    """``(pooled, sampling)`` for the seed's first ``replicas`` replicas.
    ``pooled`` holds one dict per mass model of the sequence ``models``
    (which share one grid and gamma) of per-key float64 replica masses in
    replica order.  ``sampling`` holds ``sampling_rel_error`` and ``blas``:
    the worker count and whether BLAS was pinned to one thread.

    A block holds 2 * BLOCK replicas, its draws phi and then their mirrors
    -phi; the last one holds the rest of the requested count, and for an
    odd count its last draw has no mirror.  The first model's
    ``exponentials`` are taken in place in the sampled buffer, and one
    ``sgemm`` reads every key of every model from it.  The mirrors'
    exponentials are the reciprocals of the draws' (exp(-phi) = 1 /
    exp(phi)): one ``np.reciprocal`` over the same buffer, with no normals,
    no triangular product and no ``exp``, and a second ``sgemm`` reads their
    masses.

    The blocks are the tasks of one ``_pool`` run, each worker drawing
    into its own workspace.  Every block writes its masses into its own
    rows of one float32 (replicas, keys) table, so the result does not
    depend on the worker count.  Overflow is ignored in the workers: it
    shows as a non-finite mass, which raises for its block, and the pool
    raises the lowest such block's error.

    The first block also draws the float64 fields of its first
    ``_PROBE_DRAWS`` draws (``sample_block``'s reference) and takes their
    masses in float64; ``sampling_rel_error`` is the largest relative gap
    between those and the same draws' float32 masses, over every key of
    every model with a nonzero mass.  Taking it changes no pooled value."""
    base = models[0]
    keys = [k for m in models for k in m.mass_keys]
    weights = np.hstack([m.weights for m in models])
    weights32 = weights.astype(np.float32, order="F")
    blocks = -(-replicas // (2 * BLOCK))
    table = np.empty((replicas, len(keys)), dtype=np.float32)
    reference = np.empty((2, ensemble.n, _PROBE_DRAWS))
    rel_error = 0.0

    def take(exps, at, count, block):
        own = _key_masses(exps, weights32, keys)
        if not np.isfinite(own[:count]).all():
            raise _overflow_error(base, ensemble, seed, block)
        table[at:at + count] = own[:count]
        return own

    def work(b, workspace):
        nonlocal rel_error
        at = 2 * BLOCK * b
        count = min(2 * BLOCK, replicas - at)
        mirrors = count // 2
        exps = base.exponentials(ensemble.sample_block(
            seed, b, reference if b == 0 else None, workspace))
        own = take(exps, at, count - mirrors, b)
        if b == 0:
            rel_error = _probe_gap(own[:_PROBE_DRAWS], _key_masses(
                base.exponentials(reference), weights, keys))
        if mirrors:
            take(np.reciprocal(exps, out=exps), at + count - mirrors,
                 mirrors, b)

    with _stage("sampling") as stage, \
            np.errstate(over="ignore", divide="ignore"):
        stage["workers"] = _pool(blocks, work, ensemble.workspace)
    blas = {"workers": stage["workers"],
            "pinned": _blas().set_threads is not None}
    columns = table.T.astype(float, order="C")
    pooled, col = [], 0
    for m in models:
        pooled.append({k: columns[col + c] for c, k in enumerate(m.mass_keys)})
        col += len(m.mass_keys)
    return pooled, {"sampling_rel_error": rel_error, "blas": blas}


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
# Zero mode
# ---------------------------------------------------------------------------

_CHEB_NODES = 48            # Chebyshev points of each zero-mode fit
_CHEB_TAIL = 8              # trailing coefficients read as its truncation
_RULE_DROP = 45.0           # the node rule's window: e^-45 of the mode
_RULE_LEFT = 40.0           # and at most this far left of it, in ln s


def zero_mode_window(sigma: float, gamma: float, bulk_term: float,
                     bnd_term: float, tol: float = 1e-8) -> tuple:
    """((lo, hi), tail) for one direction of the factorized zero-mode
    integral of ``exp(sigma v - P e^{gamma v} - Q e^{gamma v / 2})``.

    The window doubles around the mode until its integral increment falls
    below ``tol`` of the running total; the last increment, relative to the
    window mass, is the reported tail bound.  Measure terms so small that
    the mode lies where ``e^{gamma v}`` overflows are rejected, naming
    them; beyond the mode, an overflowing ``e^{gamma v}`` is the integrand's
    exact limit 0.  Only the tests call it, as the closed form's reference."""
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


def _zero_mode_fit(nu: float) -> tuple:
    """``(L, coefficients, error)`` of the zero-mode factor at the rate nu =
    2 sigma / gamma: with s = e^{gamma v / 2} sqrt(P) and y = Q / sqrt(P),
    ``int exp(sigma v - P e^{gamma v} - Q e^{gamma v / 2}) dv = (2 / gamma)
    g(x) (sqrt(P) + Q / L)^-nu``, g = (1 + y / L)^nu int_0^inf s^(nu - 1)
    exp(-s^2 - y s) ds and x = (y - L) / (y + L); x = -1 is Q = 0 and x = 1
    is P = 0, where g = Gamma(nu) L^-nu.  L = max(2, sqrt(nu)); a cosine
    sum interpolates ln g at ``_CHEB_NODES`` Chebyshev points.  Each
    node's integral is a trapezoid rule in t = ln(s / s*), s* the mode,
    exponentially convergent (Trefethen & Weideman, SIAM Rev. 2014); its
    exponent nu t - A expm1(2t) - B expm1(t), 2A + B = nu, is below
    -_RULE_DROP outside [-(_RULE_DROP / nu + 1), 2 ln(2 + 2 _RULE_DROP /
    nu)], and left of -_RULE_LEFT it is A + B + nu t to within nu
    e^-_RULE_LEFT, so the points there sum as a geometric series.  ``error``
    estimates the largest error of ln g, a factor's relative error: twice
    the last ``_CHEB_TAIL`` coefficients, the largest relative gap between
    the rule at step h and at h / 2 (whose values are taken), and
    ``_CHEB_NODES`` ulps of the coefficients' absolute sum (rounding)."""
    scale, step = max(2.0, math.sqrt(nu)), 0.2 / math.sqrt(max(nu, 4.0))
    k = np.arange(_CHEB_NODES)    # cos(pi k j / (n - 1)), k j reduced exactly
    cosines = np.cos(np.pi / (_CHEB_NODES - 1)
                     * (np.multiply.outer(k, k) % (2 * _CHEB_NODES - 2)))
    x = cosines[1]
    y = scale * (1.0 + x[1:]) / (1.0 - x[1:])
    mode = 2.0 * nu / (y + np.sqrt(y * y + 8.0 * nu))
    a, b = mode * mode, y * mode
    lo = -min(_RULE_DROP / nu + 1.0, _RULE_LEFT)
    hi = 2.0 * math.log(2.0 + 2.0 * _RULE_DROP / nu)
    t = 0.5 * step * np.arange(2 * math.floor(lo / step),
                               2 * math.ceil(hi / step) + 1)
    f = np.exp(nu * t - np.multiply.outer(a, np.expm1(2.0 * t))
               - np.multiply.outer(b, np.expm1(t)))
    edge = np.exp(a + b + nu * t[0])
    fine = 0.5 * step * (f.sum(axis=1) + edge / math.expm1(0.5 * nu * step))
    coarse = step * (f[:, ::2].sum(axis=1) + edge / math.expm1(nu * step))
    log_g = np.empty(_CHEB_NODES)
    log_g[0] = math.lgamma(nu) - nu * math.log(scale)
    log_g[1:] = nu * np.log(2.0 * mode / (1.0 - x[1:])) - a - b + np.log(fine)
    log_g[[0, -1]] *= 0.5        # DCT-I: halved end terms and coefficients
    coefficients = (cosines * log_g).sum(axis=1) * (2.0 / (_CHEB_NODES - 1))
    coefficients[[0, -1]] *= 0.5
    size = np.abs(coefficients)
    return scale, coefficients, float(
        2.0 * size[-_CHEB_TAIL:].sum() + np.abs(coarse / fine - 1.0).max()
        + _CHEB_NODES * sys.float_info.epsilon * size.sum())


def _zero_mode_factor(fit: tuple, nu: float, gamma: float, bulk: np.ndarray,
                      bnd: np.ndarray) -> np.ndarray:
    """I per replica of one direction from its ``_zero_mode_fit`` and measure
    terms P = ``bulk`` and Q = ``bnd``, never both zero: (2 / gamma) g(x)
    (sqrt(P) + Q / L)^-nu, with ln g summed by Clenshaw's recurrence."""
    scale, coefficients, _ = fit
    root, scaled = np.sqrt(bulk), bnd / scale
    log_g = np.polynomial.chebyshev.chebval((scaled - root) / (scaled + root),
                                            coefficients)
    return 2.0 / gamma * np.exp(log_g) * (root + scaled) ** -nu


def _zero_mode_estimates(rungs, tol: float) -> list:
    """``(values, diagnostics)`` for each (pooled masses, cfg,
    ``_sigma_pair(cfg)``) of ``rungs``: the per-replica zero-mode integrals
    (1/sqrt(3)) prod_i I_i (``_zero_mode_factor``, one ``_zero_mode_fit`` per
    distinct rate of the call), and ``tail_increment``, each direction's
    fit error estimate.  An estimate above ``tol`` raises, and so does a
    replica with no interaction mass in a direction, naming both."""
    fits, estimates = {}, []
    with _stage("zero mode"):
        for pooled, cfg, sigmas in rungs:
            gamma, values, errors = float(cfg.gamma), 1.0 / _SQRT3, []
            for i, sigma, (bulk, bnd) in zip((1, 2), sigmas,
                                             _measure_terms(pooled, cfg)):
                nu = 2.0 * sigma / gamma
                fit = fits[nu] = fits.get(nu) or _zero_mode_fit(nu)
                if not fit[2] <= tol:
                    raise AlgebraError(
                        f"zero-mode factor of direction {i} has error "
                        f"estimate {fit[2]:.3e}, above window_tol {tol:.3e}")
                dead = np.flatnonzero((bulk <= 0) & (bnd <= 0))
                if dead.size:
                    raise AlgebraError(
                        "zero-mode integral does not converge: replica "
                        f"{dead[0]} has no interaction mass in direction {i}")
                values = values * _zero_mode_factor(fit, nu, gamma, bulk,
                                                    bnd)
                errors.append(fit[2])
            estimates.append((values, {"tail_increment": tuple(errors)}))
    return estimates


# ---------------------------------------------------------------------------
# Correlator estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmcEstimate:
    """Monte Carlo value with per-direction chaos masses: the one record of
    a sampled configuration, built by ``_sampled_estimates`` for the
    correlator estimate and for every rung of the fusion probe.

    ``replicas`` counts field evaluations, draws and mirrors alike;
    ``masses`` maps ("bulk", i) and ("boundary", i, arc) to (mean, stderr);
    every stderr, the value's included, comes from the pair means.
    ``diagnostics`` records ``tail_increment``, the error estimate of each
    direction's closed-form zero-mode factor (``_zero_mode_fit``; absent in
    the free case, which has no zero mode), grid sizes,
    the boundary masses with no grid point (``empty_arcs``, as (direction,
    arc) pairs), the closed-form Coulomb factor, the deterministic mass
    expectations, the pairing: ``pairs`` (draw, mirror) pairs,
    ``unpaired`` draws (1 for an odd replica count, else 0) and
    ``draw_blocks``, the number of sampled field blocks,
    ``sampling_rel_error``, the float32 sampling path's rounding error: the
    largest relative gap, over every mass key of every configuration
    sampled in the same pass, between the float32 and the float64 masses
    of the first block's first 32 draws, and ``blas``: the sampling
    ``workers`` and whether BLAS was ``pinned`` to one thread.  The pairing,
    ``sampling_rel_error`` and ``blas`` are shared by the records of one
    pass.  ``to_json`` is the one serializer of every diagnostic."""

    value: float
    stderr: float
    replicas: int
    masses: dict
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        diag = {}
        for k, v in self.diagnostics.items():
            if isinstance(v, dict):
                diag[k] = {"_".join(map(str, kk)) if isinstance(kk, tuple)
                           else kk: vv for kk, vv in v.items()}
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


def _sampled_estimates(models, seed: int, replicas: int,
                       window_tol: float) -> list:
    """One ``GmcEstimate`` per mass model of ``models``, which share one
    grid, gamma, rho and measures.  Within one ``_logged_stages`` call it
    factors the grid (``GffEnsemble``), takes each model's
    ``expected_masses``, pools every model's masses in one pass
    (``_pooled_masses``), drops the ensemble and evaluates the zero mode of
    every model (``_zero_mode_estimates``, with ``_sigma_pair`` taken once
    per configuration); one ``_paired_stats`` pass over one table then takes
    the stats of every model's masses and values.  With every measure zero
    there is no zero mode: each replica's value is 1, so the value is the
    Coulomb factor and its stderr 0.0."""
    base = models[0]
    blocks = -(-replicas // (2 * BLOCK))
    with _logged_stages(blocks, base.points.size):
        ensemble = GffEnsemble(base.points, base.rho)
        expected = [m.expected_masses(ensemble.cov_diag) for m in models]
        pooled, sampling = _pooled_masses(models, ensemble, seed, replicas)
        del ensemble    # its factors are not held through the zero mode
        if base.cfg.all_mu_zero:
            zero_modes = [(np.ones(replicas), {})] * len(models)
        else:
            zero_modes = _zero_mode_estimates(
                [(p, m.cfg, _sigma_pair(m.cfg))
                 for p, m in zip(pooled, models)], window_tol)
    table = np.vstack([v for own in pooled for v in own.values()]
                      + [values for values, _ in zero_modes])
    stats = iter(zip(*(column.tolist() for column in _paired_stats(table))))
    masses = [{k: next(stats) for k in own} for own in pooled]
    # the rows after the masses are the models' values, in model order
    return [GmcEstimate(
        model.coulomb * mean, model.coulomb * stderr, replicas, own,
        {"coulomb": model.coulomb, "grid_bulk": int(model.n_bulk_pts),
         "grid_boundary": int(model.bnd_pts.size),
         "empty_arcs": model.empty_arcs, "rho": model.rho,
         "delta": model.delta, "eps": model.eps, "expected_masses": expect,
         "pairs": replicas // 2, "unpaired": replicas % 2,
         "draw_blocks": blocks, **sampling, **zero_mode})
        for model, own, expect, (_, zero_mode), (mean, stderr)
        in zip(models, masses, expected, zero_modes, stats)]


def estimate_correlator(cfg: CorrelatorConfig, delta: float, eps: float,
                        rho: float, replicas: int, *, seed: int = 0,
                        window_tol: float = 1e-8) -> GmcEstimate:
    """Monte Carlo estimate of the correlator at truncation scales
    (delta, eps) and mollification rho.

    With every interaction measure zero the configuration must be neutral;
    the value is then the closed-form Coulomb product and the replicas only
    feed the mass diagnostics.  Otherwise the charge-convergence conditions
    must hold, and each replica's zero-mode factors, one per fundamental-
    weight direction, are evaluated in closed form; a factor's error
    estimate (``diagnostics["tail_increment"]``) above ``window_tol`` raises.

    The ``replicas`` field evaluations are ceil(replicas / 2) draws and
    their mirrors, from ceil(replicas / 1024) sampled blocks.  Stderrs come
    from the pair means, with an unpaired last draw counted as half a pair;
    with fewer than two pairs (under four replicas) they are 0.0.  The
    blocks stream through one per worker at a time, the mirrors'
    reciprocals overwriting the draws' exponentials once the draws' masses
    are taken (``_pooled_masses``).  The mass expectations read the
    covariance diagonal (``GffEnsemble.cov_diag``).  The record is
    ``_sampled_estimates``' for the configuration's mass model.
    """
    if replicas <= 0:
        raise AlgebraError("no data: at least one replica is required")
    if not (delta > 0 and eps > 0 and rho > 0):
        raise AlgebraError(
            "truncation and mollification scales must be positive")
    _check_convergence_conditions(cfg)
    return _sampled_estimates([_MassModel(cfg, delta, eps, rho)], seed,
                              replicas, window_tol)[0]


# ---------------------------------------------------------------------------
# Fusion probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionReport:
    """Log-log slope of the estimated correlator along a merging ladder,
    next to the short-distance exponent and its positive-part correction.
    ``rungs`` holds each sampled rung's ``GmcEstimate``, in ladder order:
    its masses, mass expectations, zero-mode error estimates, empty arcs,
    pairing, sampling rounding error and BLAS pool, all serialized by
    ``GmcEstimate.to_json``.  ``values`` and
    ``stderrs`` are the rungs' values and stderrs at the ``distances``, and
    the fit reads them.  The free case samples nothing: its ``rungs`` are
    empty and its values are the closed-form ``coulomb_value``."""

    slope: float
    exponent: float
    correction: float
    distances: tuple
    values: tuple
    stderrs: tuple
    rungs: tuple = ()

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
                "rungs": [r.to_json() for r in self.rungs]}


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
    all of them) before its worker draws its next block.  So one block's
    exponentials are held per worker, and only the per-rung masses grow
    with the replica count.  Each rung's zero mode is then evaluated in
    closed form, and its record (``rungs``) reports the error estimates.
    The rungs thus re-weight the same (draw, mirror) pairs, and take their
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
    configs = [_moved_config(cfg, kind, i, j, d) for d in ladder]
    if free_case:       # the free case samples nothing
        rungs = ()
        values = tuple(coulomb_value(cfg_d) for cfg_d in configs)
        errs = (0.0,) * len(ladder)
    else:
        anchor = complex(store[i][0])
        base_model = _MassModel(cfg, delta, eps, rho,
                                extra_exclusions=[anchor + d for d in ladder])
        rungs = tuple(_sampled_estimates(
            [base_model.rebound(cfg_d) for cfg_d in configs], seed, replicas,
            1e-8))
        values = tuple(r.value for r in rungs)
        errs = tuple(r.stderr for r in rungs)
    return FusionReport(_log_log_slope(ladder, values), exponent, correction,
                        tuple(ladder), values, errs, rungs)


def _log_log_slope(distances, values) -> float:
    """Least-squares slope of ln value against ln distance, in closed form:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2; 0.0 when the values
    are flat to 1e-14 in the log."""
    y = np.log(np.asarray(values))
    if not np.ptp(y) > 1e-14:
        return 0.0
    x = np.log(np.asarray(distances))
    x -= x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))
