"""Tests for the Gaussian-field sampler and the multiplicative-chaos
correlator estimator."""

import ast
import inspect
import json
import logging
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.linalg.blas import dtrmm
from scipy.special import exp1

from w3toda.algebra_core import (
    E1,
    E2,
    OMEGA1,
    OMEGA2,
    AlgebraError,
    CartanVector,
    inner,
)
from w3toda.free_field import (
    CorrelatorConfig,
    coulomb_log_correlator,
    doubled_insertions,
)
from w3toda import gmc_mc
from w3toda.gmc_mc import (
    BLOCK,
    FusionReport,
    GffEnsemble,
    GmcEstimate,
    coulomb_value,
    estimate_correlator,
    frame_coefficients,
    fusion_probe,
    mollified_covariance,
    zero_mode_window,
)
from w3toda.gmc_mc import (
    _CIRCLE_NODES,
    _EXP1_ZERO,
    _EXP_UNDERFLOW,
    _PROBE_DRAWS,
    _ROOT_COEFFS,
    _MassModel,
    _mean_stderr,
    _moved_config,
    _paired_mean_stderr,
    _pooled_masses,
    _smoothed_log,
    _zero_mode_values,
)

# ---------------------------------------------------------------------------
# shared fixture configurations (all weights exact rationals)

GAMMA_B = F(3, 5)          # q = 59/15
A_BENCH = F(3, 5) * F(59, 15)
B_BENCH = F(2, 5) * F(59, 15)

GAMMA_M = F(4, 5)          # q = 33/10
A_MU = F(3, 5) * F(33, 10)
B_MU2 = F(1, 5) * F(33, 10)
B_MU3 = F(3, 10) * F(33, 10)

BETA_P = (F(4, 5), F(2, 5))            # (6/5) omega1 at gamma = 1
ALPHA_F = (F(9, 5), F(12, 5))


def bench_config():
    """Neutral three-insertion configuration with every measure off."""
    return CorrelatorConfig(
        GAMMA_B,
        bulk=(((F(1, 5), F(3, 5)), (A_BENCH, A_BENCH)),),
        boundary=((F(-1, 2), (B_BENCH, B_BENCH)),
                  (F(2, 5), (B_BENCH, B_BENCH))))


def mu_config():
    """Four-insertion configuration with bulk and boundary measures on."""
    return CorrelatorConfig(
        GAMMA_M,
        bulk=(((F(3, 10), F(1, 2)), (A_MU, A_MU)),
              ((F(-1, 4), F(9, 20)), (A_MU, A_MU))),
        boundary=((F(-1, 2), (B_MU2, B_MU2)), (F(2, 5), (B_MU3, B_MU3))),
        mu_bulk=(F(1, 2), F(7, 10)),
        mu_boundary=((F(3, 10), F(1, 5)), (F(1, 10), F(2, 5))))


def fusion_boundary_config():
    """Neutral config with a light boundary pair suitable for merging."""
    return CorrelatorConfig(
        F(1),
        bulk=(((F(1, 10), F(4, 5)), ALPHA_F),),
        boundary=((F(-1, 5), BETA_P), (F(-1, 10), BETA_P),
                  (F(9, 10), BETA_P)))


PROBE_POINTS = [1j, 2j, 0.5 + 0.8j, -0.3 + 0.4j, 0.2, -0.6, 0.9, 1.5j,
                -0.5 + 1.1j, 0.05 + 0.3j]


def collect_fields(ens, seed, replicas):
    """Pool whole sampling blocks until `replicas` columns are available."""
    acc = []
    for b in range(-(-replicas // BLOCK)):
        count = min(BLOCK, replicas - b * BLOCK)
        acc.append(ens.sample_block(seed, b)[:, :, :count])
    return np.concatenate(acc, axis=2)


def project(u, fields):
    c1, c2 = frame_coefficients(u)
    return c1 * fields[0] + c2 * fields[1]


# ---------------------------------------------------------------------------
# sampler


@pytest.fixture(scope="module")
def fields():
    ens = GffEnsemble(PROBE_POINTS, 0.05)
    return ens, collect_fields(ens, seed=7, replicas=10_000)


@pytest.fixture(scope="module")
def mu_estimate():
    return estimate_correlator(mu_config(), delta=0.12, eps=0.1,
                               rho=0.03, replicas=4096, seed=5)


class TestSampler:
    def test_mean_vanishes(self, fields):
        _, f = fields
        x = project(E1, f)[0]
        assert abs(x.mean()) < 3 * x.std(ddof=1) / math.sqrt(x.size)

    def test_log_covariance_example(self, fields):
        # pairing of the first-root components at i and 2i approaches
        # 2 ln(4/3); the mollified value differs only at the 1e-3 level.
        _, f = fields
        prod = project(E1, f)[0] * project(E1, f)[1]
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - 2 * math.log(4 / 3)) < 3 * se

    def test_orthogonal_directions_uncorrelated(self, fields):
        _, f = fields
        prod = project(E1, f)[0] * project(OMEGA2, f)[0]
        assert abs(prod.mean()) < 3 * prod.std(ddof=1) / math.sqrt(prod.size)

    def test_ten_probe_pairs(self, fields):
        ens, f = fields
        cov = mollified_covariance(ens.points, ens.rho)
        probes = [(E1, E1, 0, 1), (E1, E1, 2, 3), (E2, E2, 0, 2),
                  (E1, E2, 1, 3), (OMEGA1, E1, 0, 4), (E1, E1, 4, 5),
                  (E2, E1, 5, 6), (OMEGA1, OMEGA2, 2, 7), (E1, OMEGA2, 0, 0),
                  (E2, E2, 8, 9)]
        worst = 0.0
        for u, v, a, b in probes:
            prod = project(u, f)[a] * project(v, f)[b]
            target = float(inner(u, v)) * cov[a, b]
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            worst = max(worst, abs(prod.mean() - target) / se)
        assert worst < 3.0

    def test_deterministic_replay(self):
        # a block depends on (seed, block) only, not on the ensemble
        # object or on the blocks drawn before it
        a = GffEnsemble(PROBE_POINTS, 0.05).sample_block(3, 1)
        fresh = GffEnsemble(PROBE_POINTS, 0.05)
        fresh.sample_block(3, 0)
        assert np.array_equal(a, fresh.sample_block(3, 1))
        assert not np.array_equal(a, fresh.sample_block(3, 2))

    def test_mollified_covariance_symmetric_psd(self):
        cov = mollified_covariance(PROBE_POINTS, 0.05)
        assert np.allclose(cov, cov.T)
        np.linalg.cholesky(cov)

    def test_separated_points_match_sharp_kernel(self):
        # far from the mollification scale (and off the unit circle) the
        # smoothed kernel agrees with the exact reflected log kernel.
        cov = mollified_covariance([0.3j, 0.7j], 0.01)
        assert cov[0, 1] == pytest.approx(math.log(2.5), abs=1e-8)

    def test_duplicate_points_rejected(self):
        with pytest.raises(AlgebraError, match="positive semi-definite") \
                as info:
            GffEnsemble([0.5j, 0.5j, 1j], 0.05)
        assert "smallest spacing is 0;" in str(info.value)

    def test_singular_covariance_blames_a_radius_too_large(self):
        # on the gmc_estimate grid (smallest spacing 4/96, on the boundary)
        # rho 0.07 factors and 0.08 does not: the mollified kernel is smooth
        # on the grid scale, so the radius is too large, not too small
        points = _MassModel(mu_config(), 0.12, 0.1, 0.08).points
        assert GffEnsemble(points, 0.07).n == 897
        with pytest.raises(AlgebraError, match="positive semi-definite") \
                as info:
            GffEnsemble(points, 0.08)
        message = str(info.value)
        for part in ("rho 0.08 is too large", "smallest spacing is 0.04167",
                     "dpotrf info ", "smaller rho"):
            assert part in message
        assert "too small" not in message

    def test_keeps_factor_and_diagonal_only(self, monkeypatch):
        # every ensemble factors its own grid through the module-level
        # mollified_covariance and keeps no dense covariance
        calls = []
        real = gmc_mc.mollified_covariance

        def counted(points, rho):
            calls.append(rho)
            return real(points, rho)

        monkeypatch.setattr(gmc_mc, "mollified_covariance", counted)
        ens = GffEnsemble(PROBE_POINTS, 0.05)
        GffEnsemble(PROBE_POINTS, 0.05)
        assert calls == [0.05, 0.05]
        cov = real(PROBE_POINTS, 0.05)
        ref = np.linalg.cholesky(cov)
        # the float32 sampling factor is the float64 factor rounded once
        assert ens.chol.dtype == np.float32
        assert ens.chol.tobytes() == ref.astype(np.float32).tobytes()
        assert ens._factor.tobytes() == ref.tobytes()
        assert ens.cov_diag.tobytes() == np.diag(cov).tobytes()
        assert not hasattr(ens, "cov")

    def test_factor_matches_numpy_on_the_estimate_grid(self):
        # the two bundled OpenBLAS builds, and one build at different thread
        # counts, round potrf differently in the trailing entries of this
        # 897-point grid (by up to 6e-14), so the factors are not compared
        # with each other: each must meet the Cholesky backward-error bound
        # |L L^T - C| <= gamma_{n+1} |L| |L^T| entrywise (Higham, Accuracy
        # and Stability of Numerical Algorithms, Thm 10.3)
        if np.finfo(np.longdouble).eps > 2.0 ** -60:
            pytest.skip("long double is not wider than double here")
        points = _MassModel(mu_config(), 0.12, 0.1, 0.03).points
        cov = mollified_covariance(points, 0.03)
        ens = GffEnsemble(points, 0.03)
        assert ens.n == 897
        gamma = accumulation_bound(ens.n + 1, 2.0 ** -53)
        for factor in (ens._factor, np.linalg.cholesky(cov)):
            residual, scale = cholesky_residual(factor, cov)
            assert np.all(residual <= gamma * scale)
        # the float32 sampling factor is the float64 factor rounded once
        assert ens.chol.tobytes() == \
            ens._factor.astype(np.float32, order="F").tobytes()

    def test_factor_transpose_is_fortran_ordered(self):
        # strmm (and dtrmm, for the float64 factor) take the factor without
        # a copy only in Fortran order and in their own precision
        ens = GffEnsemble(PROBE_POINTS, 0.05)
        assert ens.chol.flags.f_contiguous and ens.chol.dtype == np.float32
        assert ens._factor.flags.f_contiguous
        assert ens._factor.dtype == np.float64

    def test_grid_budget(self):
        pts = np.arange(5000) * 1j + 1j
        with pytest.raises(AlgebraError, match="budget"):
            GffEnsemble(pts, 0.05)

    def test_rho_must_be_positive(self):
        with pytest.raises(AlgebraError, match="positive"):
            GffEnsemble([1j], -0.1)

    def test_block_matches_dense_product(self):
        # the in-place float32 triangular multiply against chol @ normals of
        # the same draw, cast once to float32 and split into the two
        # components.  The reference takes the same float32 operands
        # exactly, in float64; a float32 sum of n products lies within
        # accumulation_bound(n) of the sum of their absolute values
        model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
        ens = GffEnsemble(model.points, 0.03)
        n, gamma_n = ens.n, accumulation_bound(ens.n)
        chol = ens.chol.astype(float)
        for seed, b in ((0, 0), (5, 3)):
            block = ens.sample_block(seed, b)
            normals = np.random.default_rng([seed, b]).standard_normal(
                (n, 2 * BLOCK))
            z = normals.astype(np.float32).astype(float)
            mixed, scale = chol @ z, np.abs(chol) @ np.abs(z)
            dense = np.stack((mixed[:, :BLOCK], mixed[:, BLOCK:]))
            bound = gamma_n * np.stack((scale[:, :BLOCK], scale[:, BLOCK:]))
            assert block.shape == (2, n, BLOCK)
            assert block.dtype == np.float32
            assert np.all(np.abs(block - dense) <= bound)
            # the float64 reference draws: the same normals through the
            # float64 factor, leaving the float32 block's bits alone
            ref = np.empty((2, n, 5))
            again = ens.sample_block(seed, b, ref)
            assert again.tobytes() == block.tobytes()
            exact = ens._factor @ normals
            want = np.stack((exact[:, :5], exact[:, BLOCK:BLOCK + 5]))
            assert np.abs(ref - want).max() <= 1e-12 * np.abs(want).max()


def plain_smoothed_log(d2, tau):
    """-ln d - E1(d^2/tau^2)/2 with exp1 at every entry."""
    safe = np.where(d2 > 0, d2, 1.0)
    return np.where(d2 > 0, -0.5 * np.log(safe) - 0.5 * exp1(safe / (tau * tau)),
                    0.5 * (np.euler_gamma - 2.0 * math.log(tau)))


def plain_covariance(points, rho):
    """The mollified covariance written out term by term, without the
    exp1 cutoff or in-place buffers."""
    p = np.asarray(points, dtype=complex)
    theta = 2 * math.pi * (np.arange(_CIRCLE_NODES) + 0.5) / _CIRCLE_NODES
    circle = np.exp(1j * theta)
    lplus = -plain_smoothed_log(np.abs(p[:, None] - circle[None, :]) ** 2,
                                math.sqrt(2.0) * rho).mean(axis=1)
    direct = plain_smoothed_log(np.abs(p[:, None] - p[None, :]) ** 2, 2 * rho)
    mirror = plain_smoothed_log(np.abs(p[:, None] - np.conj(p)[None, :]) ** 2,
                                2 * rho)
    return direct + mirror + 2.0 * (lplus[:, None] + lplus[None, :])


@pytest.mark.parametrize("rho", [0.003, 0.03, 0.1])
def test_mollified_covariance_matches_plain_formula_bitwise(rho):
    points = _MassModel(mu_config(), 0.12, 0.1, rho).points
    cov = mollified_covariance(points, rho)
    assert cov.tobytes() == plain_covariance(points, rho).tobytes()


def plain_exponents(model, fields):
    """The exponents of ``exponentials`` in the code's operation order,
    in the fields' own precision: gamma folded into each frame coefficient,
    direction 2 as scaled component 1 plus scaled component 0, then the
    boundary rows halved."""
    g, nb = float(model.cfg.gamma), model.n_bulk_pts
    (a1, _), (a2, b2) = _ROOT_COEFFS
    x0, x1 = fields
    phi = np.stack((x0 * (g * a1), x1 * (g * b2) + (g * a2) * x0))
    phi[:, nb:] = 0.5 * phi[:, nb:]
    return phi


def accumulation_bound(n, u=2.0 ** -24):
    """gamma_n = n u / (1 - n u), by default with float32's u = 2^-24: a
    floating-point sum of n products lies within gamma_n times the sum of
    their absolute values of its exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1)."""
    return n * u / (1 - n * u)


def cholesky_residual(factor, cov):
    """Lower triangles, row by row, of |L L^T - C| with L L^T formed in
    long double (whose rounding is 2^-11 of double's), and of |L| |L^T|."""
    low = np.ascontiguousarray(factor, dtype=np.longdouble)
    scale = np.abs(factor) @ np.abs(factor).T
    residual, bound = [], []
    for i in range(low.shape[0]):
        row = low[:i + 1, :i + 1] @ low[i, :i + 1]
        residual.append(np.abs(row - cov[i, :i + 1]).astype(float))
        bound.append(scale[i, :i + 1])
    return np.concatenate(residual), np.concatenate(bound)


def fsum_masses(model, exps, weights=None):
    """Per-key replica masses of float32 exponentials (2, n, R) as math.fsum
    of the exact float64 products of the float32 weights and exponentials,
    each key on its own direction's plane."""
    weights = model.weights.astype(np.float32) if weights is None \
        else weights
    out = {}
    for c, key in enumerate(model.mass_keys):
        rows = np.flatnonzero(weights[:, c])
        w = weights[rows, c].astype(float)
        plane = exps[key[1] - 1][rows].astype(float)
        out[key] = np.array([math.fsum((w * plane[:, r]).tolist())
                             for r in range(plane.shape[1])])
    return out


def test_exponentials_match_plain_formula_bitwise():
    model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
    fields = GffEnsemble(model.points, 0.03).sample_block(2, 1)[:, :, :100]
    want = np.exp(plain_exponents(model, fields))
    got = model.exponentials(fields.copy())
    assert got.dtype == np.float32 and want.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    # in place: the block's own buffer is returned
    assert model.exponentials(fields) is fields
    assert fields.tobytes() == want.tobytes()


def test_masses_match_fsum_within_the_float32_accumulation_bound(monkeypatch):
    # every key's sgemm mass against math.fsum of the same float32 products
    # within the float32 accumulation bound, on full draw and mirror yields
    # and on the partial last block of an odd count
    model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
    ens = GffEnsemble(model.points, 0.03)
    operands, buffers = [], set()
    real_gemm, real_sample = gmc_mc._Blas.gemm, GffEnsemble.sample_block

    def spy(blas, a, w):
        if a.dtype == np.float32:
            operands.append((a.shape, a.ctypes.data))
        return real_gemm(blas, a, w)

    def sampled(self, *args):
        block = real_sample(self, *args)
        buffers.add(block.ctypes.data)
        return block

    monkeypatch.setattr(gmc_mc._Blas, "gemm", spy)
    monkeypatch.setattr(GffEnsemble, "sample_block", sampled)
    replicas, seed = 2 * BLOCK + 301, 4
    (pooled,), _ = _pooled_masses((model,), ens, seed, replicas)
    # one sgemm per yield, each on a whole sampled block's own buffer, not
    # on a copy of it
    assert len(operands) == 4
    assert all(shape == (ens.n, 2 * BLOCK) and data in buffers
               for shape, data in operands)
    monkeypatch.setattr(GffEnsemble, "sample_block", real_sample)
    bound = accumulation_bound(ens.n)
    start = 0
    for b, count in enumerate((2 * BLOCK, 301)):
        exps = model.exponentials(ens.sample_block(seed, b))
        draws = count - count // 2
        want = fsum_masses(model, exps[:, :, :draws])
        mirrors = fsum_masses(model, np.reciprocal(exps[:, :, :count // 2]))
        for key, values in pooled.items():
            got = values[start:start + count]
            ref = np.concatenate((want[key], mirrors[key]))
            assert got.dtype == np.float64 and got.size == count
            assert np.all(np.abs(got - ref) <= bound * ref)
        start += count
    assert start == replicas


def test_masses_on_an_empty_bulk_grid_are_zero():
    # an exclusion radius wider than the bulk lattice leaves only the
    # boundary grid
    cfg = CorrelatorConfig(F(4, 5), bulk=(((F(0), F(1)), (A_MU, A_MU)),),
                           boundary=())
    model = _MassModel(cfg, 0.12, 3.0, 0.03)
    assert model.n_bulk_pts == 0 and model.bnd_pts.size > 0
    fields = GffEnsemble(model.points, 0.03).sample_block(1, 0)[:, :, :7]
    masses = model.masses(model.exponentials(fields))
    assert masses[("bulk", 1)].tobytes() == np.zeros(7).tobytes()
    assert masses[("bulk", 2)].tobytes() == np.zeros(7).tobytes()
    assert np.all(masses[("boundary", 1, 0)] > 0)


def test_gmc_layer_calls_no_numpy_blas():
    """Every dense product and factorization of ``gmc_mc`` goes through
    ``scipy.linalg``'s BLAS and LAPACK: numpy bundles a second OpenBLAS
    whose thread pool contends with scipy's on a small host.  So the module
    holds no ``@`` and no call to ``np.dot``, ``np.matmul``, ``np.inner``,
    ``np.einsum``, ``np.tensordot`` or ``np.linalg``.

    One numpy call that reaches numpy's LAPACK is allowed: ``np.polyfit``
    (the 4 x 2 least-squares fit of ``fusion_probe``, single-threaded).
    The Gauss-Legendre rule comes from ``hyp_numeric.legendre_rule``, which
    computes each node count once."""
    tree = ast.parse(inspect.getsource(gmc_mc))
    banned = {"dot", "matmul", "inner", "einsum", "tensordot", "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in banned \
                and isinstance(node.value, ast.Name) and node.value.id == "np":
            found.append(f"line {node.lineno}: np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "numpy":
            found.append(f"line {node.lineno}: from {node.module} import")
    assert found == []


def bench_grid_models(grid, rho):
    """The mass models of one benchmark workload's grid: the
    ``gmc_estimate`` model, or the four rung models of ``fusion_ladder``
    (boundary pair (0, 1) moved along its ladder)."""
    cfg = mu_config()
    if grid == "gmc_estimate":
        return (_MassModel(cfg, 0.12, 0.1, rho),)
    ladder = (0.006, 0.009, 0.0135, 0.02)
    anchor = complex(float(cfg.boundary[0][0]))
    base = _MassModel(cfg, 0.12, 0.12, rho,
                      extra_exclusions=[anchor + d for d in ladder])
    return tuple(base.rebound(_moved_config(cfg, "boundary", 0, 1, d))
                 for d in ladder)


@pytest.mark.parametrize("grid", ["gmc_estimate", "fusion_ladder"])
@pytest.mark.parametrize("rho", [0.003, 0.03, 0.07])
def test_float32_masses_match_float64_reference(grid, rho):
    # one block (its draws, then their mirrors) of float32 masses against
    # the same normals taken through the float64 path: scipy's Cholesky
    # factor, BLAS dtrmm, np.exp and math.fsum over the float64 weights.
    # 0.07 is the widest radius these grids factor: from 0.08 on the
    # mollified covariance is numerically singular, and at 0.07 (condition
    # number about 2e14) numpy's OpenBLAS build already gives a factor
    # 3.6e-6 away from scipy's, a different realization of the same law,
    # and scipy's own factor at another thread count moves the probe's gap
    # on the gmc_estimate grid from 7.2e-7 to 1.7e-6; so the reference
    # factors on one thread too, as the layer does
    models, seed = bench_grid_models(grid, rho), 8
    points = models[0].points
    ens = GffEnsemble(points, rho)
    pooled, sampling = _pooled_masses(models, ens, seed, 2 * BLOCK)
    rel_error = sampling["sampling_rel_error"]
    normals = np.random.default_rng([seed, 0]).standard_normal(
        (ens.n, 2 * BLOCK))
    with gmc_mc._one_blas_thread():
        chol = cholesky(mollified_covariance(points, rho), lower=True)
        mixed = dtrmm(1.0, chol, normals, lower=1)
    x0, x1 = mixed[:, :BLOCK], mixed[:, BLOCK:]
    g, nb = float(models[0].cfg.gamma), models[0].n_bulk_pts
    phi = np.stack([g * (c1 * x0 + c2 * x1) for c1, c2 in _ROOT_COEFFS])
    phi[:, nb:] *= 0.5
    probe_gap = 0.0
    for model, masses in zip(models, pooled):
        draws = fsum_masses(model, np.exp(phi), model.weights)
        mirrors = fsum_masses(model, np.exp(-phi), model.weights)
        for key, got in masses.items():
            want = np.concatenate((draws[key], mirrors[key]))
            if not want.any():          # an empty arc: both exactly zero
                assert not got.any()
                continue
            gap = np.abs(got - want) / want
            assert gap.max() <= 1e-5
            probe_gap = max(probe_gap, gap[:_PROBE_DRAWS].max())
    # the reported error is that gap on the first block's first draws
    assert 0 < rel_error == pytest.approx(probe_gap, rel=1e-6)
    # and taking it moved no mass: the first model's draws without it
    first = models[0]
    plain = first.masses(first.exponentials(ens.sample_block(seed, 0)))
    for key, values in plain.items():
        assert values.tobytes() == pooled[0][key][:BLOCK].tobytes()


def synthetic_sampler(phi_max, blocks=None):
    """A stand-in for ``GffEnsemble.sample_block``: every field zero but
    component 0 at the first (bulk) grid point of the first draw, set so
    that direction 1's exponent there is ``phi_max`` (on the given blocks
    only, if ``blocks`` is given)."""
    g = float(mu_config().gamma)

    def sample_block(self, seed, block, reference=None, workspace=None):
        buf = np.zeros((self.n, 2 * BLOCK), dtype=np.float32)
        if blocks is None or block in blocks:
            buf[0, 0] = phi_max / (g * _ROOT_COEFFS[0][0])
        if reference is not None:
            reference[...] = 0.0
        return buf.reshape(self.n, 2, BLOCK).transpose(1, 0, 2)
    return sample_block


@pytest.mark.parametrize("phi_max", [89.0, -89.0])
def test_non_finite_mass_raises_naming_gamma_rho_and_phi(monkeypatch,
                                                         phi_max):
    # float32 exp overflows above 88.72: a draw at phi = 89 has an
    # infinite exponential, and the mirror of a draw at -89 the reciprocal
    # of a subnormal one; each raises instead of returning inf, and numpy
    # warns of nothing
    model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
    ens = GffEnsemble(model.points, 0.03)
    monkeypatch.setattr(GffEnsemble, "sample_block",
                        synthetic_sampler(phi_max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraError, match="not finite") as info:
            _pooled_masses((model,), ens, 1, 2 * BLOCK)
    message = str(info.value)
    largest = float(np.abs(model.exponents(ens.sample_block(1, 0))).max())
    assert largest == pytest.approx(89.0, rel=1e-6)
    for part in ("block 0", "gamma 0.8", "rho 0.03", f"{largest:.6g}",
                 "88.72"):
        assert part in message


def test_finite_masses_just_below_the_float32_exp_limit(monkeypatch):
    model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
    ens = GffEnsemble(model.points, 0.03)
    monkeypatch.setattr(GffEnsemble, "sample_block", synthetic_sampler(88.0))
    (pooled,), _ = _pooled_masses((model,), ens, 1, 2 * BLOCK)
    assert all(np.isfinite(v).all() for v in pooled.values())
    assert pooled[("bulk", 1)][0] > 1e30


def hexed(blob):
    """A JSON value with every float written as ``float.hex``, so that two
    values compare equal only bit for bit."""
    if isinstance(blob, float):
        return blob.hex()
    if isinstance(blob, dict):
        return {k: hexed(v) for k, v in blob.items()}
    if isinstance(blob, (list, tuple)):
        return [hexed(v) for v in blob]
    return blob


FUSION_LADDER = (0.006, 0.009, 0.0135, 0.02)


def seeded_outputs(replicas, seed):
    """``to_json`` of a seeded estimate and a seeded fusion probe on the
    benchmark grids, every float as ``float.hex``, with the sampling worker
    count (the one field allowed to differ) taken out."""
    est = estimate_correlator(mu_config(), 0.12, 0.1, 0.03, replicas,
                              seed=seed).to_json()
    rep = fusion_probe(mu_config(), ("boundary", 0, 1), FUSION_LADDER,
                       delta=0.12, eps=0.12, rho=0.003, replicas=replicas,
                       seed=seed).to_json()
    est["diagnostics"]["blas"].pop("workers")
    rep["blas"].pop("workers")
    return hexed([est, rep])


def test_seeded_outputs_are_bitwise_equal_at_one_blas_thread_and_default():
    # one BLAS thread against the inherited default, each in its own
    # subprocess: every field of a seeded estimate and fusion probe, in
    # float.hex, is the same (the layer pins scipy's OpenBLAS to one thread)
    code = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from test_gmc_mc import seeded_outputs
        print(json.dumps(seeded_outputs(2 * 2 * 512 + 301, 11)))
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    args = [sys.executable, "-c", code, str(Path(__file__).resolve().parent)]
    runs = [subprocess.Popen(args, env=e, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for e in (dict(env, OPENBLAS_NUM_THREADS="1"), env)]
    results = []
    for proc in runs:
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    one, default = results
    assert one == default
    est, rep = one
    assert len(est["masses"]) == 6 and len(rep["values"]) == 4
    assert est["diagnostics"]["blas"] == rep["blas"] == \
        {"pinned": gmc_mc._blas().set_threads is not None}


@pytest.mark.parametrize("replicas", [2 * 2 * BLOCK, 3 * 2 * BLOCK + 301])
def test_seeded_outputs_are_bitwise_equal_on_one_and_two_workers(
        monkeypatch, replicas):
    # each block writes its own rows, so the worker count moves no bit;
    # 3 * 2 * BLOCK + 301 is an odd count whose partial last block falls
    # to the second of two workers.  Four workers (more than this host's
    # CPUs, one block each) switching threads every microsecond must give
    # the same bits too
    outputs = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for width in (1, 2, 4):
            monkeypatch.setattr(gmc_mc, "_worker_count",
                                lambda blocks, width=width: min(width, blocks))
            outputs.append(seeded_outputs(replicas, 5))
    finally:
        sys.setswitchinterval(switch)
    assert outputs[0] == outputs[1] == outputs[2]


def test_overflow_in_a_worker_raises_the_lowest_failing_block(monkeypatch):
    # blocks 1 and 2 overflow, on the second and the first of two workers;
    # the error is the one a serial loop would raise (block 1), numpy warns
    # of nothing in either worker, and no sampling thread is left running
    model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
    ens = GffEnsemble(model.points, 0.03)
    monkeypatch.setattr(gmc_mc, "_worker_count", lambda blocks: 2)
    monkeypatch.setattr(GffEnsemble, "sample_block",
                        synthetic_sampler(89.0, blocks={1, 2}))
    before = set(threading.enumerate())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraError, match="not finite") as info:
            _pooled_masses((model,), ens, 1, 3 * 2 * BLOCK)
    message = str(info.value)
    assert "sampling block 1 " in message and "88.72" in message
    assert set(threading.enumerate()) == before


def test_no_sampling_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(gmc_mc, "_worker_count",
                        lambda blocks: min(2, blocks))
    before = set(threading.enumerate())
    est = estimate_correlator(mu_config(), 0.12, 0.1, 0.03, 3 * 2 * BLOCK,
                              seed=2)
    assert est.diagnostics["blas"]["workers"] == 2
    assert set(threading.enumerate()) == before
    assert not [t for t in threading.enumerate()
                if t.name.startswith("w3toda-gmc")]


def blas_threads():
    """OpenBLAS's thread-count setter of the GMC layer, or a skip."""
    set_threads = gmc_mc._blas().set_threads
    if set_threads is None:
        pytest.skip("this OpenBLAS build cannot be pinned to one thread")
    return set_threads


def test_the_callers_blas_thread_count_is_restored(monkeypatch):
    # the count is one while the blocks are drawn, and the caller's own
    # count again afterwards
    set_threads = blas_threads()
    seen = []
    real = GffEnsemble.sample_block

    def spy(self, *args):
        seen.append(set_threads(1))     # the count in force, left as it is
        return real(self, *args)

    monkeypatch.setattr(GffEnsemble, "sample_block", spy)
    old = set_threads(2)
    try:
        est = estimate_correlator(mu_config(), 0.12, 0.1, 0.03, 2 * 2 * BLOCK,
                                  seed=3)
        assert set_threads(2) == 2
    finally:
        set_threads(old)
    assert seen == [1, 1]
    assert est.diagnostics["blas"]["pinned"] is True


def test_pins_of_several_threads_restore_the_first_count():
    # the count is process-wide: a pin taken by a second thread outlives
    # the first holder's, and the last holder to leave restores the count
    # the first one found
    set_threads = blas_threads()
    inside, release = threading.Event(), threading.Event()

    def hold():
        with gmc_mc._one_blas_thread():
            inside.set()
            release.wait(30)

    old = set_threads(2)
    try:
        with gmc_mc._one_blas_thread():
            other = threading.Thread(target=hold)
            other.start()
            assert inside.wait(30)
        assert set_threads(1) == 1      # still pinned by the other thread
        release.set()
        other.join(30)
        assert not other.is_alive()
        assert set_threads(2) == 2
    finally:
        release.set()
        set_threads(old)


def test_pin_count_survives_many_threads_switching_often():
    # in each of six rounds, eight threads take and drop the pin 2,000
    # times each, switching every microsecond: a lost update of the holder
    # count would leave the count pinned, or restore it while another
    # thread still holds the pin.  Without the lock, a round shows it about
    # every other time
    set_threads = blas_threads()
    errors = []

    def churn():
        for _ in range(2000):
            with gmc_mc._one_blas_thread():
                if set_threads(1) != 1:
                    errors.append("unpinned while held")

    old = set_threads(2)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(6):
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert gmc_mc._pin["holders"] == 0
            assert set_threads(2) == 2
    finally:
        sys.setswitchinterval(switch)
        set_threads(old)


def test_sampling_reports_workers_and_pin_and_logs_them(caplog):
    with caplog.at_level(logging.DEBUG, logger="w3toda"):
        est = estimate_correlator(mu_config(), 0.12, 0.1, 0.03, 3 * 2 * BLOCK,
                                  seed=4)
    blas = est.diagnostics["blas"]
    pinned = gmc_mc._blas().set_threads is not None
    assert blas == {"workers": gmc_mc._worker_count(3), "pinned": pinned}
    assert 1 <= blas["workers"] <= 3
    assert json.loads(json.dumps(est.to_json()))["diagnostics"]["blas"] == blas
    lines = [r.getMessage() for r in caplog.records if r.name == "w3toda"]
    pin = "pinned to one thread" if pinned else "not pinned"
    assert lines == [f"gmc_mc: 3 blocks of 897 points on {blas['workers']} "
                     f"workers, BLAS {pin}"]
    rep = fusion_probe(mu_config(), ("boundary", 0, 1), FUSION_LADDER,
                       delta=0.12, eps=0.12, rho=0.003, replicas=64, seed=3)
    assert rep.to_json()["blas"] == {"workers": 1, "pinned": pinned}
    free = fusion_probe(fusion_boundary_config(), ("boundary", 0, 1),
                        TestFusionProbe.LADDER, delta=0.1, eps=0.002,
                        rho=0.004, replicas=16)
    assert free.to_json()["blas"] == {}     # the free case samples nothing


def plain_zero_mode_values(masses, cfg, windows, nodes=128):
    """The zero-mode integrals with ``np.exp`` taken on every argument."""
    gamma, total = float(cfg.gamma), 1.0
    for window, sigma, (bulk, bnd) in zip(windows, gmc_mc._sigma_pair(cfg),
                                          gmc_mc._measure_terms(masses, cfg)):
        v, lin = gmc_mc._gauss_nodes(window, sigma, nodes)
        expo = (np.multiply.outer(-np.exp(gamma * v), bulk)
                - np.multiply.outer(np.exp(0.5 * gamma * v), bnd))
        total = total * (lin @ np.exp(expo))
    return total / math.sqrt(3.0), expo


def test_zero_mode_values_skip_only_exact_zeros():
    # exp rounds to 0.0 below the threshold, so skipping it there moves no
    # bit; on the benchmark's configuration about 40 % of the arguments
    # lie below it
    assert np.exp(np.nextafter(_EXP_UNDERFLOW, -np.inf)) == 0.0
    cfg, replicas = mu_config(), 2048
    est = estimate_correlator(cfg, 0.12, 0.1, 0.03, replicas, seed=3)
    model = _MassModel(cfg, 0.12, 0.1, 0.03)
    (pooled,), _ = _pooled_masses(
        (model,), GffEnsemble(model.points, 0.03), 3, replicas)
    windows = est.diagnostics["window"]
    plain, expo = plain_zero_mode_values(pooled, cfg, windows)
    assert (expo < _EXP_UNDERFLOW).mean() > 0.1
    got = _zero_mode_values(pooled, cfg, windows)
    assert got.tobytes() == plain.tobytes()


class TestSmoothedLogCutoff:
    def test_exp1_is_zero_from_the_cutoff_on(self):
        # the cutoff only skips work if exp1 is exactly 0.0 past it
        assert exp1(_EXP1_ZERO) == 0.0
        x = np.geomspace(_EXP1_ZERO, 1e12, 4001)
        assert np.all(exp1(x) == 0.0)
        assert exp1(np.inf) == 0.0

    def test_matches_plain_exp1_formula_bitwise(self):
        tau = 0.006
        x = [738.0, 738.5279211809931, 739.0, np.nextafter(_EXP1_ZERO, 0),
             _EXP1_ZERO, np.nextafter(_EXP1_ZERO, np.inf), 1e4]
        d2 = np.array([0.0, 1e-12, tau * tau, 0.25, 1.0, 3.0]
                      + [v * tau * tau for v in x])
        assert exp1(738.0) > 0.0        # some inputs still need exp1
        plain = plain_smoothed_log(d2, tau)
        assert _smoothed_log(d2, tau).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("tau", [0.006, 0.06, 0.5])
    def test_matches_radial_integral(self, tau):
        # E[-ln|d + Z|] = -int_0^inf ln max(d, r) (2r/tau^2) e^{-r^2/tau^2} dr,
        # the circle average of ln|d + r e^{i theta}| being ln max(d, r)
        mpmath = pytest.importorskip("mpmath")
        ratios = [0.0, 1e-3, 0.5, 1.0, 4.0, 50.0, 700.0, 738.0, 739.0,
                  _EXP1_ZERO, 745.0, 2000.0]
        d2 = np.array([x * tau * tau for x in ratios])
        got = _smoothed_log(d2, tau)
        with mpmath.workdps(30):
            t = mpmath.mpf(tau)
            for x, value in zip(ratios, got):
                d = t * mpmath.sqrt(x)

                def integrand(r):
                    return (mpmath.log(max(d, r)) * 2 * r / t ** 2
                            * mpmath.exp(-(r / t) ** 2))
                cuts = [0, d, mpmath.inf] if d > 0 else [0, mpmath.inf]
                exact = -mpmath.quad(integrand, cuts)
                assert abs(value - float(exact)) <= 1e-14 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# closed-form correlator value


class TestCoulombValue:
    def test_matches_direct_pairing_sum(self):
        cfg = bench_config()
        ins = [(complex(0.2, 0.6), cfg.bulk[0][1], True),
               (complex(-0.5, 0.0), cfg.boundary[0][1], False),
               (complex(0.4, 0.0), cfg.boundary[1][1], False)]
        half = [(z, w if bulk else w * F(1, 2), bulk) for z, w, bulk in ins]
        log_c = 0.0
        for j, (zj, wj, _) in enumerate(half):
            for k, (zk, wk, _) in enumerate(half):
                if j == k:
                    continue
                g = (-math.log(abs(zj - zk))
                     - math.log(abs(zj - zk.conjugate())))
                log_c += 0.5 * float(inner(wj, wk)) * g
        for z, w, bulk in half:
            if bulk:
                log_c -= 0.5 * float(inner(w, w)) * math.log(abs(z - z.conjugate()))
        assert math.log(coulomb_value(cfg)) == pytest.approx(log_c, abs=1e-12)

    def test_matches_half_exponent_table(self):
        cfg = bench_config()
        table = coulomb_log_correlator(cfg)
        pts = [complex(z.re, z.im) for z, _ in doubled_insertions(cfg)]
        log_half = sum(0.5 * float(e) * math.log(abs(pts[k] - pts[l]))
                       for (k, l), e in table.items() if k != l)
        assert math.log(coulomb_value(cfg)) == pytest.approx(log_half, abs=1e-12)


# ---------------------------------------------------------------------------
# correlator estimation


class TestEstimateCorrelator:
    def test_value_and_stderr_positive(self, mu_estimate):
        assert mu_estimate.value > 0
        assert mu_estimate.stderr > 0
        assert mu_estimate.replicas == 4096

    def test_masses_match_deterministic_quadrature(self, mu_estimate):
        expected = mu_estimate.diagnostics["expected_masses"]
        for key, (mean, se) in mu_estimate.masses.items():
            assert abs(mean - expected[key]) < 3 * se

    def test_window_and_tail_reported(self, mu_estimate):
        (w1, w2) = mu_estimate.diagnostics["window"]
        assert w1[0] < w1[1] and w2[0] < w2[1]
        for tail in mu_estimate.diagnostics["tail_increment"]:
            assert tail < 1e-8
        assert 0 <= mu_estimate.diagnostics["quad_error"] < 1e-5
        assert mu_estimate.diagnostics["empty_arcs"] == ()
        assert 0 < mu_estimate.diagnostics["sampling_rel_error"] <= 1e-5

    def test_stderr_scales_with_replicas(self, mu_estimate):
        est4 = estimate_correlator(mu_config(), delta=0.12, eps=0.1,
                                   rho=0.03, replicas=4 * 4096, seed=5)
        ratio = mu_estimate.stderr / est4.stderr
        assert 1.4 < ratio < 2.8
        assert abs(est4.value - mu_estimate.value) < 3 * (
            mu_estimate.stderr + est4.stderr)

    def test_free_case_equals_closed_form(self):
        cfg = bench_config()
        est = estimate_correlator(cfg, delta=0.1, eps=0.08, rho=0.03,
                                  replicas=2048, seed=1)
        assert est.value == coulomb_value(cfg)
        assert est.stderr == 0.0

    def test_rho_doubling_mass_stable(self):
        cfg = mu_config()
        est_a = estimate_correlator(cfg, delta=0.15, eps=0.1, rho=0.015,
                                    replicas=5000, seed=9)
        est_b = estimate_correlator(cfg, delta=0.15, eps=0.1, rho=0.03,
                                    replicas=5000, seed=9)
        m_a, s_a = est_a.masses[("bulk", 1)]
        m_b, s_b = est_b.masses[("bulk", 1)]
        assert abs(m_a - m_b) < 3 * math.hypot(s_a, s_b)

    def test_one_zero_mode_estimate_per_value(self, monkeypatch):
        calls = []
        real = gmc_mc._zero_mode_estimate

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(gmc_mc, "_zero_mode_estimate", counted)
        estimate_correlator(mu_config(), delta=0.12, eps=0.1, rho=0.03,
                            replicas=64, seed=1)
        assert len(calls) == 1
        estimate_correlator(bench_config(), delta=0.1, eps=0.08, rho=0.03,
                            replicas=64, seed=1)
        assert len(calls) == 1          # the free case has no zero mode
        ladder = [0.006, 0.009, 0.0135]
        rep = fusion_probe(mu_config(), ("boundary", 0, 1), ladder,
                           delta=0.12, eps=0.12, rho=0.003, replicas=64,
                           seed=3)
        assert len(calls) == 1 + len(ladder) == 1 + len(rep.values)
        # one call per rung, each on that rung's moved configuration
        assert [float(c.boundary[1][0]) for c in calls[1:]] == \
            pytest.approx([-0.5 + d for d in ladder], abs=1e-12)

    def test_mean_stderr_is_the_sample_formula(self):
        # sample variance with n - 1: (6.25 + 2.25 + 0.25 + 12.25) / 3 = 7
        mean, err = _mean_stderr(np.array([1.0, 2.0, 4.0, 7.0]))
        assert mean == 3.5
        assert err == pytest.approx(math.sqrt(7.0) / 2, rel=1e-15)
        assert _mean_stderr(np.array([5.0])) == (5.0, 0.0)

    def test_to_json_round_trip_keys(self, mu_estimate):
        blob = mu_estimate.to_json()
        assert set(blob) >= {"value", "stderr", "replicas", "masses",
                             "diagnostics"}
        assert "bulk_1" in blob["masses"]
        assert "boundary_1_0" in blob["masses"]

    def test_zero_replicas_rejected(self):
        with pytest.raises(AlgebraError, match="no data"):
            estimate_correlator(bench_config(), 0.1, 0.1, 0.05, 0)

    def test_free_non_neutral_rejected(self):
        cfg = CorrelatorConfig(GAMMA_B, bulk=(((0, 1), (1, 1)),))
        with pytest.raises(AlgebraError, match="neutral"):
            estimate_correlator(cfg, 0.1, 0.1, 0.05, 10)

    def test_nonpositive_charge_pairing_rejected(self):
        cfg = CorrelatorConfig(GAMMA_M, bulk=(((0, 1), (1, 1)),),
                               mu_bulk=(F(1), F(1)))
        with pytest.raises(AlgebraError, match="fundamental weight"):
            estimate_correlator(cfg, 0.1, 0.1, 0.05, 10)

    def test_heavy_bulk_insertion_rejected(self):
        # total charge is fine but one bulk weight breaks the per-insertion
        # bound along the first simple root.
        cfg = CorrelatorConfig(GAMMA_M,
                               bulk=(((0, 1), (F(23, 5), F(7, 2))),),
                               mu_bulk=(F(1), F(1)))
        assert not cfg.seiberg_ok
        with pytest.raises(AlgebraError, match="bulk insertion"):
            estimate_correlator(cfg, 0.1, 0.1, 0.05, 10)

    def test_unsuppressed_direction_rejected(self):
        base = mu_config()
        cfg = CorrelatorConfig(GAMMA_M, bulk=base.bulk,
                               boundary=base.boundary,
                               mu_bulk=(F(1, 2), F(0)),
                               mu_boundary=((F(3, 10), F(0)),
                                            (F(1, 10), F(0))))
        with pytest.raises(AlgebraError, match="direction 2"):
            estimate_correlator(cfg, 0.1, 0.1, 0.05, 10)


class TestZeroModeWindow:
    def test_window_contains_mode_and_tiny_tail(self):
        window, tail = zero_mode_window(1.2, 0.8, 0.7, 0.4)
        assert window[0] < window[1]
        assert tail < 1e-8

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(AlgebraError, match="fundamental-weight"):
            zero_mode_window(-0.5, 0.8, 0.7, 0.4)

    def test_unsuppressed_rejected(self):
        with pytest.raises(AlgebraError, match="suppresses"):
            zero_mode_window(1.0, 0.8, 0.0, 0.0)

    @pytest.mark.parametrize("args, reason", [
        ((1.0, 0.8, 1e-320, 0.0), "out of floating-point range"),
        ((1.0, 0.8, 0.0, 1e-320), "out of floating-point range"),
        ((1e-300, 0.8, 1.0, 0.0), "did not stabilize"),
    ])
    def test_extreme_terms_rejected_by_name_without_warning(self, args,
                                                             reason):
        # a subnormal measure term puts the mode where e^(gamma v)
        # overflows; a vanishing rate never lets the window close
        _, _, bulk, bnd = args
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraError, match=reason) as info:
                zero_mode_window(*args)
        assert f"bulk_term {bulk!r}, bnd_term {bnd!r}" in str(info.value)


# ---------------------------------------------------------------------------
# pair-merging probe


class TestFusionProbe:
    LADDER = [0.01, 0.015, 0.0225, 0.034]

    def test_boundary_pair_two_sided(self):
        rep = fusion_probe(fusion_boundary_config(), ("boundary", 0, 1),
                           self.LADDER, delta=0.1, eps=0.002, rho=0.004,
                           replicas=256, seed=2)
        assert rep.exponent == pytest.approx(-0.48, abs=1e-12)
        assert rep.correction == 0.0
        assert abs(rep.slope - rep.exponent) < 0.1
        assert rep.satisfied()

    def test_zero_weight_pair_slope_zero(self):
        cfg = CorrelatorConfig(
            F(1),
            bulk=(((F(1, 10), F(4, 5)), ALPHA_F),),
            boundary=((F(-1, 5), BETA_P), (F(-1, 10), (F(0), F(0))),
                      (F(9, 10), (F(8, 5), F(4, 5)))))
        rep = fusion_probe(cfg, ("boundary", 0, 1), self.LADDER,
                           delta=0.1, eps=0.002, rho=0.004, replicas=256,
                           seed=2)
        assert rep.slope == 0.0
        assert rep.exponent == 0.0
        assert rep.satisfied()

    def test_bulk_pair_one_sided(self):
        a4 = F(6, 5)
        cfg = CorrelatorConfig(
            F(1),
            bulk=(((F(-3, 20), F(11, 20)), (a4, a4)),
                  ((F(1, 4), F(3, 5)), (a4, a4))),
            boundary=((F(-3, 10), (a4, a4)),))
        rep = fusion_probe(cfg, ("bulk", 0, 1), self.LADDER,
                           delta=0.1, eps=0.002, rho=0.004, replicas=256,
                           seed=2)
        assert rep.exponent == pytest.approx(-2.88, abs=1e-12)
        assert rep.satisfied()

    def test_sampled_boundary_pair_bound(self):
        rep = fusion_probe(mu_config(), ("boundary", 0, 1),
                           [0.006, 0.009, 0.0135, 0.02], delta=0.12,
                           eps=0.12, rho=0.003, replicas=1024, seed=3)
        assert rep.exponent == pytest.approx(-0.6534, abs=1e-12)
        assert rep.satisfied()
        # every rung grows its own zero-mode window and reports its tails
        assert len(rep.tail_increments) == len(rep.values)
        for pair in rep.tail_increments:
            assert len(pair) == 2
            assert all(0 <= t <= 1e-8 for t in pair)
        assert len(rep.quad_errors) == len(rep.values)
        assert all(0 <= e < 1e-5 for e in rep.quad_errors)
        # eps = 0.12 covers the whole arc between the merging pair
        assert rep.empty_arcs == (((1, 0), (2, 0)),) * len(rep.values)
        blob = rep.to_json()
        assert blob["tail_increments"] == [list(p) for p in rep.tail_increments]
        assert blob["quad_errors"] == list(rep.quad_errors)
        assert blob["empty_arcs"] == [[[1, 0], [2, 0]]] * len(rep.values)
        assert 0 < rep.sampling_rel_error <= 1e-5
        assert blob["sampling_rel_error"] == rep.sampling_rel_error

    def test_rungs_reweight_shared_exponentials_bitwise(self):
        cfg = mu_config()
        ladder = [0.006, 0.02]
        anchor = complex(float(cfg.boundary[0][0]))
        base = _MassModel(cfg, 0.12, 0.12, 0.003,
                          extra_exclusions=[anchor + d for d in ladder])
        fields = GffEnsemble(base.points, 0.003).sample_block(3, 0)[:, :, :64]
        # exponentials work in place: each rung gets its own copy
        shared = base.exponentials(fields.copy())
        rungs = []
        for d in ladder:
            model = base.rebound(_moved_config(cfg, "boundary", 0, 1, d))
            own = model.masses(model.exponentials(fields.copy()))
            reweighted = model.masses(shared)
            assert own.keys() == reweighted.keys()
            for k in own:
                assert own[k].tobytes() == reweighted[k].tobytes()
            rungs.append(own)
        # the rungs do see different weights
        assert not np.array_equal(rungs[0][("bulk", 1)], rungs[1][("bulk", 1)])

    def test_report_serializes(self):
        rep = FusionReport(slope=-0.5, exponent=-0.48, correction=0.0,
                           distances=(0.1, 0.2), values=(1.0, 2.0),
                           stderrs=(0.0, 0.0))
        blob = rep.to_json()
        assert blob["bound"] == -0.48
        assert blob["satisfied"] is True
        assert blob["tail_increments"] == []
        assert blob["quad_errors"] == [] and blob["empty_arcs"] == []
        assert blob["sampling_rel_error"] == 0.0

    def test_ladder_below_mollification_scale(self):
        with pytest.raises(AlgebraError, match="mollification scale"):
            fusion_probe(fusion_boundary_config(), ("boundary", 0, 1),
                         [0.004, 0.02], delta=0.1, eps=0.002, rho=0.004,
                         replicas=16)

    def test_heavy_pair_hypothesis_rejected(self):
        cfg = CorrelatorConfig(
            F(1),
            bulk=(((F(1, 10), F(4, 5)), ALPHA_F),),
            boundary=((F(-1, 5), (F(3), F(3))), (F(-1, 10), (F(3), F(3))),
                      (F(9, 10), BETA_P)))
        with pytest.raises(AlgebraError, match="hypothesis"):
            fusion_probe(cfg, ("boundary", 0, 1), self.LADDER, delta=0.1,
                         eps=0.002, rho=0.004, replicas=16)

    def test_bad_pair_kind(self):
        with pytest.raises(AlgebraError, match="bulk.*boundary"):
            fusion_probe(fusion_boundary_config(), ("edge", 0, 1),
                         self.LADDER, delta=0.1, eps=0.002, rho=0.004,
                         replicas=16)

    def test_single_replica_rejected(self):
        with pytest.raises(AlgebraError, match="no data"):
            fusion_probe(fusion_boundary_config(), ("boundary", 0, 1),
                         self.LADDER, delta=0.1, eps=0.002, rho=0.004,
                         replicas=1)


# ---------------------------------------------------------------------------
# antithetic pairs: every draw phi is followed by its mirror -phi


def reference_pair_means(values):
    """Pair means walked block by block: a sampling block holds up to
    2 * BLOCK replicas, its draws first, then their mirrors in the same
    order; an odd count's last draw has no mirror."""
    out, start = [], 0
    while start < values.size:
        count = min(2 * BLOCK, values.size - start)
        mirrors = count // 2
        draws = count - mirrors
        out += [(values[start + j] + values[start + draws + j]) / 2
                for j in range(mirrors)]
        start += count
    return np.array(out)


def streamed_exponentials(monkeypatch, models, ens, seed, replicas):
    """Copies of the float32 exponentials every mass GEMM of one
    ``_pooled_masses`` pass read, in order, with its result."""
    seen = []
    real = gmc_mc._key_masses

    def spy(exps, weights, keys):
        if exps.dtype == np.float32:
            seen.append(exps.copy())
        return real(exps, weights, keys)

    monkeypatch.setattr(gmc_mc, "_key_masses", spy)
    pooled = _pooled_masses(models, ens, seed, replicas)
    monkeypatch.setattr(gmc_mc, "_key_masses", real)
    return seen, pooled


class TestAntitheticPairs:
    def test_mirror_exponentials_are_reciprocals_within_three_ulps_of_exp(
            self, monkeypatch):
        # the mirrors are np.reciprocal of the draws' exponentials, bit for
        # bit.  numpy's float32 exp is off by up to 2.4 ulps on this block
        # (2.3 on the draws), and the reciprocal adds one rounding, so a
        # mirror lies within three float32 ulps of exp(-phi) itself,
        # evaluated in float64 (2.8 on this block)
        model = _MassModel(mu_config(), 0.12, 0.1, 0.03)
        ens = GffEnsemble(model.points, 0.03)
        phi = plain_exponents(model, ens.sample_block(2, 0))
        (draws, mirrors), _ = streamed_exponentials(
            monkeypatch, (model,), ens, 2, 2 * BLOCK)
        assert draws.shape == mirrors.shape == (2, ens.n, BLOCK)
        assert draws.tobytes() == np.exp(phi).tobytes()
        assert mirrors.tobytes() == np.reciprocal(np.exp(phi)).tobytes()
        exact = np.exp(-phi.astype(float))
        ulp = np.spacing(exact.astype(np.float32)).astype(float)
        assert np.all(np.abs(mirrors - exact) <= 3 * ulp)
        # a second pass over the stream replays the same bits
        again, _ = streamed_exponentials(monkeypatch, (model,), ens, 2,
                                         2 * BLOCK)
        for a, b in zip(again, (draws, mirrors)):
            assert a.tobytes() == b.tobytes()

    def test_stderrs_are_the_sample_formula_on_pair_means(self):
        cfg, replicas, seed = mu_config(), 2 * 2 * BLOCK + 300, 4
        est = estimate_correlator(cfg, 0.12, 0.1, 0.03, replicas, seed=seed)
        model = _MassModel(cfg, 0.12, 0.1, 0.03)
        (pooled,), _ = _pooled_masses(
            (model,), GffEnsemble(model.points, 0.03), seed, replicas)
        for key, values in pooled.items():
            mean, err = est.masses[key]
            assert mean == float(values.mean())
            pairs = reference_pair_means(values)
            assert pairs.size == replicas // 2
            assert err == pytest.approx(_mean_stderr(pairs)[1], rel=1e-12)
        values = _zero_mode_values(pooled, cfg, est.diagnostics["window"])
        coulomb = est.diagnostics["coulomb"]
        assert est.value == pytest.approx(coulomb * values.mean(), rel=1e-15)
        paired = coulomb * _mean_stderr(reference_pair_means(values))[1]
        assert est.stderr == pytest.approx(paired, rel=1e-12)
        # the replicas of a pair are correlated, so the naive formula on
        # them is a different number
        naive = coulomb * _mean_stderr(values)[1]
        assert est.stderr != pytest.approx(naive, rel=1e-6)

    @pytest.mark.parametrize("replicas", [2 * BLOCK + 301, 3, 1])
    def test_unpaired_draw_counts_as_half_a_pair(self, replicas):
        values = np.random.default_rng(replicas).lognormal(size=replicas)
        mean, err = _paired_mean_stderr(values)
        assert mean == float(values.mean())
        pairs = reference_pair_means(values)
        assert pairs.size == replicas // 2
        if pairs.size < 2:
            assert err == 0.0
        else:
            assert err == pytest.approx(_mean_stderr(pairs)[1] * math.sqrt(
                2 * pairs.size / replicas), rel=1e-12)

    @pytest.mark.parametrize("replicas", [1, 2, 3, BLOCK + 1, 2 * BLOCK + 1])
    def test_odd_and_minimal_replica_counts(self, replicas):
        est = estimate_correlator(mu_config(), 0.12, 0.1, 0.03, replicas,
                                  seed=6)
        assert est.replicas == replicas
        assert math.isfinite(est.value) and est.value > 0
        assert math.isfinite(est.stderr)
        assert (est.stderr > 0) == (replicas >= 4)
        for mean, err in est.masses.values():
            assert math.isfinite(mean) and math.isfinite(err)
        diag = est.diagnostics
        assert diag["pairs"] == replicas // 2
        assert diag["unpaired"] == replicas % 2
        assert diag["draw_blocks"] == -(-replicas // (2 * BLOCK))

    def test_one_draw_block_per_two_blocks_of_replicas(self, monkeypatch):
        calls = []
        real = GffEnsemble.sample_block

        def counted(self, seed, block, reference=None, workspace=None):
            calls.append(block)
            return real(self, seed, block, reference, workspace)

        monkeypatch.setattr(GffEnsemble, "sample_block", counted)
        est = estimate_correlator(bench_config(), delta=0.1, eps=0.08,
                                  rho=0.03, replicas=50_000, seed=1)
        # each block drawn once, in whatever order the workers reach them
        assert sorted(calls) == list(range(49))     # ceil(50_000 / 1024)
        assert est.replicas == 50_000
        assert (est.diagnostics["pairs"], est.diagnostics["unpaired"],
                est.diagnostics["draw_blocks"]) == (25_000, 0, 49)

    def test_rungs_reweight_the_same_pairs_bitwise(self, monkeypatch):
        cfg, ladder, replicas, seed = mu_config(), [0.006, 0.02], \
            2 * BLOCK + 101, 3
        seen = []
        real = gmc_mc._zero_mode_estimate

        def spy(pooled, cfg_d, tol):
            seen.append((cfg_d, pooled))
            return real(pooled, cfg_d, tol)

        monkeypatch.setattr(gmc_mc, "_zero_mode_estimate", spy)
        rep = fusion_probe(cfg, ("boundary", 0, 1), ladder, delta=0.12,
                           eps=0.12, rho=0.003, replicas=replicas, seed=seed)
        anchor = complex(float(cfg.boundary[0][0]))
        base = _MassModel(cfg, 0.12, 0.12, 0.003,
                          extra_exclusions=[anchor + d for d in ladder])
        ens = GffEnsemble(base.points, 0.003)
        assert len(seen) == len(ladder)
        for cfg_d, pooled in seen:
            # a fresh streamed pass for this rung alone: same pairs, same bits
            model = base.rebound(cfg_d)
            (streamed,), _ = _pooled_masses((model,), ens, seed, replicas)
            assert pooled.keys() == streamed.keys()
            for k in streamed:
                assert pooled[k].size == replicas
                assert pooled[k].tobytes() == streamed[k].tobytes()
        assert (rep.pairs, rep.draw_blocks) == (replicas // 2, 2)

    def test_fusion_memory_does_not_grow_with_replicas(self):
        # the rungs share one streamed pass, so only their per-replica
        # masses grow with the count: 4 rungs x 6 masses x 8 bytes each
        kwargs = dict(delta=0.12, eps=0.12, rho=0.003, seed=3)
        ladder = [0.006, 0.009, 0.0135, 0.02]

        def peak(replicas):
            tracemalloc.start()
            try:
                fusion_probe(mu_config(), ("boundary", 0, 1), ladder,
                             replicas=replicas, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fusion_probe(mu_config(), ("boundary", 0, 1), ladder, replicas=4,
                     **kwargs)         # warm-up: first-use allocations
        growth = peak(8192) - peak(2048)
        assert growth < 8 * 2 ** 20

    def test_fusion_needs_two_pairs(self):
        kwargs = dict(delta=0.12, eps=0.12, rho=0.003, seed=3)
        with pytest.raises(AlgebraError, match="no data"):
            fusion_probe(mu_config(), ("boundary", 0, 1), [0.006, 0.02],
                         replicas=3, **kwargs)
        rep = fusion_probe(mu_config(), ("boundary", 0, 1), [0.006, 0.02],
                           replicas=4, **kwargs)
        assert all(math.isfinite(e) and e > 0 for e in rep.stderrs)
        assert (rep.pairs, rep.draw_blocks) == (2, 1)

    def test_pairing_keys_round_trip(self, mu_estimate):
        diag = json.loads(json.dumps(mu_estimate.to_json()))["diagnostics"]
        assert (diag["pairs"], diag["unpaired"], diag["draw_blocks"]) == \
            (2048, 0, 4)
        assert diag["sampling_rel_error"] == \
            mu_estimate.diagnostics["sampling_rel_error"]
        rep = fusion_probe(mu_config(), ("boundary", 0, 1), [0.006, 0.02],
                           delta=0.12, eps=0.12, rho=0.003, replicas=1025,
                           seed=3)
        blob = json.loads(json.dumps(rep.to_json()))
        assert (blob["pairs"], blob["draw_blocks"]) == (512, 2)
        free = fusion_probe(fusion_boundary_config(), ("boundary", 0, 1),
                            TestFusionProbe.LADDER, delta=0.1, eps=0.002,
                            rho=0.004, replicas=16)
        assert (free.to_json()["pairs"], free.to_json()["draw_blocks"],
                free.to_json()["sampling_rel_error"]) == \
            (0, 0, 0.0)     # the free case samples nothing


# ---------------------------------------------------------------------------
# benchmark-scale run (slow-ish; still well under a minute)


class TestBenchmark:
    def test_large_replica_free_benchmark(self):
        cfg = bench_config()
        est = estimate_correlator(cfg, delta=0.1, eps=0.08, rho=0.03,
                                  replicas=100_000, seed=1)
        assert abs(est.value / coulomb_value(cfg) - 1) < 0.02
        mean, se = est.masses[("bulk", 1)]
        expected = est.diagnostics["expected_masses"][("bulk", 1)]
        assert abs(mean - expected) < 3 * se
