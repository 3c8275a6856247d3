"""Tests of the benchmark itself: a tiny-size smoke run of every workload
with its checks, checks that reject corrupted outputs, the traced mode, and
the command's exit codes.

    python3 -m pytest -q bench/tests

The audit scan has no size knob; its smoke test runs the full scan (about
a minute and a half on two CPUs).
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from worker import measure  # noqa: E402
from w3toda.algebra_core import CFrac  # noqa: E402
from w3toda.descendant_forms import FieldPolynomial  # noqa: E402


def tiny(name):
    """Each workload at the smallest size its checks still make sense."""
    return {
        "audit_scan": lambda: W.AuditScan(),
        "exact_chain": lambda: W.ExactChain(config_shapes=((0, 1), (1, 2)),
                                            grid_points=7),
        "gmc_estimate": lambda: W.GmcEstimate(replicas=1024),
        "fusion_ladder": lambda: W.FusionLadder(replicas=256),
    }[name]()


def one_output(workload, seed=3):
    workload.setup(seed)
    return workload.op(W.op_seed(seed, 0))


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", ["exact_chain", "gmc_estimate",
                                  "fusion_ladder", "audit_scan"])
def test_smoke_run_passes_its_checks(name):
    res = measure(tiny(name), base_seed=5, seconds=0)
    assert res["failed"] == 0
    assert res["problems"] == []
    assert res["attempted"] == tiny(name).round_size
    assert all(t > 0 for t in res["times"])


@pytest.mark.parametrize("name", ["exact_chain", "fusion_ladder"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    tracer = tracing.Tracer()
    res = measure(tiny(name), base_seed=2, seconds=0, tracer=tracer)
    assert res["problems"] == [] and res["failed"] == 0
    metrics = tracing.median_metrics(res["summaries"])
    assert list(metrics) == list(tracing.METRICS)
    assert metrics["trace.op_s"]["value"] > 0
    assert metrics["trace.overhead_s"]["value"] > 0
    if name == "exact_chain":
        assert metrics["algebra_core.ratfunc_new.calls"]["value"] > 0
        assert metrics["singular_vectors.verify_null_form.s"]["value"] > 0
        assert metrics["gmc_mc.sample_block.calls"]["value"] == 0
    else:
        assert metrics["gmc_mc.sample_block.calls"]["value"] == 1
        assert metrics["gmc_mc.replicas"]["value"] == 256
        assert metrics["gmc_mc.sample_block.gflops"]["value"] > 0
        assert metrics["gmc_mc.fusion_probe.self_s"]["value"] > 0
    # the wrappers are gone again once the run ends
    from w3toda import algebra_core, gmc_mc

    assert gmc_mc.fusion_probe.__module__ == "w3toda.gmc_mc"
    assert algebra_core.RatFunc.__init__.__qualname__ == "RatFunc.__init__"
    out = tmp_path / "trace.json"
    tracer.write(out, res["summaries"])
    data = json.loads(out.read_text())
    assert data["spans"][0][0] == tracing.OP


# ---------------------------------------------------------------------------
# corrupted outputs are rejected


def test_audit_check_rejects_a_different_convention():
    w = W.AuditScan()
    w.setup(0)
    assert w.check(0, w.frozen) == []
    other = dataclasses.replace(w.frozen, shift=w.frozen.shift + 1)
    assert w.check(0, other)


@pytest.fixture(scope="module")
def chain():
    w = tiny("exact_chain")
    out = one_output(w)
    assert w.check(0, out) == []
    return w, out


def _corrupt_chain(out, field):
    bad = dict(out)
    if field == "null":
        level, _ = out["null"][0]
        bad["null"] = [(level, FieldPolynomial.of([(1, 1)], 1))] + \
            out["null"][1:]
    elif field == "ward":
        rows = list(out["ward"][0])
        rows[0] = CFrac(1)
        bad["ward"] = [tuple(rows)] + out["ward"][1:]
    elif field == "identity":
        holds, res = out["identity"][0]
        bad["identity"] = [(False, res)] + out["identity"][1:]
    elif field == "d1":
        (sym, (a, b)) = out["d1"][0]
        bad["d1"] = [(sym, (a + 1, b))] + out["d1"][1:]
    elif field == "eom":
        rec = out["eom"][-1]
        bad["eom"] = out["eom"][:-1] + [
            dataclasses.replace(rec, status="not covered")]
    elif field == "eom_c":
        bad["eom_c"] = dict(out["eom_c"], c1=out["eom_c"]["c1"] + 1e-6)
    elif field == "probe":
        u, vals = out["probe"]
        bad["probe"] = (u, [vals[0] * (1 + 1e-8)] + vals[1:])
    elif field == "grid":
        row = list(out["grid"][0])
        row[4] = 1e-3
        bad["grid"] = [tuple(row)] + out["grid"][1:]
    elif field == "roots":
        bad["roots"] = (out["roots"][0] + 1,) + out["roots"][1:]
    elif field == "ode":
        (y, s) = out["ode"][0]
        bad["ode"] = [((y[0] * (1 + 1e-3),) + y[1:], s)] + out["ode"][1:]
    elif field == "integrals":
        p = out["integrals"][0]
        bad["integrals"] = (dataclasses.replace(
            p, numeric=p.numeric + 100 * p.quad_error
            + 1e-9 * abs(p.closed_form)),) + out["integrals"][1:]
    return bad


@pytest.mark.parametrize("field", ["null", "ward", "identity", "d1", "eom",
                                   "eom_c", "probe", "grid", "roots", "ode",
                                   "integrals"])
def test_exact_chain_check_rejects_corruption(chain, field):
    w, out = chain
    assert w.check(0, _corrupt_chain(out, field))


@pytest.fixture(scope="module")
def estimate():
    w = tiny("gmc_estimate")
    est = one_output(w)
    assert w.check(0, est) == []
    return w, est


def test_gmc_check_rejects_shifted_mass(estimate):
    w, est = estimate
    key, (mean, se) = next(iter(est.masses.items()))
    masses = dict(est.masses)
    masses[key] = (mean + 10 * se, se)
    assert w.check(0, dataclasses.replace(est, masses=masses))


def test_gmc_check_rejects_large_tail(estimate):
    w, est = estimate
    diag = dict(est.diagnostics, tail_increment=(1e-6, 0.0))
    assert w.check(0, dataclasses.replace(est, diagnostics=diag))


def test_gmc_check_rejects_stderr_below_floor(estimate):
    w, est = estimate
    assert w.check(0, dataclasses.replace(est, stderr=est.value * 1e-3))


def test_gmc_check_rejects_nonpositive_value(estimate):
    w, est = estimate
    assert w.check(0, dataclasses.replace(est, value=-est.value))


def test_gmc_round_check_rejects_disagreeing_estimates(estimate):
    w, est = estimate
    far = dataclasses.replace(est, value=est.value + 20 * est.stderr)
    assert w.check_round([est, est]) == []
    assert w.check_round([est, far])


@pytest.fixture(scope="module")
def report():
    w = tiny("fusion_ladder")
    rep = one_output(w)
    assert w.check(0, rep) == []
    return w, rep


@pytest.mark.parametrize("corrupt", [
    lambda r: {"values": (math.nan,) + r.values[1:]},
    lambda r: {"values": (-r.values[0],) + r.values[1:]},
    lambda r: {"exponent": r.exponent + 0.1},
    lambda r: {"slope": r.bound + 1.0},
], ids=["nan_rung", "negative_rung", "exponent", "slope"])
def test_fusion_check_rejects_corruption(report, corrupt):
    w, rep = report
    assert w.check(0, dataclasses.replace(rep, **corrupt(rep)))


# ---------------------------------------------------------------------------
# the command


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exact_chain", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _run_patched(tmp_path, marker, replacement):
    """Run exact_chain for one operation on a copy of the program whose
    ``hyp_numeric.py`` has ``marker`` replaced."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    hyp = tmp_path / "src" / "w3toda" / "hyp_numeric.py"
    text = hyp.read_text()
    assert marker in text
    hyp.write_text(text.replace(marker, replacement))
    return _run(tmp_path, "--workload", "exact_chain", "--seed", "1",
                "--seconds", "0", "--trace", "0")


def test_command_exits_nonzero_on_a_wrong_result(tmp_path):
    # series values off in the 7th digit
    marker = "    return series_derivatives(spec, sigma, u, orders=0)[0]\n"
    proc = _run_patched(tmp_path, marker,
                        marker.replace("[0]\n", "[0] * (1 + 1e-7)\n"))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "CHECK FAILED" in proc.stderr


def test_command_exits_nonzero_when_an_operation_raises(tmp_path):
    marker = ("def paper_integrals(gamma: float, rel_tol: float = 1e-7)"
              " -> tuple:\n")
    proc = _run_patched(tmp_path, marker,
                        marker + "    raise ArithmeticError('injected')\n")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "raised ArithmeticError('injected')" in proc.stderr


def test_an_operation_that_raises_fails_the_run():
    class Flaky(W.GmcEstimate):
        def op(self, seed):
            if seed % 2:
                raise ArithmeticError("injected")
            return super().op(seed)

    res = measure(Flaky(replicas=1024), base_seed=5, seconds=0)
    assert res["attempted"] == 2 and res["failed"] == 1
    assert any("raised ArithmeticError('injected')" in p
               for p in res["problems"])


def test_command_prints_end_to_end_metrics():
    proc = _run(ROOT, "--workload", "exact_chain", "--seed", "4",
                "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        "op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_op_seeds_are_distinct_across_runs():
    seen = {W.op_seed(base, i) for base in range(20) for i in range(50)}
    assert len(seen) == 20 * 50
