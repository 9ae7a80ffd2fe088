"""Tiny-size smoke test of the campaign benchmark.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q

It checks the plumbing, not the numbers: every metric named in
BENCHMARK.json is printed with its unit, the correctness checks run and
count failures, and the tracer puts every function it wrapped back.
"""
from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))

import adaptive_tomo  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    return done, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_every_campaign_checked(workload, trace):
    done, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    checked = {line.split()[2].rstrip(":")
               for line in done.stdout.splitlines() if line.startswith("check ")}
    assert checked == {c.protocol for c in workloads.build(workload, 3, "unused", "tiny")}
    assert 0 <= result["failed"] <= result["attempted"]
    assert done.returncode == (0 if result["correct"] else 1)
    assert any(line.startswith("provenance ") for line in done.stdout.splitlines())


def test_a_missing_source_tree_exits_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pure-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=150, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_checks_fail_outside_their_windows_and_on_raising_campaigns():
    check = workloads._window_check("exponent", (-1.1, -0.9))
    assert check(-1.0)[0] and not check(-0.5)[0]

    def boom():
        raise adaptive_tomo.BudgetError("boom")

    campaigns = [workloads.Campaign("static", 1, lambda: -1.0, check),
                 workloads.Campaign("adaptive", 1, boom, check)]
    results = run.check_pass(campaigns, run.run_pass(campaigns).outcomes, {})
    assert [ok for _, ok, _ in results] == [True, False]
    assert "BudgetError" in results[1][2]


def namespaces():
    """Every binding a tracer could replace: module globals and class dicts."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "adaptive_tomo" or name.startswith("adaptive_tomo."):
            out[name] = dict(vars(module))
            for cls_name, cls in vars(module).items():
                if inspect.isclass(cls) and cls.__module__ == name:
                    out[f"{name}.{cls_name}"] = dict(vars(cls))
    return out


def test_tracer_wraps_every_namespace_and_restores_all_of_them(tmp_path):
    campaign = workloads.build("noise-ladder", 3, str(tmp_path), "tiny")[1]
    before = namespaces()
    mle = adaptive_tomo.estimation.mle
    spans = tracer.Tracer("adaptive_tomo", flags={"estimation.mle": lambda e: e.on_boundary})
    with spans:
        assert adaptive_tomo.protocols.mle is not mle
        assert adaptive_tomo.mle is adaptive_tomo.estimation.mle is not mle
        campaign.execute()
    after = namespaces()
    assert after.keys() == before.keys()
    for space, bindings in before.items():
        changed = [k for k, v in bindings.items() if after[space].get(k) is not v]
        assert not changed, f"{space} still bound to wrappers: {changed}"

    calls = spans.totals("estimation.mle").calls
    assert calls == 2 * campaign.runs
    assert spans.totals("measurement.RngContext.generator").calls == 12 * campaign.runs
    campaign.execute()
    assert spans.totals("estimation.mle").calls == calls
