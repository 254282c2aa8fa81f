"""Smoke-size tests of the benchmark itself: its oracles reject tampered
results, its output names every metric with its unit, and it refuses to run
without the library."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

import oracles
import run
import workloads

pureil = pytest.importorskip("pureil")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
F = Fraction


def _ignore(*counter):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- oracles reject tampered results -----------------------------------------


def test_decomposition_oracle_rejects_perturbed_lambda():
    req = {"kind": "y", "q": 2, "vn": 2, "c": [F(1, 2), F(1, 4), F(1, 8), F(1, 8)],
           "probes": [(1, 2, 3), (3, 3, 4), (2, 4, 1)]}
    d = workloads.decompose_execute(pureil, req)
    lambdas: dict = {}
    assert workloads.decompose_check(pureil, req, d, {"lambdas": lambdas}, _ignore) == []
    tampered = dataclasses.replace(d, lam=d.lam + F(1, 7))
    # caught by the lambda-per-q check, and on its own by the identity re-check
    assert workloads.decompose_check(pureil, req, tampered, {"lambdas": lambdas}, _ignore)
    assert workloads.decompose_check(pureil, req, tampered, {}, _ignore)


def test_checker_oracle_rejects_flipped_outcome():
    req = next(
        r for r in workloads.requests("checker_sweep", 3)
        if r["kind"] == "check" and r["principle"] == "ip" and r["f"]["class"] == "symmetrized"
        and not oracles.is_renaming_invariant(r["f"]["c"])
    )
    w, report = workloads.checker_execute(pureil, req)
    assert report.outcome == "fail"
    assert workloads.checker_check(pureil, req, (w, report), {}, _ignore) == []
    flipped = dataclasses.replace(report, outcome="pass", witness=None)
    assert workloads.checker_check(pureil, req, (w, flipped), {}, _ignore)


def test_certificate_oracle_rejects_changed_witness_coordinate():
    req = next(
        r for r in workloads.requests("extension_certs", 3)
        if r["source"] == "bernstein" and r["method"] == workloads.FM
    )
    cert = workloads.extension_execute(pureil, req)
    assert cert.status == "feasible"
    assert workloads.extension_check(pureil, req, cert, {}, _ignore) == []
    D = list(cert.witness.C)
    D[0] += F(1, 3)
    tampered = dataclasses.replace(cert, witness=SimpleNamespace(q=cert.r, C=tuple(D)))
    with pytest.raises(pureil.PureILError):
        pureil.transfer(tampered.witness, req["q"])
    assert workloads.extension_check(pureil, req, tampered, {}, _ignore)


def test_cli_oracle_rejects_contract_breaches():
    req = {"argv": ["bernstein", "--measure", '[{"x": "1/2", "w": "1"}]', "--q", "2"], "expect": 0}
    good = workloads.cli_reference(req["argv"])
    assert good[0] == 0
    assert oracles.check_cli(req, 0, good[1], "", good) == []
    assert oracles.check_cli(req, 0, good[1].replace("1/4", "1/5"), "", good)
    assert oracles.check_cli(req, 0, good[1], "Traceback (most recent call last):\n  x\nValueError", good)
    assert oracles.check_cli(req, 3, good[1], "", good)


# -- inputs ------------------------------------------------------------------


def test_same_seed_same_inputs_and_fixed_mix():
    blocks = 3
    for name in workloads.WORKLOADS:
        size = workloads.block_size(name)
        first = [json.dumps(r, default=str, sort_keys=True) for r in _take(name, 1, blocks * size)]
        again = [json.dumps(r, default=str, sort_keys=True) for r in _take(name, 1, blocks * size)]
        other = [json.dumps(r, default=str, sort_keys=True) for r in _take(name, 2, blocks * size)]
        assert first == again
        assert first != other
        # every block of every seed holds the same multiset of request shapes
        mix = sorted(_shape(r) for r in _take(name, 1, size))
        for seed in (1, 2):
            stream = _take(name, seed, blocks * size)
            for b in range(blocks):
                assert sorted(_shape(r) for r in stream[b * size:(b + 1) * size]) == mix, (name, seed, b)


def _take(name, seed, count):
    stream = workloads.requests(name, seed)
    return [next(stream) for _ in range(count)]


def _shape(req):
    keys = ("kind", "q", "vn", "principle", "n", "method", "r", "source", "case")
    dens = [v.denominator for v in req.get("c", [])] + [
        v.denominator for _, part in req.get("parts", []) if isinstance(part, list) for v in part]
    f = req.get("f", {})
    upsilon = (f.get("nu"), len(f.get("rows", ()))) if isinstance(f, dict) else None
    return tuple(str(req.get(key)) for key in keys) + (str(dens and lcm(*dens)), str(upsilon))


# -- traced mode -------------------------------------------------------------


def test_tracer_counts_spans_past_its_cap(monkeypatch, tmp_path):
    import tracer as tracing

    monkeypatch.setattr(tracing, "MAX_SPANS", 5)
    tracer = tracing.Tracer()
    tracer.active = True
    work = tracer._wrap("layer:work", lambda: None)
    for _ in range(8):
        work()
    tracer.adopt([["cli:main", 0.0, 1.0, -1], ["cli:run", 0.1, 0.9, 0]])
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    assert len(path.read_text().splitlines()) == 5
    assert tracer.spans_dropped == 5
    assert tracer.stats["layer:work"][0] == 8  # self time and calls still cover every span


def test_short_runs_are_refused(monkeypatch):
    child = {"setup_s": 0.1, "cut_short": True, "requests": 40}

    def worker(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, json.dumps(child).encode(), b"")

    monkeypatch.setattr(run.subprocess, "run", worker)
    base = {"workload": "decompose_mix", "seed": 1, "seconds": 1}
    with pytest.raises(run.BenchmarkError, match="wall-time cap"):
        run.end_to_end(ROOT, base)
    child["cut_short"] = False  # not cut short, but fewer than MIN_REQUESTS
    with pytest.raises(run.BenchmarkError, match="needed"):
        run.end_to_end(ROOT, base)


# -- the benchmark as a program ---------------------------------------------


def test_benchmark_json_matches_workloads():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_REQUESTS", 3)
    monkeypatch.chdir(ROOT)
    doc = spec()
    wanted = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    assert run.main(["--workload", "extension_certs", "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = {line.split()[1]: line for line in lines if line.startswith("metric ")}
    for name, unit in wanted.items():
        assert f" {unit} (n=" in printed[name]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decompose_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
