"""Tests of the benchmark itself, on the tiny problem sets.

Run from the repository root:

    python3 -m pytest perfbench/test_bench.py
"""

import dataclasses
import math

import pytest

import run

cli = run.load_program()

import spans  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402


def _measure(directory, workload, seed=5, tracer=None):
    items = workloads.generate(workload, seed, tiny=True)
    paths = run.write_problems(items, directory)
    return run.measure(cli, workloads, items, paths, 0.0, tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workloads_pass_their_checks(tmp_path, workload):
    raw = _measure(tmp_path, workload)
    assert raw["failed"] == 0, raw["errors"]
    assert len(raw["walls"]) >= run.MIN_PASSES


def test_corrupted_dims_raise_fail_frac(tmp_path, monkeypatch):
    real = cli.dolbeault.cohomology_dims

    def corrupted(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, dims=tuple(d + 1 for d in rep.dims))

    monkeypatch.setattr(cli.dolbeault, "cohomology_dims", corrupted)
    raw = _measure(tmp_path, "hodge-chain")
    assert raw["failed"] / len(raw["latencies"]) > 0
    assert any("dims" in e for e in raw["errors"])


def test_same_seed_same_digest(tmp_path):
    for workload in workloads.WORKLOADS:
        a = _measure(tmp_path / "a", workload, seed=11)
        b = _measure(tmp_path / "b", workload, seed=11)
        assert run.digest(a["records"]) == run.digest(b["records"])


def test_seed_changes_problems():
    a = workloads.generate("certify-lattice", 1)
    b = workloads.generate("certify-lattice", 2)
    assert [i.problem for i in a] != [i.problem for i in b]


def test_golden_records_match_default_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        items = [i for i in workloads.generate(workload, run.DEFAULT_SEED) if i.timed]
        paths = run.write_problems(items, tmp_path / workload)
        golden = run.golden_records(workload, run.DEFAULT_SEED)
        for item, path, want in zip(items, paths, golden, strict=True):
            _, code, report = run.run_report(cli, item, path)
            assert workloads.digest_record(item, code, report) == want


def test_tail_leaves_ten_beyond():
    values = [float(v) for v in range(1, 31)]
    value, pct = run.tail(values, 30)
    assert value == 20.0 and sum(v > value for v in values) == run.TAIL_BEYOND
    assert math.isclose(pct, 100.0 * 20 / 30)


def test_tail_percentile_does_not_follow_run_length():
    values = [float(v) for v in range(1, 61)]
    value, pct = run.tail(values, 30)
    assert value == 40.0 and sum(v > value for v in values) == 2 * run.TAIL_BEYOND
    assert math.isclose(pct, 100.0 * 20 / 30)


def test_tracer_counts_and_restores(tmp_path):
    import numpy

    original = numpy.linalg.eigvalsh
    tracer = spans.Tracer()
    raw = _measure(tmp_path, "hodge-chain", tracer=tracer)
    assert numpy.linalg.eigvalsh is original
    assert raw["failed"] == 0
    values = tracer.metrics(len(raw["traced_walls"]), 1.0)
    assert set(values) == set(spans.PER_LAYER)
    assert min(values.values()) >= spans.FLOOR
    assert values["riemann.calls"] == spans.FLOOR
    assert values["dolbeault.eigvalsh_calls"] > 0
    assert values["dolbeault.box_modes"] == len(workloads.CHAIN_STEPS) * 2 * (3 ** 4 + 7 ** 4)
    # absent layers read FLOOR, not 0
    assert math.isclose(sum(values[f"{layer}.share"] for layer in spans.LAYERS), 1.0,
                        rel_tol=1e-6)
