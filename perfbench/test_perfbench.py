"""Tests for the benchmark's tracer and output checks.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polistance.graph import Partition  # noqa: E402
from run import END_TO_END_UNITS, make_inputs  # noqa: E402
from tracer import LAYER_UNITS, TARGETS, Tracer, _resolve  # noqa: E402
from workloads import (  # noqa: E402
    NOT_APPLICABLE, CheckFailed, LouvainWorkload, PipelineWorkload)


def _originals():
    out = {}
    for module_name, attribute, _ in TARGETS:
        owner, attr = _resolve(module_name, attribute)
        out[module_name, attribute] = owner.__dict__[attr]
    return out


@pytest.mark.parametrize("method", ["text", "network"])
def test_traced_op_writes_the_untraced_report(tmp_path, method):
    workload = PipelineWorkload("small", input_sets=1, users_per_party=12,
                                method=method, bad_line_share=0.02)
    inputs = workload.setup(tmp_path / "in", seed=3)
    out = tmp_path / "out"
    workload.check(inputs, out, workload.op(inputs, out))
    untraced = (out / "report.json").read_bytes()
    shutil.rmtree(out)

    tracer = Tracer()
    with tracer.installed("op1"):
        result = workload.op(inputs, out)
    workload.check(inputs, out, result)  # raises unless report.json is byte-identical
    assert (out / "report.json").read_bytes() == untraced
    assert tracer.calls["op1", "pipeline.run"] == 1
    assert inputs.n_bad > 0
    assert tracer.tallies["op1", "corpus.skipped_lines"] == inputs.n_bad
    metrics = tracer.layer_metrics("op1", {})
    assert 0 < metrics["pipeline.self_s"] < tracer.busy("op1")["pipeline.run"]


def test_every_wrapped_function_is_restored(tmp_path):
    before = _originals()
    workload = LouvainWorkload("small", input_sets=1, blocks=4, block_size=20,
                               p_in=0.3, p_out=0.01)
    tracer = Tracer()
    with tracer.installed("setup0"):
        workload.setup(tmp_path, seed=1)
        assert _originals() != before
    with pytest.raises(RuntimeError):
        with tracer.installed("op0"):
            raise RuntimeError("an op that fails")
    assert _originals() == before
    assert tracer.calls["setup0", "synth.generate"] == 1


def test_louvain_check_rejects_a_wrong_modularity(tmp_path):
    workload = LouvainWorkload("small", input_sets=1, blocks=4, block_size=20,
                               p_in=0.3, p_out=0.01)
    inputs = workload.setup(tmp_path, seed=1)
    result = workload.op(inputs, tmp_path)
    quality = workload.check(inputs, tmp_path, result)
    assert quality["accuracy"] == quality["coverage"] == NOT_APPLICABLE
    tampered = Partition(assignment=result.assignment,
                         modularity_q=result.modularity_q + 1e-6)
    with pytest.raises(CheckFailed):
        workload.check(inputs, tmp_path, tampered)


def test_inputs_made_in_a_child_match_inputs_made_here(tmp_path):
    workload = LouvainWorkload("small", input_sets=1, blocks=4, block_size=20,
                               p_in=0.3, p_out=0.01)
    before = _originals()
    made, generate_s = make_inputs(workload, tmp_path / "in0", seed=1, trace=True)
    assert generate_s > 0
    assert _originals() == before
    assert made.graph == workload.setup(tmp_path, seed=1).graph
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
