"""The benchmark's own tests: tiny-scale smoke runs of every workload,
fault injection, and the tracer's bindings.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latentaxes import editor, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, tmp_path, trace=0, seconds=0.3):
    return harness.run_workload(name, seed=5, seconds=seconds, trace=trace,
                                scale_name="tiny", out_dir=tmp_path)


def test_spec_metrics_have_units_and_directions():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher") and m["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end_metrics(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0, result["stats"]
    printed = run.format_result(result, SPEC["end_to_end"])
    assert list(printed["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        entry = printed["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"]) and entry["value"] > 0, m["name"]
    lines = "\n".join(run.report_lines(result, SPEC["end_to_end"]))
    assert "error_rate 0 " in lines and "lower is better" in lines
    assert "higher is better" in lines


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_per_layer_metrics(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=1, seconds=0.5)
    assert result["stats"]["span_check"] == "ok"
    assert result["correct"], result["stats"]
    printed = run.format_result(result, SPEC["per_layer"])
    assert set(printed["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"] > 0
    assert (tmp_path / f"trace-{name}-seed5.npz").is_file()


@pytest.mark.parametrize("name, module, attr, span", [
    ("train-desk", "latentaxes.training", "mlp_backward", "mlp.backward"),
    ("evaluate-cli", "latentaxes.training", "read_matrix", "npyio.read"),
])
def test_span_check_catches_a_missed_binding(name, module, attr, span, tmp_path,
                                             monkeypatch):
    # A tracer that leaves one module's own binding unpatched loses those
    # spans; the self-check must fail the run.
    discover = tracing.Tracer._discover

    def skip_binding(self):
        discover(self)
        self._patches = [p for p in self._patches
                         if not (getattr(p[0], "__name__", None) == module
                                 and p[1] == attr)]

    monkeypatch.setattr(tracing.Tracer, "_discover", skip_binding)
    result = tiny_run(name, tmp_path, trace=1)
    assert not result["correct"]
    assert span in " ".join(result["stats"]["span_check"])


def test_oracle_nan_is_counted_not_fatal(tmp_path, monkeypatch):
    # After set-up, the classifier returns NaN for the first latent of every
    # batch; the amplitude search raises OracleFailure inside evaluate.
    real_classify = oracle.classify
    real_quality = workloads.EvaluateCli.quality

    def nan_classify(world, w):
        out = np.array(real_classify(world, w))
        out.reshape(-1, out.shape[-1])[0] = np.nan
        return out

    def quality_with_fault(self, state):
        monkeypatch.setattr(oracle, "classify", nan_classify)
        return real_quality(self, state)

    monkeypatch.setattr(workloads.EvaluateCli, "quality", quality_with_fault)
    result = tiny_run("evaluate-cli", tmp_path)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert any("non-finite" in f for f in result["stats"]["failures"])
    printed = run.format_result(result, SPEC["end_to_end"])
    assert printed["metrics"]["ae_well_edited_rate"]["value"] is None


def test_edit_that_moves_the_residual_is_counted(tmp_path, monkeypatch):
    real_edit = editor.edit
    monkeypatch.setattr(editor, "edit",
                        lambda pipe, w, k, t: real_edit(pipe, w, k, t) + 1e-6)
    result = tiny_run("edit-single", tmp_path)
    assert result["failed"] == result["attempted"]
    assert any("PCA residual moved" in f for f in result["stats"]["failures"])


def test_history_check():
    falling = [{"recons": 2.0, "attr": 1.0, "corr": 0.5, "total": 3.0},
               {"recons": 1.0, "attr": 1.0, "corr": 0.5, "total": 2.0}]
    assert workloads.history_ok(falling)
    assert not workloads.history_ok(falling[::-1])
    assert not workloads.history_ok(falling[:1])
    assert not workloads.history_ok([falling[0], dict(falling[1], corr=np.nan)])


def test_tracer_patches_every_binding():
    tracer = tracing.Tracer()
    bound = set(tracer.bindings())
    for owner, attr in [("latentaxes.training", "mlp_forward"),
                        ("latentaxes.training", "mlp_backward"),
                        ("latentaxes.training", "adam_step"),
                        ("latentaxes.editor", "mlp_forward"),
                        ("latentaxes.editor", "project"),
                        ("latentaxes.editor", "reconstruct"),
                        *[(f"latentaxes.{m}", f)
                          for m in ("cli", "pca", "gaussianize", "oracle",
                                    "training", "baseline")
                          for f in ("read_matrix", "write_matrix")],
                        ("LinearEditor", "search_positive")]:
        assert (owner, attr) in bound
    original = editor.project
    tracer.install()
    assert editor.project is not original
    tracer.uninstall()
    assert editor.project is original


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
