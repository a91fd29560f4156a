"""The benchmark harness, perfbench/run.py, runs each workload traced at
its tiny size against this checkout, so a change that drops a name the
harness calls or hooks fails here as well as in the benchmark."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# hooks the harness names that the program no longer has
KNOWN_ABSENT = {"attnpool.train.combined_maps", "attnpool.cli._panel_maps"}
ABSENT_PREFIX = "trace: absent hooks: "


def _harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["desk_cli", "paper_step", "desk_cbp"])
def test_tiny_traced_run(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # run_once reads src/ and BENCHMARK.json from the working directory
    lines, result = _harness().run_once(workload, seed=1, seconds=1, trace=1, size="tiny")
    assert result["correct"] and result["failed"] == 0, result
    absent = set()
    for line in lines:
        if line.startswith(ABSENT_PREFIX):
            absent.update(line[len(ABSENT_PREFIX):].split(", "))
    assert absent <= KNOWN_ABSENT
    assert result["metrics"]["trace.absent_hooks"]["value"] == len(absent)
