"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._use_checkout_sources()

import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload, trace):
    return run.run_workload(
        workload, 7, 0.0, trace, small=True, min_ops=2, sizes=(200, 400, 800)
    )


def _attributes():
    return {
        (path, attr): vars(tracing.resolve_owner(path))[attr]
        for path, attr, _ in tracing.TARGETS
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    before = _attributes()
    lines, result = _tiny(workload, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    shown = json.loads(lines[-1].split(": ", 1)[1])
    expected = dict(run.LAYER_UNITS if trace else run.E2E_UNITS, fail_rate="fraction")
    assert {name: m["unit"] for name, m in shown.items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert _attributes() == before
    assert not tracing.installed_wrappers()


def test_reference_mismatch_fails_the_run(monkeypatch):
    stored = run.load_reference("veteran_session")
    broken = json.loads(json.dumps(stored))
    for out in broken:
        for name in out["files"]:
            out["files"][name] = "renamed_" + out["files"][name]
    monkeypatch.setattr(run, "load_reference", lambda name: broken)
    result = _tiny("veteran_session", 0)[1]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
