"""The benchmark's per-layer span names must stay functions of the package.

``bench/tracing.py`` times each public function under ``<layer>.<name>``;
renaming or deleting one of them silently breaks ``bench/run.py --trace 1``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "wasserlim_bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_per_layer_metric_is_a_registered_span():
    spans = set(_tracing_module().Tracer().names)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {
        name.rsplit(".", 1)[0]
        for name in (metric["name"] for metric in per_layer)
        if name.endswith((".self_s", ".calls"))
    }
    assert wanted
    assert sorted(wanted - spans) == []
