"""The benchmark's declared workloads and metrics, read from BENCHMARK.json.

BENCHMARK.json is the one place that names each metric with its unit and
says why each workload exists; the code only computes the values.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# name -> unit
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

# workload name -> why it exists
WHY = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}
