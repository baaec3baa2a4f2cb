"""Unit checks of the benchmark's span bookkeeping: python3 -m pytest bench"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import LAYER_METRICS, Tracer, _self_time, tail, traced  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(40)))[0] == 75.0
    assert tail(list(range(5)))[0] == 50.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = (0, "p", 0.0, 10.0, 1, None, 0, None)
    children = [(0, "c", 1.0, 4.0, 2, 1, 0, None), (0, "c", 3.0, 5.0, 3, 1, 0, None),
                (0, "c", 9.0, 12.0, 4, 1, 0, None)]
    assert _self_time(parent, children) == 10.0 - 4.0 - 1.0


def test_worker_spans_take_the_running_stage_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x)

    def stage_fn():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(8)))

    assert tracer.wrap("stage", stage_fn, stage=True)() == list(range(8))
    stage = next(s for s in tracer.spans if s[1] == "stage")
    leaves = [s for s in tracer.spans if s[1] == "leaf"]
    assert len(leaves) == 8 and all(s[5] == stage[4] for s in leaves)
    assert len({s[4] for s in tracer.spans}) == 9
    assert tracer.stage is None


def test_traced_restores_every_patched_name():
    from finkgqa import pipeline
    from finkgqa.llm_client import ResponseCache

    before = (pipeline.cmd_answer, pipeline.load_split, vars(ResponseCache)["get"])
    with traced(Tracer()):
        assert pipeline.cmd_answer is not before[0]
        assert vars(ResponseCache)["get"] is not before[2]
    assert (pipeline.cmd_answer, pipeline.load_split, vars(ResponseCache)["get"]) == before


def test_benchmark_json_lists_exactly_the_reported_metrics():
    from run import END_TO_END, ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
