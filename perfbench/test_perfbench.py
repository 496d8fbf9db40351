"""The benchmark's own tests: python3 -m pytest perfbench"""
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_item, run_rng  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = Workload(
    "tiny", "one small suite and one short series", {}, True,
    lambda rng: [
        ["check", "--suite", "nilmod", "--p", "3", "--trials", "2", "--seed", str(rng.randrange(99))],
        ["hilbert", "--p", "3", "--module", "J2 + J1", "--terms", "3"],
    ],
    1.0,
)


def _frobcat_bindings() -> dict:
    """Every name bound in a frobcat module or traced class, by identity."""
    import frobcat.cli  # noqa: F401  (imports every layer)

    out = {}
    for name, mod in sys.modules.items():
        if name == "frobcat" or name.startswith("frobcat."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"frobcat.{layer}")
        for path in names.values():
            if "." in path:
                cls = getattr(module, path.split(".")[0])
                out.update({(layer, cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_removing_the_wrappers_restores_every_original():
    import frobcat.linalg
    import frobcat.nilmod
    import frobcat.repcat

    before = _frobcat_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert frobcat.nilmod.rref is frobcat.linalg.rref
        assert frobcat.nilmod.rref is not before[("frobcat.linalg", "rref")]
        assert frobcat.repcat._rank_sequence_arr is frobcat.nilmod._rank_sequence_arr
        assert frobcat.linalg.Subspace.__dict__["from_rows"] is not before[("linalg", "Subspace", "from_rows")]
    finally:
        tracer.remove()
    after = _frobcat_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_spans_give_self_time_and_counts():
    import frobcat.nilmod
    import frobcat.repcat

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        frobcat.repcat.decompose_cyclic(frobcat.repcat.cyclic_rep(5, (5, 3, 3)))
        frobcat.nilmod.rank_sequence(frobcat.nilmod.jordan_module(5, 5, (4, 2)))
        elapsed = time.perf_counter() - start
    finally:
        tracer.remove()
    spans = tracer.spans
    # rank_sequence is seen from repcat's binding and from nilmod's own caller
    assert spans["nilmod.rank_sequence"][0] == 2
    assert spans["repcat.decompose_cyclic"][0] == 1
    assert spans["linalg.rref"][0] > 0 and spans["linalg.mat_mul"][0] > 0
    assert all(self_s >= 0 for _, self_s in spans.values())
    assert sum(self_s for _, self_s in spans.values()) <= elapsed
    assert tracer.counts["linalg.rref.cells"] > 0
    assert 0 < tracer.counts["linalg.rref.pivots"] <= tracer.counts["linalg.rref.rows"]
    assert tracer.counts["linalg.mat_mul.gflop"] > 0


def test_a_tiny_run_emits_every_end_to_end_metric():
    record = run.measure(TINY, seed=3, seconds=1, trace=False)
    out = run.summary(record, SPEC)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 2 * record["passes"] >= 2
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert record["machine"]["nproc"] >= 1
    assert record["yardstick"]["linalg.rank900_gemm_ratio"] > 0


def test_a_tiny_traced_run_emits_every_layer_metric_and_the_same_reports():
    record = run.measure(TINY, seed=3, seconds=1, trace=True)
    out = run.summary(record, SPEC)
    assert out["correct"] and out["attempted"] == 4 * record["passes"] >= 4
    assert set(record["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["metrics"]["cli.run.calls"]["value"] == 2
    assert out["metrics"]["series.hilbert_coeffs.calls"]["value"] == 1


def test_benchmark_json_names_the_workloads_here():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_workload_items_depend_on_seed_only():
    for w in WORKLOADS.values():
        a = w.items(run_rng(w.name, 5))
        assert a == w.items(run_rng(w.name, 5))
        assert (a != w.items(run_rng(w.name, 6))) == w.seeded


def test_item_times_are_medians_over_passes_at_reference_speed():
    def result(*pairs):
        return {"items": [{"seconds": t, "probe_s": p} for t, p in pairs]}

    ref = run.REF_PROBE_S
    passes = [
        result((1.0, ref), (4.0, ref)),
        result((3.0, 2 * ref), (2.0, 2 * ref)),  # a machine at half speed
        result((9.0, ref), (1.5, ref)),
    ]
    assert run.item_times(passes, 1.0) == [1.5, 1.5]
    assert run.item_times(passes, 0.0) == [3.0, 2.0]
    assert run.at_ref(4.0, 4 * ref, 0.5) == 2.0


def test_item_checks_catch_wrong_reports():
    argv = ["hilbert", "--p", "3", "--module", "J2 + J2", "--terms", "2"]
    good = {"schema": 1, "p": 3, "coeffs": [1, 4, 10]}
    assert check_item(argv, 0, json.dumps(good)) is None
    assert check_item(argv, 0, json.dumps({**good, "coeffs": [1, 4, 9]}))
    assert check_item(argv, 2, json.dumps(good)) == "exit status 2"
    check = ["check", "--suite", "nilmod", "--p", "3"]
    report = {"schema": 1, "p": 3, "check": "nilmod", "violations": []}
    assert check_item(check, 0, json.dumps(report)) is None
    assert check_item(check, 1, json.dumps({**report, "violations": [{"trial": 0}]}))
    assert check_item(check, 0, "not json")


def test_tail_keeps_ten_items_beyond_it():
    values = [float(i) for i in range(30)]
    assert run.tail(values) == (19.0, pytest.approx(100 * 20 / 30))
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_compare_reports_ratio_and_unresolved(tmp_path):
    def write(path, walls):
        with open(path, "w", encoding="utf-8") as fh:
            for wall in walls:
                metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
                metrics["wall_s"] = wall
                fh.write(json.dumps({"workload": "w", "trace": 0, "end_to_end": metrics}) + "\n")

    write(tmp_path / "a", [10.0, 10.1, 9.9, 10.0])
    write(tmp_path / "b", [5.0, 5.1, 4.9, 5.0])
    write(tmp_path / "c", [5.0, 15.0, 9.0, 11.0])
    lines = run.compare(tmp_path / "a", tmp_path / "b", SPEC)
    wall = next(line for line in lines if " wall_s " in line)
    assert "B/A 0.500 of 10" in wall and wall.endswith("better")
    wide = next(line for line in run.compare(tmp_path / "a", tmp_path / "c", SPEC) if " wall_s " in line)
    assert wide.endswith("unresolved")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

