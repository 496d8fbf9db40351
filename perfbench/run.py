"""frobcat's benchmark: whole CLI commands end to end, and a traced per-layer run.

Run one workload:

    python3 perfbench/run.py --workload green_tensor --seed 1 --seconds 30 --trace 0

A run starts fresh child processes (child.py): five that only set up, one
that records the machine block and the GEMM yardstick, then one per pass.
The run draws its item list (workloads.py) from (workload, --seed) once;
every pass runs that list through `frobcat.cli.run` with `--format json`,
and passes go on until --seconds of them are spent. Every item's report is
checked, and items that fail are counted, never dropped.

Timings are scaled to a reference speed. On a shared host the machine's
speed swings by half within seconds, so the child times a fixed probe
(child.Probe) beside every item, and the benchmark scales the item's time by
(REF_PROBE_S / the probe's time) ** the workload's elasticity; each item then
counts with its median over the passes. The record keeps the unscaled
figures too.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed; no
wrapper is installed. With --trace 1 every pass runs twice, plain and traced
(tracer.py), the two runs' reports must be byte-identical, and the per-layer
metrics are printed: calls and self seconds are per pass.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full record. --record FILE also appends the record to
FILE as one JSON line, and

    python3 perfbench/run.py --compare A.jsonl B.jsonl

prints, per workload and end-to-end metric, both medians with quartiles and
the ratio B/A with its base; a metric whose run-to-run spread is wider than
its bound reads "unresolved".
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS
from tracer import CACHES, span_names
from workloads import WORKLOADS, Workload, check_item, run_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
# One BLAS thread: with two on a two-core machine the harness and any
# neighbour contend with BLAS, and runs spread twice as wide; at the sizes
# here one thread is also the faster.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
# The probe's seconds (child.Probe) at the reference speed: an item's time is
# scaled by (REF_PROBE_S / the probe timed beside it) ** workload.elasticity,
# set-up time by REF_PROBE_S / the child's probe.
REF_PROBE_S = 1.0e-3
TAIL_BEYOND = 10


class ChildError(RuntimeError):
    """A child process died, hung or printed no result."""


def child_env() -> dict:
    """The caller's environment with BLAS pinned to BLAS_THREADS threads."""
    return {**os.environ, **dict.fromkeys(THREAD_VARS, str(BLAS_THREADS))}


def spawn(request: dict, hard_deadline: float) -> tuple[float, dict]:
    """Run one child; returns its set-up seconds and its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=child_env(), text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        left = max(1.0, hard_deadline - time.perf_counter())
        out, err = proc.communicate(json.dumps(request), timeout=left)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError("child passed the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise ChildError(f"child exited {proc.returncode}: {err.strip()[-500:]}")
    return setup, json.loads(out.splitlines()[-1])


def tail(seconds: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND items beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def layer_metrics(traced: list[dict], overhead: float, yard: dict) -> dict:
    """Per-pass means of the traced children's totals, plus ratios."""
    n = len(traced)
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = sum(t["spans"][name][0] for t in traced) / n
        out[f"{name}.self_s"] = sum(t["spans"][name][1] for t in traced) / n
    counts = {k: sum(t["counts"][k] for t in traced) for k in traced[0]["counts"]}
    out["linalg.rref.cells"] = counts["linalg.rref.cells"] / n
    rows = counts["linalg.rref.rows"]
    out["linalg.rref.pivot_ratio"] = counts["linalg.rref.pivots"] / rows if rows else 0.0
    out["linalg.mat_mul.gflop"] = counts["linalg.mat_mul.gflop"] / n
    out["linalg.mat_mul.object_calls"] = counts["linalg.mat_mul.object_calls"] / n
    out["linalg.check_budget.max_mb"] = max(t["counts"]["linalg.check_budget.max_mb"] for t in traced)
    for metric in CACHES:
        hits = sum(t["caches"][metric][0] for t in traced)
        lookups = hits + sum(t["caches"][metric][1] for t in traced)
        out[metric] = hits / lookups if lookups else 0.0
    out["linalg.gemm900_ms"] = yard["linalg.gemm900_ms"]
    out["linalg.rank900_gemm_ratio"] = yard["linalg.rank900_gemm_ratio"]
    out["trace_overhead_frac"] = overhead
    return out


def at_ref(seconds: float, probe_s: float, elasticity: float = 1.0) -> float:
    """Seconds scaled to the reference speed, by the probe timed beside them."""
    return seconds * (REF_PROBE_S / probe_s) ** elasticity


def item_times(results: list[dict], elasticity: float) -> list[float]:
    """Each item's median time over the passes that ran it, at the reference speed."""
    per_pass = (
        [at_ref(item["seconds"], item["probe_s"], elasticity) for item in r["items"]]
        for r in results
    )
    return [statistics.median(vals) for vals in zip(*per_pass)]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full record."""
    start = time.perf_counter()
    hard = start + RUN_LIMIT_S
    items = workload.items(run_rng(workload.name, seed))
    setups, failures = [], []
    for _ in range(SETUP_PROBES):
        setup, result = spawn({}, hard)
        setups.append(at_ref(setup, result["setup_probe_s"]))
    # rank900 costs about 50 GEMMs: a plain run times it once, a traced run,
    # where it is a reported metric, takes the median of three
    setup, first = spawn({"yardstick": 3 if trace else 1}, hard)
    setups.append(at_ref(setup, first["setup_probe_s"]))
    # Every pass runs the run's one item list, in a fresh child, until
    # --seconds of passes are spent; a traced run times pairs of passes.
    plain, traced, pass_seconds = [], [], []
    attempted = 0
    stop = time.perf_counter() + min(seconds, RUN_LIMIT_S / 2)
    for k in itertools.count():
        t0 = time.perf_counter()
        if pass_seconds and t0 + statistics.median(pass_seconds) > stop:
            break
        # in a traced run, alternate which of the pair goes first
        modes = [False] if not trace else ([False, True] if k % 2 == 0 else [True, False])
        outputs = {}
        for mode in modes:
            attempted += len(items)
            try:
                setup, result = spawn({"items": items, "trace": mode}, hard)
            except ChildError as exc:
                failures.extend(f"pass {k}: {exc}" for _ in items)
                continue
            setups.append(at_ref(setup, result["setup_probe_s"]))
            (traced if mode else plain).append(result)
            outputs[mode] = [item["out"] for item in result["items"]]
            for item in result["items"]:
                reason = item["error"] or check_item(item["argv"], item["status"], item["out"])
                if reason:
                    failures.append(
                        f"pass {k} {' '.join(item['argv'])}: {reason} {item['err'].strip()[-200:]}"
                    )
        if trace and len(outputs) == 2:
            failures.extend(
                f"pass {k} item {i}: traced report differs"
                for i, (a, b) in enumerate(zip(outputs[False], outputs[True]))
                if a != b
            )
        pass_seconds.append(time.perf_counter() - t0)
    if not plain or (trace and not traced):
        raise ChildError("no pass finished: " + "; ".join(failures[:3]))
    ref = item_times(plain, workload.elasticity)
    raw = item_times(plain, 0.0)
    tail_value, tail_pct = tail(ref)
    record = {
        "workload": workload.name,
        "seed": seed if workload.seeded else None,
        "seconds": seconds,
        "trace": int(trace),
        "machine": first["machine"],
        "yardstick": first["yardstick"],
        "passes": len(pass_seconds),
        "items": len(items),
        "item_tail": {"percentile": tail_pct, "items": len(ref)},
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(ref),
            "item_p50_ms": statistics.median(ref) * 1e3,
            "item_tail_ms": tail_value * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        # the timings as the clock read them, before scaling to the reference speed
        "unscaled": {
            "wall_s": sum(raw),
            "item_p50_ms": statistics.median(raw) * 1e3,
            "item_tail_ms": tail(raw)[0] * 1e3,
            "probe_ms": statistics.median(i["probe_s"] for r in plain for i in r["items"]) * 1e3,
        },
        "why": workload.why,
        "moves": workload.moves,
    }
    if trace:
        overhead = sum(item_times(traced, workload.elasticity)) / sum(ref) - 1
        record["per_layer"] = layer_metrics(
            [r["trace"] for r in traced], overhead, first["yardstick"]
        )
    return record


def summary(record: dict, spec: dict) -> dict:
    """The result line: the metrics BENCHMARK.json names for this kind of run."""
    block = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record[block][m["name"]], "unit": m["unit"]} for m in spec[block]
        },
    }


def _load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and (q3 - q1) / median; the spread is inf below 2 runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(path_a: str, path_b: str, spec: dict) -> list[str]:
    """One line per workload and end-to-end metric: A against B."""
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    lines = []
    for workload in sorted(set(runs_a) & set(runs_b)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["end_to_end"][name] for r in runs_a[workload]]
            vb = [r["end_to_end"][name] for r in runs_b[workload]]
            ma, qa1, qa3, sa = _spread(va)
            mb, qb1, qb3, sb = _spread(vb)
            ratio = mb / ma
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if metric["better"] == "lower":
                every_run_better = max(vb) < min(va)
            else:
                every_run_better = min(vb) > max(va)
            if max(sa, sb) > bound and not every_run_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound or every_run_better:
                verdict = "better"
            else:
                verdict = "within bound"
            lines.append(
                f"{workload:20} {name:13} A {ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={len(va)}  "
                f"B {mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={len(vb)}  "
                f"B/A {ratio:.3f} of {ma:.4g} {metric['unit']}  {verdict}"
            )
    for workload in sorted(set(runs_a) ^ set(runs_b)):
        lines.append(f"{workload:20} only in {'A' if workload in runs_a else 'B'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run's full record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = ap.parse_args(argv)
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.compare:
        print("\n".join(compare(*args.compare, spec)))
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    if not (SRC / "frobcat" / "cli.py").is_file():
        print(f"error: no frobcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(summary(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
