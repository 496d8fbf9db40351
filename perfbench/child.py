"""One benchmark child: import frobcat, then run the items it is sent.

Usage: python3 child.py SRC_DIR. The child prints `ready` once the CLI is
importable and BLAS is initialised, reads one JSON request from stdin and
prints one JSON result line. The request names the CLI items to run, whether
to trace them, and how many times to time rank_mod for the GEMM yardstick
(0 or absent: no machine block and no yardstick).
"""
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads():
    """Threads the loaded OpenBLAS reports using, or None if it cannot say."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads": _blas_threads(),
    }


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def yardstick(np, rank_reps: int) -> dict:
    """One float64 GEMM at 900^2, and rank_mod of a seeded 900^2 matrix over F_7."""
    from frobcat.linalg import rank_mod

    a = np.random.default_rng(900).integers(0, 7, size=(900, 900), dtype=np.int64)
    f = a.astype(np.float64)
    gemm = _median_time(lambda: f @ f, 11)
    rank = _median_time(lambda: rank_mod(a, 7), rank_reps)
    return {
        "linalg.gemm900_ms": gemm * 1e3,
        "rank900_ms": rank * 1e3,
        "linalg.rank900_gemm_ratio": rank / gemm,
    }


class Probe:
    """A fixed computation, timed next to every item to gauge the machine's speed.

    About half of it is interpreter work and half small-array numpy work, the
    two kinds of work frobcat's items are made of; it calls no frobcat code,
    so a change to the program cannot move it.
    """

    def __init__(self, np):
        rng = np.random.default_rng(5)
        self.small = rng.integers(0, 7, size=(48, 48), dtype=np.int64)
        self.wide = rng.integers(0, 7, size=(192, 192), dtype=np.int64)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(3000):
            s += i * i % 7
        a = self.small
        for _ in range(6):
            a = (a @ self.small) % 7
        (self.wide * 3 + self.wide) % 7
        return time.perf_counter() - t0


def run_items(cli, probe: Probe, items: list[list[str]]) -> tuple[list[dict], float]:
    """Each item's report, its seconds and the probe's seconds around it; the pass's seconds."""
    results = []
    start = time.perf_counter()
    before = probe()
    for argv in items:
        out, err = io.StringIO(), io.StringIO()
        status, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.run(argv + ["--format", "json"])
        except Exception as exc:  # a raising item is a failed item, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        after = probe()
        results.append({"argv": argv, "status": status, "error": error, "seconds": took,
                        "probe_s": (before + after) / 2,
                        "out": out.getvalue(), "err": err.getvalue()[-2000:]})
        before = after
    return results, time.perf_counter() - start


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import numpy as np

    import frobcat.cli

    np.ones((64, 64)) @ np.ones((64, 64))
    print("ready", flush=True)

    probe = Probe(np)
    probe()
    result = {"setup_probe_s": statistics.median(probe() for _ in range(5))}
    request = json.loads(sys.stdin.read())
    if request.get("yardstick"):
        result["machine"] = machine(np)
        result["yardstick"] = yardstick(np, request["yardstick"])
    tracer = None
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result["items"], result["wall_s"] = run_items(frobcat.cli, probe, request.get("items", []))
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
