"""The benchmark's workloads: the CLI items of a run, and their checks.

An item is one invocation of `frobcat.cli.run` with `--format json`. A run
seeded with s draws its items' flags from (workload, s) once and runs that
list in every pass, so a run is reproducible from its seed and the program
only ever sees the generated flags.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

# greenhom's default --dim-cap; the suite draws each factor's dimension
# uniformly from [1, GREEN_CAP].
GREEN_CAP = 30
# Factor dimensions (dx, dy) at every p, with the number of items drawn at
# each, plus the far corner of the default square, a 900x900 product, at
# p = 7. The ladder covers the products (the sizes of the tensor products)
# from 12 to 675; it is dense around 180, the median product of the default
# draw, so that the median item time has near neighbours and moves smoothly,
# not by jumps between distant rungs. Item seeds are kept only when trial 0
# draws these dimensions (in either order), so every run does the same work
# whatever the seed and only the representations differ. Their Jordan types
# still move an item's cost by a fifth or so, which moved the median item by
# a tenth between seeds with one item per rung; the middle rungs take three
# items each, so that the median stands on many items.
GREEN_LADDER = (
    (3, 4, 1), (5, 8, 1), (9, 11, 3), (10, 12, 3), (10, 14, 3), (11, 15, 3), (13, 15, 3),
    (12, 19, 3), (15, 18, 3), (20, 23, 1), (25, 27, 1),
)
GREEN_CORNER = (7, 30, 30)
SMALL_SUITES = ("nilmod", "splitting", "sixper", "additivity", "monoidality", "fpdim")
# items per (suite, p), one trial each
SUITE_SEEDS = 16
TOWER_DIM = 4
TOWER_TERMS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # layer metric -> the end-to-end metrics it should move on this workload
    moves: dict[str, str]
    seeded: bool
    items: Callable[[random.Random], list[list[str]]]
    # How far the items' times follow the machine's speed as the probe
    # (child.Probe) reads it: the slope of log item time on log probe time
    # across passes, measured on a 2-core x86 VM. Interpreter-bound items
    # follow it fully; items spent in large numpy arrays barely.
    elasticity: float


def run_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _seed_drawing(rng: random.Random, ranges: list[tuple[int, int]], want: tuple[int, ...],
                  ordered: bool) -> int:
    """A seed whose first trial draws `want` from rng_for(seed, 0).integers(lo, hi).

    This repeats the suite's first draws (see frobcat.cli's _trial_* functions).
    Should the suite draw otherwise, items stay valid; only their cost loses
    its independence from the seed.
    """
    from frobcat.seeding import rng_for

    while True:
        s = rng.randrange(2**31)
        draw = rng_for(s, 0)
        got = tuple(int(draw.integers(lo, hi)) for lo, hi in ranges)
        if got == want or (not ordered and got == want[::-1]):
            return s


def _green_items(rng: random.Random) -> list[list[str]]:
    cells = [
        (p, dx, dy) for p in (3, 5, 7) for dx, dy, copies in GREEN_LADDER for _ in range(copies)
    ] + [GREEN_CORNER]
    ranges = [(1, GREEN_CAP + 1)] * 2
    return [
        ["check", "--suite", "greenhom", "--p", str(p), "--trials", "1",
         "--seed", str(_seed_drawing(rng, ranges, (dx, dy), ordered=False))]
        for p, dx, dy in cells
    ]


def _lemm1_items(rng: random.Random) -> list[list[str]]:
    return [["check", "--suite", "lemm1", "--p", "5"], ["check", "--suite", "lemm1", "--p", "3"]]


def _partitions(total: int, max_part: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [
        (k,) + rest
        for k in range(min(total, max_part), 0, -1)
        for rest in _partitions(total - k, k)
    ]


def _tower_items(rng: random.Random) -> list[list[str]]:
    items = []
    for p in (3, 5):
        for _ in range(2):
            parts = rng.choice(_partitions(TOWER_DIM, p))
            module = " + ".join(f"J{k}" for k in parts)
            items.append(["hilbert", "--p", str(p), "--module", module, "--terms", str(TOWER_TERMS)])
    return items


def _levels(lo: int, hi: int, count: int) -> list[int]:
    """count values spread evenly over [lo, hi)."""
    return [lo + round(i * (hi - 1 - lo) / (count - 1)) for i in range(count)]


def _suite_sizes(suite: str, p: int) -> tuple[list[tuple[int, int]], bool] | None:
    """The ranges of a suite's first draws at its default cap, and whether
    their order matters; None for a suite whose sizes are drawn otherwise."""
    from math import isqrt

    from frobcat.cli import SUITES

    cap = SUITES[suite].default_cap(p)
    if suite == "nilmod":  # n, dim
        return [(1, 9), (1, cap + 1)], True
    if suite == "additivity":  # dx, dy
        return [(1, max(1, cap // 2) + 1)] * 2, False
    if suite == "monoidality":  # dx, dy
        return [(1, max(1, isqrt(cap)) + 1)] * 2, False
    if suite == "fpdim":  # d
        return [(1, cap + 1)], True
    return None


def _suite_items(rng: random.Random) -> list[list[str]]:
    """SUITE_SEEDS items per (suite, p). Where the first draws are known, the
    seeds are picked so that the sizes drawn climb an even ladder over the
    ranges: then every seed costs about the same. splitting and sixper,
    small and even in cost, take plain seeds."""
    runs = [(suite, p) for suite in SMALL_SUITES for p in (2, 3, 5)] + [("nilmod", 65521)]
    items = []
    for suite, p in runs:
        sizes = _suite_sizes(suite, p)
        if sizes is None:
            seeds = [rng.randrange(2**31) for _ in range(SUITE_SEEDS)]
        else:
            ranges, ordered = sizes
            per_axis = round(SUITE_SEEDS ** (1 / len(ranges)))
            ladder = itertools.product(*(_levels(lo, hi, per_axis) for lo, hi in ranges))
            seeds = [_seed_drawing(rng, ranges, want, ordered) for want in ladder]
        items += [
            ["check", "--suite", suite, "--p", str(p), "--trials", "1", "--seed", str(seed)]
            for seed in seeds
        ]
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "green_tensor",
            "greenhom at p=3,5,7: Jordan types of dense tensor products up to 900x900; "
            "echelon rref and mat_mul dominate and Subspace never runs",
            {
                "linalg.rref.self_s": "wall_s, item_p50_ms",
                "linalg.mat_mul.self_s": "wall_s, item_p50_ms",
                "linalg.mat_mul.gflop": "wall_s, item_p50_ms",
                "nilmod.rank_sequence.self_s": "wall_s, item_tail_ms",
                "repcat.decompose_cyclic.self_s": "wall_s, item_tail_ms",
                "linalg.Subspace.reduce.self_s": "none (near zero here)",
            },
            True,
            _green_items,
            0.75,
        ),
        Workload(
            "multiplicity_spaces",
            "lemm1 at p=5 and p=3, seedless: nullspaces, Subspace.from_rows and Quotient.of "
            "on 1024-wide stacks; the largest memory footprint",
            {
                "linalg.Subspace.reduce.self_s": "wall_s",
                "linalg.rref.self_s": "wall_s",
                "linalg.mat_mul.self_s": "wall_s",
                "linalg.mat_mul.gflop": "wall_s",
                "linalg.check_budget.max_mb": "peak_rss_mb",
            },
            False,
            _lemm1_items,
            0.35,
        ),
        Workload(
            "symmetric_tower",
            "hilbert at p=3,5 on seeded dimension-4 modules, 10 terms: wide relation matrices, "
            "a third of their rows redundant, through reduced rref; same work for every seed",
            {
                "linalg.rref.pivot_ratio": "wall_s",
                "repcat.SymmetricTower.power.self_s": "wall_s",
                "linalg.rref.calls": "wall_s (a closed-form monomial basis takes it to 0)",
                "linalg.rref.self_s": "wall_s",
                "linalg.mat_mul.self_s": "wall_s",
                "linalg.mat_mul.gflop": "wall_s",
            },
            True,
            _tower_items,
            0.35,
        ),
        Workload(
            "check_suites",
            "six small check suites at p=2,3,5 plus nilmod at p=65521: small matrices, so "
            "per-call overhead, validation, budget checks and caches dominate",
            {
                "frobenius.*.self_s": "item_p50_ms",
                "nilmod.functor_B.self_s": "item_p50_ms",
                "nilmod.functor_E.self_s": "item_p50_ms",
                "nilmod.extension_space.hit_ratio": "item_p50_ms",
                "frobenius.rep_extension_space.hit_ratio": "item_p50_ms",
                "cli.run.self_s": "item_p50_ms, setup_s",
                "linalg.rref.self_s": "item_p50_ms only, through per-call overhead",
                "linalg.mat_mul.self_s": "item_p50_ms only, through per-call overhead",
            },
            True,
            _suite_items,
            1.0,
        ),
    )
}


def check_item(argv: list[str], status: int, out: str) -> str | None:
    """Why an item's output is wrong, or None when it is right."""
    if status != 0:
        return f"exit status {status}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"report does not parse: {exc}"
    if report.get("schema") != 1:
        return "report lacks schema 1"
    flags = dict(zip(argv[1::2], argv[2::2]))
    if report.get("p") != int(flags["--p"]):
        return "report names another p"
    if argv[0] == "check":
        if report.get("check") != flags["--suite"]:
            return "report names another suite"
        if report.get("violations") != []:
            return f"{len(report.get('violations') or [])} violations"
        return None
    if argv[0] == "hilbert":
        d = sum(int(term.strip()[1:]) for term in flags["--module"].split("+"))
        want = [comb(m + d - 1, d - 1) for m in range(int(flags["--terms"]) + 1)]
        if report.get("coeffs") != want:
            return "Hilbert coefficients differ from C(m+d-1, d-1)"
        return None
    return f"no check for command {argv[0]!r}"
