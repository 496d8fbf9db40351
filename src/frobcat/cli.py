"""Command-line front end.

Single-shot tables (fusion, Green ring, shift-functor components, Hilbert
series) plus seeded invariant suites. Per-trial randomness is derived by
mixing (seed, trial index) through a fixed 64-bit mixer, so a report is a
pure function of its flags and any violation can be re-run from the report
alone via --replay.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass
from functools import cache
from math import comb, isqrt

from .frobenius import (
    DIM_CAPS,
    check_additivity,
    check_monoidality,
    fpdim_of_F,
    frobenius_components,
    random_rep_ses,
    six_periodic_check,
    sp_multiplicity_spaces,
)
from .linalg import BudgetError, budget_bytes, check_budget, check_modulus
from .nilmod import (
    extension_survey,
    functor_B,
    functor_E,
    jordan_module,
    multiplicity_vector,
    random_nil_module,
    random_partition,
)
from .repcat import (
    GroupRep,
    _json_int,
    cyclic_rep,
    random_cyclic_rep,
    rep_from_json,
    tensor,
    witness_type,
)
from .seeding import mix64, rng_for
from .series import growth_check, hilbert_coeffs
from .verlinde import (
    FusionElement,
    _fuse_simples,
    fpdim_simple,
    fusion_tensor,
    green_product,
    semisimplify,
)

__all__ = ["CliError", "SUITES", "load_rep", "main", "parse_module_spec", "run"]


class CliError(Exception):
    """Usage or input problem; maps to exit status 2."""


_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?J(\d+)\s*$")


def parse_module_spec(text: str, p: int) -> tuple[int, ...]:
    """Multiset of Jordan block sizes from a string like "J3 + 2*J5".

    The module's dense generator is priced from the counts before any list
    of parts is built.
    """
    terms = []
    for term in text.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise CliError(f"cannot parse module term {term.strip()!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise CliError("block multiplicity must be positive")
        k = int(m.group(2))
        if not 1 <= k <= p:
            raise CliError(f"block size {k} outside [1, {p}]")
        terms.append((k, count))
    dim = sum(k * count for k, count in terms)
    check_budget(dim * dim * 8, "module generator")
    return tuple(sorted((k for k, count in terms for _ in range(count)), reverse=True))


def load_rep(path: str) -> GroupRep:
    """Representation from a JSON file; each failed check is named."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return rep_from_json(obj)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_jordan(parts) -> str:
    if not parts:
        return "0"
    out = []
    for size in sorted(set(parts), reverse=True):
        mult = list(parts).count(size)
        out.append(f"J{size}" if mult == 1 else f"{mult}*J{size}")
    return " + ".join(out)


def _fmt_fusion(e: FusionElement) -> str:
    if e.is_zero:
        return "0"
    out = []
    for r in range(e.p - 1, 0, -1):
        m = e.mult[r - 1]
        if m:
            out.append(f"L_{r}" if m == 1 else f"{m}*L_{r}")
    return " + ".join(out)


def _require_prime(p: int) -> None:
    try:
        check_modulus(p)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _price_table(p: int, what: str) -> None:
    # P^2 rows of up to P entries each; the rows, output lines and JSON text of
    # `green` peaked under tracemalloc at about 22 bytes per P^3 plus 320 per
    # row (P = 31, 61, 101), and `fusion` lower
    check_budget(24 * p**3 + 400 * p**2, what)


def _price_frob(p: int, dim: int) -> None:
    # 2(p - 1) component rows, their output lines and JSON text peaked under
    # tracemalloc at 760-790 bytes per unit of p for J1 (p = 10007, 65521), plus
    # 6.3 per unit of p for each Jordan part of X (100*J1), at most dim X parts
    check_budget((p - 1) * (800 + 8 * dim), "frob report")


def _price_series(terms: int, dim: int) -> None:
    # per term, the coefficient and its output line and JSON text peaked under
    # tracemalloc at 190-240 bytes plus about one per bit of the largest
    # coefficient C(terms + dim - 1, dim - 1) (dim 0 to 400, up to 10^5
    # terms); that coefficient is formed only once the count alone fits
    check_budget(256 * (terms + 1), "Hilbert series")
    bits = comb(terms + dim - 1, dim - 1).bit_length() if dim else 0
    check_budget((256 + 2 * bits) * (terms + 1), "Hilbert series")


# ------------------------------------------------------------------ commands


def _cmd_fusion(args) -> tuple[dict, list[str], int]:
    p = args.p
    _require_prime(p)
    _price_table(p, "fusion table")
    fpdims = {f"L_{r}": fpdim_simple(p, r) for r in range(1, p)}
    products = []
    for r in range(1, p):
        for s in range(1, p):
            products.append({"r": r, "s": s, "mult": list(_fuse_simples(p, r, s).mult)})
    report = {"schema": 1, "command": "fusion", "p": p, "fpdims": fpdims, "products": products}
    lines = ["schema\t1", f"command\tfusion", f"p\t{p}"]
    for r in range(1, p):
        lines.append(f"fpdim\tL_{r}\t{_fmt_float(fpdims[f'L_{r}'])}")
    for entry in products:
        e = FusionElement(p, tuple(entry["mult"]))
        lines.append(f"product\tL_{entry['r']}\tL_{entry['s']}\t{_fmt_fusion(e)}")
    return report, lines, 0


def _cmd_green(args) -> tuple[dict, list[str], int]:
    p = args.p
    _require_prime(p)
    _price_table(p, "green table")
    rows = []
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            green = list(green_product(p, a, b).parts)
            image = list(_fuse_simples(p, a, b).mult)
            rows.append({"a": a, "b": b, "green": green, "image": image})
    report = {"schema": 1, "command": "green", "p": p, "table": rows}
    lines = ["schema\t1", "command\tgreen", f"p\t{p}"]
    for row in rows:
        e = FusionElement(p, tuple(row["image"]))
        lines.append(
            f"green\tJ{row['a']}\tJ{row['b']}\t{_fmt_jordan(row['green'])}\t{_fmt_fusion(e)}"
        )
    return report, lines, 0


def _module_rep(args) -> tuple[GroupRep, int, str]:
    if args.rep_file:
        rep = load_rep(args.rep_file)
        if args.p is not None and args.p != rep.p:
            raise CliError(f"--p {args.p} does not match the file's modulus {rep.p}")
        return rep, rep.p, f"file:{args.rep_file}"
    if not args.module:
        raise CliError("one of --module or --rep-file is required")
    if args.p is None:
        raise CliError("--p is required with --module")
    _require_prime(args.p)
    parts = parse_module_spec(args.module, args.p)
    return cyclic_rep(args.p, parts), args.p, _fmt_jordan(parts)


def _cmd_frob(args) -> tuple[dict, list[str], int]:
    rep, p, label = _module_rep(args)
    _price_frob(p, rep.dim)
    image = frobenius_components(rep)
    types = {}  # one witness type per distinct component rep (X and the zero rep)
    comps = []
    for i in range(1, p):
        for kind, c in (("F", image.f(i)), ("G", image.g(i))):
            if c not in types:
                types[c] = list(witness_type(c).parts)
            comps.append({"kind": kind, "i": i, "dim": c.dim, "type": types[c]})
    val = fpdim_of_F(rep)
    report = {
        "schema": 1,
        "command": "frob",
        "p": p,
        "module": label,
        "dim": rep.dim,
        "components": comps,
        "fpdim_F": val,
        "preserved": bool(abs(val - rep.dim) <= 1e-9),
    }
    lines = ["schema\t1", "command\tfrob", f"p\t{p}", f"module\t{label}", f"dim\t{rep.dim}"]
    for c in comps:
        tstr = "+".join(str(k) for k in c["type"]) if c["type"] else "-"
        lines.append(f"component\t{c['kind']}_{c['i']}\tdim\t{c['dim']}\ttype\t{tstr}")
    lines.append(f"fpdim_F\t{_fmt_float(val)}")
    lines.append(f"preserved\t{str(report['preserved']).lower()}")
    return report, lines, 0


def _cmd_semisimplify(args) -> tuple[dict, list[str], int]:
    rep, p, label = _module_rep(args)
    image = semisimplify(rep)
    report = {
        "schema": 1,
        "command": "semisimplify",
        "p": p,
        "module": label,
        "image": list(image.mult),
    }
    lines = [
        "schema\t1",
        "command\tsemisimplify",
        f"p\t{p}",
        f"module\t{label}",
        f"image\t{_fmt_fusion(image)}",
    ]
    return report, lines, 0


def _cmd_hilbert(args) -> tuple[dict, list[str], int]:
    rep, p, label = _module_rep(args)
    if args.terms < 0:
        raise CliError("--terms must be nonnegative")
    _price_series(args.terms, rep.dim)
    series = hilbert_coeffs(rep, args.terms)
    report = {
        "schema": 1,
        "command": "hilbert",
        "p": p,
        "module": label,
        "terms": args.terms,
        "coeffs": series.to_json(),
    }
    lines = ["schema\t1", "command\thilbert", f"p\t{p}", f"module\t{label}"]
    for i, d in enumerate(series.coeffs):
        lines.append(f"coeff\t{i}\t{d}")
    if args.terms >= 10:
        growth = growth_check(series)
        report["growth"] = growth
        lines.append(f"verdict\t{growth['verdict']}")
        lines.append(f"max_root_estimate\t{_fmt_float(growth['max_root_estimate'])}")
        lines.append(f"final_root_estimate\t{_fmt_float(growth['final_root_estimate'])}")
        lines.append(f"ratio_estimate\t{_fmt_float(growth['ratio_estimate'])}")
        lines.append(f"threshold\t{_fmt_float(growth['threshold'])}")
        lines.append(f"flagged\t{str(growth['flagged']).lower()}")
    return report, lines, 0


# -------------------------------------------------------------------- suites


def _trial_nilmod(p: int, seed: int, t: int, cap: int) -> list[dict]:
    rng = rng_for(seed, 2 * t)
    n = int(rng.integers(1, 9))
    dim = int(rng.integers(1, cap + 1))
    mod = random_nil_module(p, n, dim, seed, 2 * t + 1)
    bdims = [functor_B(mod, j).dim for j in range(1, n + 1)]
    out = []
    for i in range(1, n + 1):
        want = sum(v * b for v, b in zip(multiplicity_vector(n, i), bdims))
        got = functor_E(mod, i).dim
        if got != want:
            out.append({"trial": t, "n": n, "dim": dim, "i": i, "expected": want, "got": got})
    return out


def _trial_splitting(p: int, seed: int, t: int, cap: int) -> list[dict]:
    rng = rng_for(seed, 2 * t)
    n = int(rng.integers(2, 6))
    total = max(2, cap)
    tx = int(rng.integers(1, total))
    tz = int(rng.integers(1, total - tx + 1))
    x = jordan_module(p, n, random_partition(tx, n, rng))
    z = jordan_module(p, n, random_partition(tz, n, rng))
    survey = extension_survey(x, z, 10, mix64(seed, 2 * t + 1))
    out = []
    for v in survey["violations"]:
        entry = {"trial": t, "extension_trial": v["trial"]}
        entry.update((k, v[k]) for k in v if k != "trial")
        out.append(entry)
    return out


def _trial_sixper(p: int, seed: int, t: int, cap: int) -> list[dict]:
    ses = random_rep_ses(p, cap, seed, t)
    rep = six_periodic_check(ses)
    if rep["ok"]:
        return []
    return [
        {
            "trial": t,
            "dims": [ses.x.dim, ses.y.dim, ses.z.dim],
            "pairs": rep["pairs"],
        }
    ]


def _two_cyclic_reps(p: int, seed: int, t: int, top: int) -> tuple[GroupRep, GroupRep]:
    """Trial t's pair of random Z/p-reps, each of dimension drawn from [1, top]."""
    rng = rng_for(seed, 3 * t)
    dx = int(rng.integers(1, top + 1))
    dy = int(rng.integers(1, top + 1))
    return random_cyclic_rep(p, dx, seed, 3 * t + 1), random_cyclic_rep(p, dy, seed, 3 * t + 2)


def _trial_additivity(p: int, seed: int, t: int, cap: int) -> list[dict]:
    x, y = _two_cyclic_reps(p, seed, t, max(1, cap // 2))
    rep = check_additivity(x, y)
    if rep["ok"]:
        return []
    return [{"trial": t, "dims": [x.dim, y.dim], "mismatches": rep["mismatches"]}]


def _trial_monoidality(p: int, seed: int, t: int, cap: int) -> list[dict]:
    x, y = _two_cyclic_reps(p, seed, t, max(1, isqrt(cap)))
    rep = check_monoidality(x, y)
    if rep["ok"]:
        return []
    return [{"trial": t, "dims": [x.dim, y.dim], "mismatches": rep["mismatches"]}]


def _trial_greenhom(p: int, seed: int, t: int, cap: int) -> list[dict]:
    x, y = _two_cyclic_reps(p, seed, t, cap)
    lhs = semisimplify(tensor(x, y))
    rhs = fusion_tensor(semisimplify(x), semisimplify(y))
    if lhs == rhs:
        return []
    return [{"trial": t, "dims": [x.dim, y.dim], "lhs": list(lhs.mult), "rhs": list(rhs.mult)}]


def _trial_fpdim(p: int, seed: int, t: int, cap: int) -> list[dict]:
    rng = rng_for(seed, 2 * t)
    d = int(rng.integers(1, cap + 1))
    x = random_cyclic_rep(p, d, seed, 2 * t + 1)
    image = frobenius_components(x)
    val = fpdim_of_F(x)
    out = []
    if abs(val - x.dim) > 1e-9:
        out.append({"trial": t, "dim": d, "reason": "fpdim not preserved", "value": val})
    if image.f(1).dim != d or any(image.f(i).dim for i in range(2, p)):
        out.append({"trial": t, "dim": d, "reason": "unexpected component dimensions"})
    return out


def _trial_lemm1(p: int, seed: int, t: int, cap: int) -> list[dict]:
    m = t + 1
    if m <= p - 1:
        sp_multiplicity_spaces(p, m)  # asserts F(L_m) from the rotation cores
    return []


# lemm1's trials by p: the m whose m^p-dimensional power space fits the default budget
_LEMM1_M = {3: 2, 5: 4, 7: 3, 11: 2}


@dataclass(frozen=True)
class SuiteDef:
    run_trial: object
    default_cap: object  # p -> int
    allowed: tuple[int, ...] | None = None
    default_trials: object = None  # p -> int
    min_cap: int = 0  # smallest --dim-cap its trials can draw dimensions from


SUITES = {
    "nilmod": SuiteDef(_trial_nilmod, lambda p: 24, min_cap=1),
    "splitting": SuiteDef(_trial_splitting, lambda p: 6),
    "sixper": SuiteDef(
        _trial_sixper, lambda p: {2: 12, 3: 8, 5: 4}[p], allowed=(2, 3, 5), min_cap=2
    ),
    "additivity": SuiteDef(_trial_additivity, lambda p: DIM_CAPS[p], allowed=(2, 3, 5)),
    "monoidality": SuiteDef(_trial_monoidality, lambda p: DIM_CAPS[p], allowed=(2, 3, 5)),
    "greenhom": SuiteDef(_trial_greenhom, lambda p: 30, min_cap=1),
    "fpdim": SuiteDef(_trial_fpdim, lambda p: DIM_CAPS[p], allowed=(2, 3, 5, 7), min_cap=1),
    "lemm1": SuiteDef(_trial_lemm1, lambda p: 0, tuple(_LEMM1_M), lambda p: _LEMM1_M.get(p, 0)),
}


def _suite_report(name: str, p: int, seed: int, cap: int | None, trial_list, replay: bool):
    """Validate a run from flags or a replay file, then run it.

    `trial_list` ascends (a range or a sorted list) and is only iterated, so
    a refused run allocates nothing per trial; cap None is the suite's default.
    """
    suite = SUITES[name]
    _require_prime(p)
    if suite.allowed is not None and p not in suite.allowed:
        raise CliError(f"suite {name} supports p in {sorted(suite.allowed)}")
    if cap is None:
        cap = suite.default_cap(p)
    if cap < 0:
        raise CliError("--dim-cap must be nonnegative")
    if cap < suite.min_cap:
        raise CliError(f"suite {name} needs --dim-cap >= {suite.min_cap}, got {cap}")
    if trial_list and trial_list[0] < 0:
        raise CliError(f"trial indices must be nonnegative, got {trial_list[0]}")
    violations = []
    for t in trial_list:
        try:
            violations.extend(suite.run_trial(p, seed, t, cap))
        # a claim under test failed, or refused a value the trial built: replayable by its index
        except (AssertionError, ValueError) as exc:
            violations.append({"trial": t, "reason": str(exc)})
    report = {
        "schema": 1,
        "check": name,
        "p": p,
        "seed": seed,
        "dim_cap": cap,
        "trials": len(trial_list),
        "instances": len(trial_list),
        "violations": violations,
    }
    if replay:
        report["replayed_trials"] = list(trial_list)
    lines = [
        "schema\t1",
        f"check\t{name}",
        f"p\t{p}",
        f"seed\t{seed}",
        f"dim_cap\t{cap}",
        f"instances\t{len(trial_list)}",
        f"violations\t{len(violations)}",
    ]
    for v in violations:
        lines.append("violation\t" + json.dumps(v, sort_keys=True))
    return report, lines, (1 if violations else 0)


def _cmd_check(args) -> tuple[dict, list[str], int]:
    if args.replay:
        try:
            with open(args.replay, "r", encoding="utf-8") as fh:
                prev = json.load(fh)
            name = prev["check"]
            p = _json_int(prev["p"], "p")
            seed = _json_int(prev["seed"], "seed")
            cap = _json_int(prev["dim_cap"], "dim_cap")
            trial_list = sorted({_json_int(v["trial"], "trial") for v in prev["violations"]})
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"malformed replay file: {exc}") from exc
        if type(name) is not str or name not in SUITES:
            raise CliError(f"unknown suite {name!r} in replay file")
        return _suite_report(name, p, seed, cap, trial_list, replay=True)
    if not args.suite:
        raise CliError("--suite is required (or --replay)")
    if args.p is None:
        raise CliError("--p is required")
    suite = SUITES[args.suite]
    trials = args.trials
    if trials is None:
        trials = suite.default_trials(args.p) if suite.default_trials else 50
    if trials < 0:
        raise CliError("--trials must be nonnegative")
    return _suite_report(args.suite, args.p, args.seed, args.dim_cap, range(trials), replay=False)


# ------------------------------------------------------------------- plumbing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `run`: parse_args
    keeps no state between calls, and a fresh tree cost about half of a
    small check's time."""
    ap = argparse.ArgumentParser(
        prog="frobcat",
        description="Fusion rings, Green-ring tables, and shift-functor checks over F_p.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv")

    sp = sub.add_parser("fusion", help="fusion table and FP-dimensions of the simples")
    sp.add_argument("--p", type=int, required=True)
    common(sp)

    sp = sub.add_parser("green", help="full J_a (x) J_b table with semisimplified images")
    sp.add_argument("--p", type=int, required=True)
    common(sp)

    for name, helptext in (
        ("frob", "component dims and Jordan types of the shift functors"),
        ("semisimplify", "image in the fusion ring"),
        ("hilbert", "symmetric-power dimension series"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--p", type=int)
        sp.add_argument("--module", help='Jordan multiset, e.g. "J3 + 2*J5"')
        sp.add_argument("--rep-file", help="JSON representation file instead of --module")
        if name == "hilbert":
            sp.add_argument("--terms", type=int, default=20)
        common(sp)

    sp = sub.add_parser("check", help="run an invariant suite")
    sp.add_argument("--suite", choices=sorted(SUITES))
    sp.add_argument("--p", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dim-cap", type=int)
    sp.add_argument("--replay", help="re-run the violating trials of a previous JSON report")
    common(sp)

    return ap


_HANDLERS = {
    "fusion": _cmd_fusion,
    "green": _cmd_green,
    "frob": _cmd_frob,
    "semisimplify": _cmd_semisimplify,
    "hilbert": _cmd_hilbert,
    "check": _cmd_check,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the exit status: 0 clean, 1 violations found,
    2 usage error or refused input, 3 internal fault (any other exception,
    reported as `internal error: ...` with its traceback on stderr). A reader
    that closes stdout early leaves the status as it is."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        budget_bytes()  # a malformed FROBCAT_BUDGET_MB is a usage error for every command
        report, lines, status = _HANDLERS[args.command](args)
    except (CliError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    try:
        if args.format == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; stdout goes to devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
