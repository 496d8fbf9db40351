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
import re
import sys
from dataclasses import dataclass
from math import isqrt

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
from .linalg import BudgetError, budget_bytes, is_prime
from .nilmod import (
    extension_survey,
    functor_B,
    functor_E,
    jordan_module,
    random_nil_module,
    random_partition,
)
from .repcat import (
    GroupRep,
    cyclic_rep,
    decompose_cyclic,
    random_cyclic_rep,
    rep_from_json,
    tensor,
    witness_type,
)
from .seeding import mix64, rng_for
from .series import growth_check, hilbert_coeffs
from .verlinde import FusionElement, fpdim_simple, fusion_tensor, semisimplify, _fuse_simples

__all__ = ["CliError", "SUITES", "load_rep", "main", "parse_module_spec", "run"]


class CliError(Exception):
    """Usage or input problem; maps to exit status 2."""


_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?J(\d+)\s*$")


def parse_module_spec(text: str, p: int) -> tuple[int, ...]:
    """Multiset of Jordan block sizes from a string like "J3 + 2*J5"."""
    parts: list[int] = []
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
        parts.extend([k] * count)
    return tuple(sorted(parts, reverse=True))


def load_rep(path: str) -> GroupRep:
    """Representation from a JSON file; any relation failure is named."""
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
    if not is_prime(p):
        raise CliError(f"p = {p} is not prime")


# ------------------------------------------------------------------ commands


def _cmd_fusion(args) -> tuple[dict, list[str], int]:
    p = args.p
    _require_prime(p)
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
    rows = []
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            prod = tensor(cyclic_rep(p, (a,)), cyclic_rep(p, (b,)))
            t = decompose_cyclic(prod)
            image = semisimplify(prod)
            rows.append(
                {"a": a, "b": b, "green": list(t.parts), "image": list(image.mult)}
            )
    report = {"schema": 1, "command": "green", "p": p, "table": rows}
    lines = ["schema\t1", "command\tgreen", f"p\t{p}"]
    for row in rows:
        e = FusionElement(p, tuple(row["image"]))
        lines.append(
            f"green\tJ{row['a']}\tJ{row['b']}\t{_fmt_jordan(row['green'])}\t{_fmt_fusion(e)}"
        )
    return report, lines, 0


def _module_rep(args) -> tuple[GroupRep, int, str]:
    if getattr(args, "rep_file", None):
        rep = load_rep(args.rep_file)
        if args.p is not None and args.p != rep.p:
            raise CliError(f"--p {args.p} does not match the file's modulus {rep.p}")
        return rep, rep.p, f"file:{args.rep_file}"
    if args.p is None:
        raise CliError("--p is required with --module")
    _require_prime(args.p)
    if not getattr(args, "module", None):
        raise CliError("one of --module or --rep-file is required")
    parts = parse_module_spec(args.module, args.p)
    return cyclic_rep(args.p, parts), args.p, _fmt_jordan(parts)


def _cmd_frob(args) -> tuple[dict, list[str], int]:
    rep, p, label = _module_rep(args)
    image = frobenius_components(rep)
    comps = []
    for i in range(1, p):
        for kind, c in (("F", image.f(i)), ("G", image.g(i))):
            comps.append(
                {
                    "kind": kind,
                    "i": i,
                    "dim": c.dim,
                    "type": list(witness_type(c).parts),
                }
            )
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
    if getattr(args, "rep_file", None):
        rep, p, label = _module_rep(args)
        image = semisimplify(rep)
    else:
        if args.p is None:
            raise CliError("--p is required with --module")
        _require_prime(args.p)
        p = args.p
        parts = parse_module_spec(args.module, p)
        label = _fmt_jordan(parts)
        image = semisimplify(jordan_module(p, p, parts))
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
        want = sum(min(i, j, n - i, n - j) * bdims[j - 1] for j in range(1, n + 1))
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


def _trial_additivity(p: int, seed: int, t: int, cap: int) -> list[dict]:
    half = max(1, cap // 2)
    rng = rng_for(seed, 3 * t)
    dx = int(rng.integers(1, half + 1))
    dy = int(rng.integers(1, half + 1))
    x = random_cyclic_rep(p, dx, seed, 3 * t + 1)
    y = random_cyclic_rep(p, dy, seed, 3 * t + 2)
    rep = check_additivity(x, y)
    if rep["ok"]:
        return []
    return [{"trial": t, "dims": [dx, dy], "mismatches": rep["mismatches"]}]


def _trial_monoidality(p: int, seed: int, t: int, cap: int) -> list[dict]:
    root = max(1, isqrt(cap))
    rng = rng_for(seed, 3 * t)
    dx = int(rng.integers(1, root + 1))
    dy = int(rng.integers(1, root + 1))
    x = random_cyclic_rep(p, dx, seed, 3 * t + 1)
    y = random_cyclic_rep(p, dy, seed, 3 * t + 2)
    rep = check_monoidality(x, y)
    if rep["ok"]:
        return []
    return [{"trial": t, "dims": [dx, dy], "mismatches": rep["mismatches"]}]


def _trial_greenhom(p: int, seed: int, t: int, cap: int) -> list[dict]:
    rng = rng_for(seed, 3 * t)
    dx = int(rng.integers(1, cap + 1))
    dy = int(rng.integers(1, cap + 1))
    x = random_cyclic_rep(p, dx, seed, 3 * t + 1)
    y = random_cyclic_rep(p, dy, seed, 3 * t + 2)
    lhs = semisimplify(tensor(x, y))
    rhs = fusion_tensor(semisimplify(x), semisimplify(y))
    if lhs == rhs:
        return []
    return [{"trial": t, "dims": [dx, dy], "lhs": list(lhs.mult), "rhs": list(rhs.mult)}]


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
    if m > p - 1:
        return []
    try:
        sp_multiplicity_spaces(p, m)
    except AssertionError as exc:
        return [{"trial": t, "m": m, "reason": str(exc)}]
    return []


@dataclass(frozen=True)
class SuiteDef:
    name: str
    run_trial: object
    default_cap: object  # p -> int
    allowed: tuple[int, ...] | None = None
    default_trials: object = None  # p -> int


SUITES = {
    "nilmod": SuiteDef("nilmod", _trial_nilmod, lambda p: 24),
    "splitting": SuiteDef("splitting", _trial_splitting, lambda p: 6),
    "sixper": SuiteDef(
        "sixper", _trial_sixper, lambda p: {2: 12, 3: 8, 5: 4}[p], allowed=(2, 3, 5)
    ),
    "additivity": SuiteDef(
        "additivity", _trial_additivity, lambda p: DIM_CAPS[p], allowed=(2, 3, 5)
    ),
    "monoidality": SuiteDef(
        "monoidality", _trial_monoidality, lambda p: DIM_CAPS[p], allowed=(2, 3, 5)
    ),
    "greenhom": SuiteDef("greenhom", _trial_greenhom, lambda p: 30),
    "fpdim": SuiteDef("fpdim", _trial_fpdim, lambda p: DIM_CAPS[p], allowed=(2, 3, 5, 7)),
    "lemm1": SuiteDef(
        "lemm1", _trial_lemm1, lambda p: 0, allowed=(3, 5), default_trials=lambda p: p - 1
    ),
}


def _suite_report(name: str, p: int, seed: int, cap: int, trial_list: list[int], replay: bool):
    suite = SUITES[name]
    violations = []
    for t in trial_list:
        violations.extend(suite.run_trial(p, seed, t, cap))
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
        report["replayed_trials"] = trial_list
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
            p = int(prev["p"])
            seed = int(prev["seed"])
            cap = int(prev["dim_cap"])
            trial_list = sorted({int(v["trial"]) for v in prev["violations"]})
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"malformed replay file: {exc}") from exc
        if name not in SUITES:
            raise CliError(f"unknown suite {name!r} in replay file")
        return _suite_report(name, p, seed, cap, trial_list, replay=True)
    if not args.suite:
        raise CliError("--suite is required (or --replay)")
    if args.p is None:
        raise CliError("--p is required")
    _require_prime(args.p)
    suite = SUITES[args.suite]
    if suite.allowed is not None and args.p not in suite.allowed:
        raise CliError(f"suite {args.suite} supports p in {sorted(suite.allowed)}")
    trials = args.trials
    if trials is None:
        trials = suite.default_trials(args.p) if suite.default_trials else 50
    if trials < 0:
        raise CliError("--trials must be nonnegative")
    cap = args.dim_cap if args.dim_cap is not None else suite.default_cap(args.p)
    if cap < 0:
        raise CliError("--dim-cap must be nonnegative")
    return _suite_report(args.suite, args.p, args.seed, cap, list(range(trials)), replay=False)


# ------------------------------------------------------------------- plumbing


def _build_parser() -> argparse.ArgumentParser:
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
    """Parse and execute; returns the exit status (0 ok, 1 violation, 2 usage)."""
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
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print("\n".join(lines))
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
