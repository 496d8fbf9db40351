"""Finite group representations over F_p as explicit matrix tuples.

Groups are presentations: a generator count, relation words, and a
distinguished word of order p (the witness used for projectivity and
restriction tests), whose order `validate` checks; no relation restates
it. Words use letters 'a', 'b', ... positionally; uppercase means inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby

import numpy as np

from .linalg import (
    check_budget,
    check_modulus,
    frozen_matrix,
    inverse_mod,
    kron_arrays,
    mat_mul,
    mat_pow,
    rank_mod,
)
from .nilmod import (
    JordanType,
    _block_extension,
    _random_jordan_conjugate,
    _rank_sequence_arr,
    _type_from_ranks,
    jordan_matrix,
)
from .seeding import rng_for

__all__ = [
    "GroupSpec",
    "GroupRep",
    "cyclic_group",
    "symmetric_group",
    "trivial_rep",
    "cyclic_rep",
    "random_cyclic_rep",
    "evaluate_word",
    "validate",
    "tensor",
    "direct_sum",
    "SymmetricTower",
    "decompose_cyclic",
    "witness_type",
    "rep_to_json",
    "rep_from_json",
]


@dataclass(frozen=True)
class GroupSpec:
    name: str
    generators: int
    relations: tuple[str, ...]
    sylow_witness: str

    def __post_init__(self):
        for word in self.relations + (self.sylow_witness,):
            _check_word(word, self.generators)


def _check_word(word: str, generators: int) -> None:
    for ch in word:
        if not ch.isalpha() or (ord(ch.lower()) - 97) >= generators:
            raise ValueError(f"word {word!r} uses letters outside the {generators} generators")


@dataclass(frozen=True, eq=False)
class GroupRep:
    """A representation: one generator matrix per generator, each held as a
    read-only dim x dim residue array."""

    group: GroupSpec
    p: int
    dim: int
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        check_modulus(self.p)
        mats = tuple(frozen_matrix(m, self.p) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != self.group.generators:
            raise ValueError("one matrix per generator required")
        if any(m.shape != (self.dim, self.dim) for m in mats):
            raise ValueError("generator matrix shape mismatch")

    @property
    def category(self) -> tuple[GroupSpec, int]:
        return self.group, self.p

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return self.matrices


def evaluate_word(rep: GroupRep, word: str) -> np.ndarray:
    """Left-to-right product of generator matrices; uppercase = inverse.

    Each run of one letter is a power by repeated squaring, so a run of
    length k costs at most k - 1 products (none for k = 1)."""
    _check_word(word, rep.group.generators)
    out = None
    inverses: dict[int, np.ndarray] = {}
    for ch, run in groupby(word):
        idx = ord(ch.lower()) - 97
        if ch.isupper():
            if idx not in inverses:
                inverses[idx] = inverse_mod(rep.matrices[idx], rep.p)
            mat = inverses[idx]
        else:
            mat = rep.matrices[idx]
        k = len(list(run))
        if k > 1:  # a lone letter stays the generator itself, with no copy
            mat = mat_pow(mat, k, rep.p)
        out = mat if out is None else mat_mul(out, mat, rep.p)
    return np.eye(rep.dim, dtype=np.int64) if out is None else out


def validate(rep: GroupRep) -> list[str]:
    """Violation messages; empty when the rep is a genuine representation."""
    problems = []
    eye = np.eye(rep.dim, dtype=np.int64)
    for k, m in enumerate(rep.matrices):
        if rank_mod(m, rep.p) != rep.dim:
            problems.append(f"generator {chr(97 + k)!r} is not invertible mod {rep.p}")
    if problems:
        return problems
    for word in rep.group.relations:
        if not np.array_equal(evaluate_word(rep, word), eye):
            problems.append(f"relation {word!r} is violated")
    witness = evaluate_word(rep, rep.group.sylow_witness)
    if not np.array_equal(mat_pow(witness, rep.p, rep.p), eye):
        problems.append(
            f"sylow witness {rep.group.sylow_witness!r} does not have order dividing {rep.p}"
        )
    return problems


def _checked(rep: GroupRep) -> GroupRep:
    problems = validate(rep)
    if problems:
        raise ValueError("; ".join(problems))
    return rep


# ---------------------------------------------------------------- builders


def cyclic_group(p: int) -> GroupSpec:
    return GroupSpec(name=f"Z/{p}", generators=1, relations=(), sylow_witness="a")


def symmetric_group(p: int) -> GroupSpec:
    """S_p on generators a = (1 2), b = (1 2 ... p); ab is a (p-1)-cycle."""
    return GroupSpec(f"S_{p}", generators=2, relations=("aa", "ab" * (p - 1)), sylow_witness="b")


def trivial_rep(group: GroupSpec, p: int) -> GroupRep:
    eye = np.eye(1, dtype=np.int64)
    return GroupRep(group=group, p=p, dim=1, matrices=(eye,) * group.generators)


def cyclic_rep(p: int, parts) -> GroupRep:
    """Rep of Z/p with generator unipotent of Jordan type `parts` (parts <= p): a rep
    by construction, as (1 + J)^p = 1 + J^p = 1 with every block at most p."""
    parts = tuple(int(k) for k in parts)
    if any(not 1 <= k <= p for k in parts):
        raise ValueError(f"block sizes must lie in [1, {p}]")
    gen = jordan_matrix(parts)  # priced there
    np.fill_diagonal(gen, 1)
    return GroupRep(group=cyclic_group(p), p=p, dim=sum(parts), matrices=(gen,))


def random_cyclic_rep(p: int, dim: int, seed: int, index: int = 0) -> GroupRep:
    """Random conjugate of a random unipotent Jordan generator: 1 + q J q^-1."""
    d = _random_jordan_conjugate(p, p, dim, rng_for(seed, index))
    gen = np.eye(dim, dtype=np.int64) + d  # GroupRep reduces mod p
    return GroupRep(group=cyclic_group(p), p=p, dim=dim, matrices=(gen,))


# ------------------------------------------------------------- tensor ops


def _same_group(a: GroupRep, b: GroupRep) -> None:
    if a.category != b.category:
        raise ValueError("representations live over different groups or moduli")


def tensor(a: GroupRep, b: GroupRep) -> GroupRep:
    _same_group(a, b)
    mats = tuple(kron_arrays(x, y) for x, y in zip(a.matrices, b.matrices))  # GroupRep reduces
    return GroupRep(group=a.group, p=a.p, dim=a.dim * b.dim, matrices=mats)


def direct_sum(a: GroupRep, b: GroupRep) -> GroupRep:
    _same_group(a, b)
    mats = tuple(_block_extension(x, y) for x, y in zip(a.matrices, b.matrices))
    return GroupRep(group=a.group, p=a.p, dim=a.dim + b.dim, matrices=mats)


def _zero_rep(group: GroupSpec, p: int) -> GroupRep:
    zero = np.zeros((0, 0), np.int64)
    return GroupRep(group=group, p=p, dim=0, matrices=(zero,) * group.generators)


class SymmetricTower:
    """Symmetric powers S^0, S^1, ... computed incrementally on monomials.

    The basis of S^m is the monomials x_{j_1} ... x_{j_m}, j_1 <= ... <= j_m,
    in lexicographic order of (j_1, ..., j_m), so dim S^m(X) = C(m + d - 1,
    d - 1). The quotient map S^{m-1} tensor X -> S^m is the merge
    (w, i) -> w * x_i, and g sends the monomial w * x_i, with x_i its last
    variable, to the product g(w) * g(x_i).
    """

    def __init__(self, rep: GroupRep):
        self.rep = rep
        self.p = rep.p
        self.d = rep.dim
        self._reps = [trivial_rep(rep.group, rep.p), rep]
        # basis index of each monomial of the top degree built so far
        self._index = {(j,): j for j in range(self.d)}

    def power(self, m: int) -> GroupRep:
        if m < 0:
            raise ValueError("negative symmetric power")
        if self.d == 0 and m >= 1:
            return _zero_rep(self.rep.group, self.p)
        while len(self._reps) <= m:
            self._step()
        return self._reps[m]

    def _step(self):
        p, d = self.p, self.d
        prev, old = self._reps[-1], self._index
        degree = len(self._reps)
        new = {v: k for k, v in enumerate(combinations_with_replacement(range(d), degree))}
        check_budget(3 * len(new) ** 2 * 8, "symmetric power matrices")
        # merge[a, i]: index of (monomial a) * x_i; injective in a for each i
        merge = np.array([[new[tuple(sorted(w + (i,)))] for i in range(d)] for w in old])
        ws = np.array([old[v[:-1]] for v in new])
        last = np.array([v[-1] for v in new])
        mats = []
        for gp, gx in zip(prev.matrices, self.rep.matrices):
            g_of_w = gp[:, ws]
            out = np.zeros((len(new), len(new)), np.int64)
            for i in range(d):
                out[merge[:, i]] += g_of_w * gx[i, last] % p
            mats.append(out)  # GroupRep reduces mod p
        self._reps.append(GroupRep(group=self.rep.group, p=p, dim=len(new), matrices=tuple(mats)))
        self._index = new


# ----------------------------------------------------- restriction and Green ring


def _one_minus(rep: GroupRep, word: str) -> np.ndarray:
    """D = 1 - rho(word) mod p. In characteristic p, D^p = 1 - rho(word)^p, so
    rho(word) has order dividing p exactly when D^p = 0."""
    return (np.eye(rep.dim, dtype=np.int64) - evaluate_word(rep, word)) % rep.p


def _jordan_type_at(rep: GroupRep, word: str, error: str) -> JordanType:
    """Jordan type of 1 - rho(word); raises ValueError(error) unless rho(word)^p = 1,
    read off the last rank of the sequence, with no power formed. The ranks of
    D settle within dim steps, so the sequence stops at n = min(p, dim) and
    rank D^n = rank D^p."""
    n = min(rep.p, rep.dim)
    ranks = _rank_sequence_arr(_one_minus(rep, word), n, rep.p)
    if ranks[-1]:
        raise ValueError(error)
    return _type_from_ranks(ranks, n)


def decompose_cyclic(rep: GroupRep) -> JordanType:
    """Jordan type of 1 - rho(a) for a rep of the cyclic group of order p."""
    if rep.group.generators != 1:
        raise ValueError("decompose_cyclic expects a one-generator (cyclic) group")
    t = _jordan_type_at(rep, "a", "generator does not have order dividing p; group is not Z/p")
    assert t.dim == rep.dim
    return t


def witness_type(rep: GroupRep) -> JordanType:
    """Jordan type of 1 - rho(w) for the Sylow witness w; a complete invariant
    of the restriction to the cyclic subgroup it generates."""
    w = rep.group.sylow_witness
    return _jordan_type_at(rep, w, f"sylow witness {w!r} does not have order dividing {rep.p}")


# -------------------------------------------------------------- serialization


def rep_to_json(rep: GroupRep) -> dict:
    return {
        "p": rep.p,
        "group": {
            "name": rep.group.name,
            "generators": rep.group.generators,
            "relations": list(rep.group.relations),
            "sylow_witness": rep.group.sylow_witness,
        },
        "dim": rep.dim,
        "matrices": [m.tolist() for m in rep.matrices],
    }


def _json_int(value, field: str) -> int:
    """value if it is a JSON integer; a float, string or boolean raises ValueError naming field."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_str(value, field: str) -> str:
    """value if it is a JSON string; anything else raises ValueError naming field."""
    if type(value) is not str:
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def rep_from_json(obj: dict) -> GroupRep:
    """Parse and fully validate; raises ValueError naming the first violation."""
    try:
        relations = obj["group"]["relations"]
        if type(relations) is not list:
            raise ValueError(f"group.relations must be a list of strings, got {relations!r}")
        group = GroupSpec(
            name=_json_str(obj["group"]["name"], "group.name"),
            generators=_json_int(obj["group"]["generators"], "group.generators"),
            relations=tuple(_json_str(w, "group.relations entry") for w in relations),
            sylow_witness=_json_str(obj["group"]["sylow_witness"], "group.sylow_witness"),
        )
        p = _json_int(obj["p"], "p")
        dim = _json_int(obj["dim"], "dim")
        for entry in (v for m in obj["matrices"] for row in m for v in row):
            _json_int(entry, "matrix entry")
        mats = tuple(np.asarray(m, dtype=np.int64) for m in obj["matrices"])
    except OverflowError as exc:
        raise ValueError("matrix entry lies outside int64") from exc
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed representation object: {exc}") from exc
    return _checked(GroupRep(group=group, p=p, dim=dim, matrices=mats))
