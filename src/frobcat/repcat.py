"""Finite group representations over F_p as explicit matrix tuples.

Groups are presentations: a generator count, relation words, and a
distinguished word of order p (the witness used for projectivity and
restriction tests). Words use letters 'a', 'b', ... positionally;
uppercase means inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .linalg import (
    PrimeMatrix,
    as_residues,
    check_budget,
    inverse_mod,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    random_invertible,
    rank_mod,
)
from .nilmod import JordanType, NilModule, _type_from_ranks, _rank_sequence_arr, nil_module, random_partition, jordan_matrix
from .seeding import rng_for

__all__ = [
    "GroupSpec",
    "GroupRep",
    "cyclic_group",
    "symmetric_group",
    "trivial_rep",
    "permutation_rep",
    "cyclic_rep",
    "regular_cyclic_rep",
    "symmetric_perm_rep",
    "random_cyclic_rep",
    "evaluate_word",
    "validate",
    "tensor",
    "dual",
    "direct_sum",
    "SymmetricTower",
    "symmetric_power",
    "restrict_to_nilmodule",
    "decompose_cyclic",
    "witness_type",
    "is_projective",
    "hom_basis",
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
    group: GroupSpec
    p: int
    dim: int
    matrices: tuple[PrimeMatrix, ...]

    def __post_init__(self):
        if len(self.matrices) != self.group.generators:
            raise ValueError("one matrix per generator required")
        for m in self.matrices:
            if m.shape != (self.dim, self.dim) or m.p != self.p:
                raise ValueError("generator matrix shape or modulus mismatch")


def evaluate_word(rep: GroupRep, word: str) -> np.ndarray:
    """Left-to-right product of generator matrices; uppercase = inverse."""
    _check_word(word, rep.group.generators)
    out = None
    inverses: dict[int, np.ndarray] = {}
    for ch in word:
        idx = ord(ch.lower()) - 97
        if ch.isupper():
            if idx not in inverses:
                inverses[idx] = inverse_mod(rep.matrices[idx].entries, rep.p)
            mat = inverses[idx]
        else:
            mat = rep.matrices[idx].entries
        out = mat if out is None else mat_mul(out, mat, rep.p)
    return np.eye(rep.dim, dtype=np.int64) if out is None else out


def validate(rep: GroupRep) -> list[str]:
    """Violation messages; empty when the rep is a genuine representation."""
    problems = []
    eye = np.eye(rep.dim, dtype=np.int64)
    for k, m in enumerate(rep.matrices):
        if rank_mod(m.entries, rep.p) != rep.dim:
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
    return GroupSpec(name=f"Z/{p}", generators=1, relations=("a" * p,), sylow_witness="a")


def symmetric_group(p: int) -> GroupSpec:
    """S_p on generators a = (1 2), b = (1 2 ... p); ab is a (p-1)-cycle."""
    return GroupSpec(
        name=f"S_{p}",
        generators=2,
        relations=("aa", "b" * p, "ab" * (p - 1)),
        sylow_witness="b",
    )


def trivial_rep(group: GroupSpec, p: int) -> GroupRep:
    eye = PrimeMatrix.dense(np.eye(1, dtype=np.int64), p)
    return GroupRep(group=group, p=p, dim=1, matrices=(eye,) * group.generators)


def permutation_rep(group: GroupSpec, p: int, perms) -> GroupRep:
    """Generator g sends basis vector e_j to e_perm[j]."""
    mats = []
    dim = len(perms[0])
    for perm in perms:
        m = np.zeros((dim, dim), np.int64)
        m[np.asarray(perm), np.arange(dim)] = 1
        mats.append(PrimeMatrix.dense(m, p))
    return _checked(GroupRep(group=group, p=p, dim=dim, matrices=tuple(mats)))


def cyclic_rep(p: int, parts) -> GroupRep:
    """Rep of Z/p with generator unipotent of Jordan type `parts` (parts <= p)."""
    parts = tuple(int(k) for k in parts)
    if any(not 1 <= k <= p for k in parts):
        raise ValueError(f"block sizes must lie in [1, {p}]")
    dim = sum(parts)
    gen = (np.eye(dim, dtype=np.int64) + jordan_matrix(parts)) % p
    return _checked(
        GroupRep(group=cyclic_group(p), p=p, dim=dim, matrices=(PrimeMatrix.dense(gen, p),))
    )


def regular_cyclic_rep(p: int) -> GroupRep:
    return permutation_rep(cyclic_group(p), p, [[(j + 1) % p for j in range(p)]])


def symmetric_perm_rep(p: int) -> GroupRep:
    """Natural p-point permutation rep of S_p."""
    swap = list(range(p))
    swap[0], swap[1] = 1, 0
    cycle = [(j + 1) % p for j in range(p)]
    return permutation_rep(symmetric_group(p), p, [swap, cycle])


def random_cyclic_rep(p: int, dim: int, seed: int, index: int = 0) -> GroupRep:
    """Random conjugate of a random unipotent Jordan generator."""
    rng = rng_for(seed, index)
    parts = random_partition(dim, p, rng)
    base = (np.eye(dim, dtype=np.int64) + jordan_matrix(parts)) % p
    q = random_invertible(p, dim, rng)
    gen = mat_mul(mat_mul(q, base, p), inverse_mod(q, p), p)
    return GroupRep(
        group=cyclic_group(p), p=p, dim=dim, matrices=(PrimeMatrix.dense(gen, p),)
    )


# ------------------------------------------------------------- tensor ops


def _same_group(a: GroupRep, b: GroupRep) -> None:
    if a.group != b.group or a.p != b.p:
        raise ValueError("representations live over different groups or moduli")


def tensor(a: GroupRep, b: GroupRep) -> GroupRep:
    _same_group(a, b)
    mats = tuple(
        PrimeMatrix.dense(kron_arrays(x.entries, y.entries, a.p), a.p)
        for x, y in zip(a.matrices, b.matrices)
    )
    return GroupRep(group=a.group, p=a.p, dim=a.dim * b.dim, matrices=mats)


def dual(a: GroupRep) -> GroupRep:
    mats = tuple(
        PrimeMatrix.dense(inverse_mod(m.entries, a.p).T, a.p) for m in a.matrices
    )
    return GroupRep(group=a.group, p=a.p, dim=a.dim, matrices=mats)


def direct_sum(a: GroupRep, b: GroupRep) -> GroupRep:
    _same_group(a, b)
    mats = []
    for x, y in zip(a.matrices, b.matrices):
        m = np.zeros((a.dim + b.dim, a.dim + b.dim), np.int64)
        m[: a.dim, : a.dim] = x.entries
        m[a.dim :, a.dim :] = y.entries
        mats.append(PrimeMatrix.dense(m, a.p))
    return GroupRep(group=a.group, p=a.p, dim=a.dim + b.dim, matrices=tuple(mats))


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
            return GroupRep(group=self.rep.group, p=self.p, dim=0,
                            matrices=tuple(PrimeMatrix.dense(np.zeros((0, 0), np.int64), self.p)
                                           for _ in range(self.rep.group.generators)))
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
            g_of_w = gp.entries[:, ws]
            out = np.zeros((len(new), len(new)), np.int64)
            for i in range(d):
                out[merge[:, i]] += g_of_w * gx.entries[i, last] % p
            mats.append(PrimeMatrix.dense(out % p, p))
        self._reps.append(GroupRep(group=self.rep.group, p=p, dim=len(new), matrices=tuple(mats)))
        self._index = new


def symmetric_power(rep: GroupRep, m: int) -> GroupRep:
    return SymmetricTower(rep).power(m)


# ----------------------------------------------------- restriction and Green ring


def _one_minus(rep: GroupRep, word: str, error: str) -> np.ndarray:
    """1 - rho(word) mod p; raises ValueError(error) unless rho(word)^p = 1."""
    u = evaluate_word(rep, word)
    eye = np.eye(rep.dim, dtype=np.int64)
    if not np.array_equal(mat_pow(u, rep.p, rep.p), eye):
        raise ValueError(error)
    return (eye - u) % rep.p


def _jordan_type_at(rep: GroupRep, word: str, error: str) -> JordanType:
    """Jordan type of 1 - rho(word), after the order-p check of _one_minus."""
    d = _one_minus(rep, word, error)
    return _type_from_ranks(_rank_sequence_arr(d, rep.p, rep.p), rep.p)


def restrict_to_nilmodule(rep: GroupRep, element: str, n: int) -> NilModule:
    """NilModule with D = 1 - rho(element); element must have order dividing p."""
    error = f"element {element!r} does not have order dividing {rep.p}"
    return nil_module(_one_minus(rep, element, error), rep.p, n)


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


def is_projective(rep: GroupRep) -> bool:
    """Free over the order-p witness: all Jordan blocks of 1 - rho(w) have size p."""
    return all(k == rep.p for k in witness_type(rep).parts)


def hom_basis(a: GroupRep, b: GroupRep) -> list[PrimeMatrix]:
    """Canonical basis of intertwiners a -> b (matrices of shape dim b x dim a)."""
    _same_group(a, b)
    p = a.p
    da, db = a.dim, b.dim
    if da == 0 or db == 0:
        return []
    rows = []
    eye_a = np.eye(da, dtype=np.int64)
    eye_b = np.eye(db, dtype=np.int64)
    for ga, gb in zip(a.matrices, b.matrices):
        # row-major vec: vec(gb @ F) = (gb kron I) vec F, vec(F @ ga) = (I kron ga^T) vec F
        rows.append(
            (kron_arrays(gb.entries, eye_a, p) - kron_arrays(eye_b, ga.entries.T, p)) % p
        )
    stacked = np.concatenate(rows, axis=0)
    basis = nullspace_mod(stacked, p)
    return [PrimeMatrix.dense(v.reshape(db, da), p) for v in basis]


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
        "matrices": [m.entries.tolist() for m in rep.matrices],
    }


def rep_from_json(obj: dict) -> GroupRep:
    """Parse and fully validate; raises ValueError naming the first violation."""
    try:
        group = GroupSpec(
            name=str(obj["group"]["name"]),
            generators=int(obj["group"]["generators"]),
            relations=tuple(str(w) for w in obj["group"]["relations"]),
            sylow_witness=str(obj["group"]["sylow_witness"]),
        )
        p = int(obj["p"])
        dim = int(obj["dim"])
        mats = tuple(PrimeMatrix.dense(as_residues(m, p), p) for m in obj["matrices"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed representation object: {exc}") from exc
    return _checked(GroupRep(group=group, p=p, dim=dim, matrices=mats))
