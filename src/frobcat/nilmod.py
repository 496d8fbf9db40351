"""Modules over the truncated polynomial ring F_p[D]/(D^n).

A module is a finite-dimensional F_p-space with a nilpotent operator D,
D^n = 0. Jordan types, the subquotient functors attached to kernel/image
filtrations of D, and extension splitting tests live here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, repeat

import numpy as np

from .linalg import (
    Quotient,
    Subspace,
    check_budget,
    check_modulus,
    frozen_matrix,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    random_invertible,
    rank_mod,
    rank_stack,
    rref,
)
from .seeding import rng_for

__all__ = [
    "NilModule",
    "JordanType",
    "ShortExactSeq",
    "nil_module",
    "jordan_module",
    "rank_sequence",
    "jordan_type",
    "functor_B",
    "functor_E",
    "multiplicity_space",
    "multiplicity_vector",
    "extension_survey",
    "random_partition",
    "random_nil_module",
]


@dataclass(frozen=True, eq=False)
class NilModule:
    """F_p[D]/(D^n)-module: modulus p, nilpotency order n, operator D (read-only residues) and
    its kernel/image flag, Ker D^s the preimage of Ker D^{s-1}; only `powers` keeps D^k, k >= 2."""

    p: int
    n: int
    D: np.ndarray
    _flag: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        check_modulus(self.p)
        object.__setattr__(self, "D", frozen_matrix(self.D, self.p))
        if self.n < 1:
            raise ValueError("nilpotency order must be >= 1")
        if self.D.shape[0] != self.D.shape[1]:
            raise ValueError("operator must be square")
        if mat_pow(self.D, self.n, self.p).any():
            raise ValueError(f"operator is not nilpotent of order {self.n}")
        self._flag[0, 0] = Subspace.zero(self.p, self.dim)

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    @property
    def category(self) -> tuple[int, int]:
        return self.p, self.n

    @property
    def operators(self) -> tuple[np.ndarray]:
        return (self.D,)

    @cached_property
    def powers(self) -> tuple[np.ndarray, ...]:
        """D^0, ..., D^n as read-only arrays."""
        out = tuple(_power_list(self.D, self.n, self.p))
        for arr in out:
            arr.flags.writeable = False
        return out

    def meet(self, s: int, k: int) -> Subspace:
        """Ker D^s ∩ Im D^k for 0 <= s, k <= n, built on first use."""
        if s == 0 or k == 0:  # Ker D^0 = 0 and Im D^0 = V
            return self.kernel(s)
        if (s, k) not in self._flag:
            # Ker D^s ∩ Im D^k = D^k(Ker D^{s+k}), and Ker D^{s+k} = V once s + k >= n
            rows = mat_mul(self.kernel(min(s + k, self.n)).basis, self.powers[k].T, self.p)
            self._flag[s, k] = Subspace.from_rows(rows, self.p)
        return self._flag[s, k]

    def kernel(self, k: int) -> Subspace:
        """Ker D^k, built on first use after those below: Ker D from D, each Ker D^s the preimage
        of Ker D^{s-1} under D, from a square kernel on V / Ker D^{s-1} (`Subspace.preimage`)."""
        for s in range(1, k + 1):
            if (s, 0) not in self._flag:
                below = self._flag[s - 1, 0]
                self._flag[s, 0] = below.preimage(self.D) if s > 1 else Subspace.kernel(self.D, self.p)
        return self._flag[k, 0]

    def image(self, k: int) -> Subspace:
        return self.meet(self.n, k)


def nil_module(d, p: int, n: int) -> NilModule:
    """The module of the operator array d over F_p; NilModule reduces d mod p."""
    return NilModule(p=p, n=n, D=d)


def jordan_matrix(parts: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal nilpotent matrix with the given block sizes."""
    dim = sum(parts)
    check_budget(dim * dim * 8, "Jordan matrix")
    arr = np.zeros((dim, dim), np.int64)
    at = 0
    for size in parts:
        arr[at : at + size, at : at + size] = np.eye(size, k=-1, dtype=np.int64)
        at += size
    return arr


def jordan_module(p: int, n: int, parts) -> NilModule:
    parts = tuple(int(k) for k in parts)
    if any(k < 1 or k > n for k in parts):
        raise ValueError(f"block sizes must lie in [1, {n}]")
    return nil_module(jordan_matrix(parts), p, n)


def _block_extension(x: np.ndarray, z: np.ndarray, phi=None) -> np.ndarray:
    """[[x, phi], [0, z]]; phi = None gives the direct sum."""
    dx, dz = len(x), len(z)
    out = np.zeros((dx + dz, dx + dz), np.int64)
    out[:dx, :dx] = x
    if phi is not None:
        if np.shape(phi) != (dx, dz):  # numpy would broadcast a single row
            raise ValueError("coupling block has wrong shape")
        out[:dx, dx:] = phi
    out[dx:, dx:] = z
    return out


def _power_list(d: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    # D^1 is d itself (a residue array), not a copy
    out = [np.eye(d.shape[0], dtype=np.int64), d][: n + 1]
    while len(out) <= n:
        out.append(mat_mul(out[-1], d, p))
    return out


def rank_sequence(m: NilModule) -> tuple[int, ...]:
    """(rank D^0, ..., rank D^n); r_0 = dim, r_n = 0."""
    return _rank_sequence_arr(m.D, m.n, m.p)


def _rank_sequence_arr(d: np.ndarray, n: int, p: int) -> tuple[int, ...]:
    # restriction to the image: a is the operator v -> v D^T restricted to
    # Im D^{k-1}, in the reduced basis rows of the previous step, so it is
    # r_{k-1} x r_{k-1} and rank a = rank D^k. With rows[:, piv] = I, a row of
    # Im a = span(rows) has coordinates its entries at piv, so the restriction
    # to Im a is rows @ a[:, piv], r_k x r_k; only the first step is n wide
    ranks = [d.shape[0]]
    a = d.T
    for k in range(1, n + 1):
        rows, piv = rref(a, p)
        if not piv or len(piv) == ranks[-1]:
            # Im D^k = 0 or Im D^{k-1}: every later power has the same rank.
            # At n = p the tail is p long; chained, it is never also a list
            return tuple(chain(ranks, repeat(len(piv), n - k + 1)))
        ranks.append(len(piv))
        a = mat_mul(rows, a[:, piv], p)
    return tuple(ranks)


@dataclass(frozen=True)
class JordanType:
    """Partition of block sizes, weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")
        if any(k < 1 for k in self.parts):
            raise ValueError("parts must be positive")

    @property
    def dim(self) -> int:
        return sum(self.parts)

    def merge(self, other: "JordanType") -> "JordanType":
        return JordanType(tuple(sorted(self.parts + other.parts, reverse=True)))

    def multiplicity(self, size: int) -> int:
        return sum(1 for k in self.parts if k == size)


def _type_from_ranks(ranks: tuple[int, ...], n: int) -> JordanType:
    # no block is longer than the first zero rank; past it a convex sequence
    # stays zero, which one count checks without a loop over the tail
    top = ranks.index(0) if 0 in ranks else n + 1
    if ranks.count(0) != len(ranks) - top:
        raise ValueError("rank sequence is not convex; operator not nilpotent?")
    parts = []
    for j in range(min(top, n), 0, -1):
        nxt = ranks[j + 1] if j + 1 <= n else 0
        mult = ranks[j - 1] - 2 * ranks[j] + nxt
        if mult < 0:
            raise ValueError("rank sequence is not convex; operator not nilpotent?")
        parts.extend([j] * mult)
    return JordanType(tuple(parts))


def jordan_type(m: NilModule) -> JordanType:
    """Block sizes of D from second differences of the rank sequence."""
    t = _type_from_ranks(rank_sequence(m), m.n)
    assert t.dim == m.dim
    return t


def functor_B(m: NilModule, i: int) -> Quotient:
    """(Ker D ∩ Im D^{i-1}) / (Ker D ∩ Im D^i); dim = multiplicity of J_i."""
    if not 1 <= i <= m.n:
        raise ValueError(f"index {i} outside [1, {m.n}]")
    return Quotient.of(m.meet(1, i - 1), m.meet(1, i))


def functor_E(m: NilModule, i: int) -> Quotient:
    """Ker D^i / Im D^{n-i}; D^n = 0 puts Im D^{n-i} in Ker D^i."""
    if not 0 <= i <= m.n:
        raise ValueError(f"index {i} outside [0, {m.n}]")
    return Quotient.of(m.kernel(i), m.image(m.n - i))


def multiplicity_space(m: NilModule, j: int) -> Quotient:
    """M_j = Ker D^j / (D Ker D^{j+1} + Ker D^{j-1}); dim = multiplicity of J_j.

    D Ker D^{j+1} = Ker D^j ∩ Im D: the part of Ker D^j from longer blocks.
    D maps Ker D^j into Ker D^{j-1}, so only the lifts of Ker D^{j+1} / Ker D^j
    add to the denominator.
    """
    if not 1 <= j <= m.n:
        raise ValueError(f"index {j} outside [1, {m.n}]")
    lifts = Quotient.of(m.kernel(min(j + 1, m.n)), m.kernel(j)).lifts  # Ker D^{j+1} = V once j = n
    return Quotient.of(m.kernel(j), m.kernel(j - 1).add(mat_mul(lifts, m.D.T, m.p)))


def multiplicity_vector(n: int, i: int) -> tuple[int, ...]:
    """(min(i,j,n-i,n-j))_{j=1..n}: E_i-dimensions of the single blocks."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} outside [0, {n}]")
    return tuple(min(i, j, n - i, n - j) for j in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class ShortExactSeq:
    """0 -> X -> Y -> Z -> 0 of nil-modules or of reps, all of one `category`,
    with maps held reduced and read-only and checked exact on construction:
    both intertwine the objects' `operators`."""

    x: object
    y: object
    z: object
    inj: np.ndarray
    surj: np.ndarray

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if not x.category == y.category == z.category:
            raise ValueError("sequence must stay inside one category")
        p = x.p
        a, b = frozen_matrix(self.inj, p), frozen_matrix(self.surj, p)
        object.__setattr__(self, "inj", a)
        object.__setattr__(self, "surj", b)
        if a.shape != (y.dim, x.dim) or b.shape != (z.dim, y.dim):
            raise ValueError("map shapes do not match")
        if y.dim != x.dim + z.dim:
            raise ValueError("middle dimension must be the sum")
        if rank_mod(a, p) != x.dim:
            raise ValueError("injection is not injective")
        if rank_mod(b, p) != z.dim:
            raise ValueError("surjection is not surjective")
        if np.any(mat_mul(b, a, p)):
            raise ValueError("composition is not zero")
        for ox, oy, oz in zip(x.operators, y.operators, z.operators):
            if not np.array_equal(mat_mul(a, ox, p), mat_mul(oy, a, p)):
                raise ValueError("injection does not intertwine the operators")
            if not np.array_equal(mat_mul(b, oy, p), mat_mul(oz, b, p)):
                raise ValueError("surjection does not intertwine the operators")


def _e_dims(ranks: tuple[int, ...], dim: int, n: int) -> tuple[int, ...]:
    # dim E_i = dim Ker D^i - dim Im D^{n-i} = dim - r_i - r_{n-i}
    return tuple(dim - ranks[i] - ranks[n - i] for i in range(1, n // 2 + 1))


def _coupling_constraint(px: list, pz: list, n: int, p: int) -> np.ndarray:
    """Matrix of phi -> top-right block of [[X, phi], [0, Z]]^n.

    Row-major vec: that block is sum_{a+b=n-1} X^a phi Z^b, with matrix
    sum_a kron(X^a, (Z^b)^T); px and pz list the powers of X and Z from 0.
    """
    size = len(px[0]) * len(pz[0])
    constraint = np.zeros((size, size), np.int64)
    for a in range(n):
        # a residue plus an exact product of two: below p^2, so within int64
        constraint = (constraint + kron_arrays(px[a], pz[n - 1 - a].T)) % p
    return constraint


# maxsize=0 stores and hashes nothing; perfbench/tracer.py reads its cache_info()
@lru_cache(maxsize=0)
def _extension_space(px: list, pz: list, n: int, p: int) -> np.ndarray:
    """Nullspace basis of the Y^n = 0 constraint on the coupling block phi of
    Y = [[X, phi], [0, Z]], from the powers px, pz the caller holds (n from D^0).

    X and Z need not be nilpotent: with the generators of Z/p-reps and n = p
    the same constraint keeps Y of order dividing p.
    """
    return nullspace_mod(_coupling_constraint(px, pz, n, p), p)


def _draw_coupling(basis: np.ndarray, rng, p: int, shape: tuple[int, int]) -> np.ndarray:
    """Uniform combination of the basis rows as a coupling block; no draw if empty."""
    if basis.shape[0] == 0:
        return np.zeros(shape, np.int64)
    coeffs = rng.integers(0, p, size=basis.shape[0])
    return mat_mul(coeffs, basis, p).reshape(shape)


def random_partition(total: int, max_part: int, rng) -> tuple[int, ...]:
    """Random partition of `total` with parts <= max_part (greedy sampling)."""
    parts = []
    left = total
    while left:
        k = int(rng.integers(1, min(max_part, left) + 1))
        parts.append(k)
        left -= k
    return tuple(sorted(parts, reverse=True))


def _random_jordan_conjugate(p: int, n: int, dim: int, rng) -> np.ndarray:
    """q J q^-1 for a random partition J of dim with parts <= n and a random q."""
    parts = random_partition(dim, n, rng)
    q, q_inv = random_invertible(p, dim, rng)
    return mat_mul(mat_mul(q, jordan_matrix(parts), p), q_inv, p)


def random_nil_module(p: int, n: int, dim: int, seed: int, index: int = 0) -> NilModule:
    """Random conjugate of a random Jordan matrix with parts <= n."""
    return nil_module(_random_jordan_conjugate(p, n, dim, rng_for(seed, index)), p, n)


def extension_survey(x: NilModule, z: NilModule, trials: int, seed: int) -> dict:
    """E-additivity and Jordan-type splitting over random extensions of Z by X.

    Trial t draws its coupling block from rng_for(seed, t), as the per-trial
    route in the test oracles (`split_test` of `random_extension`) does. The
    rank of the block-triangular D_Y^j is computed as
    rank Dx^j + rank Dz^j + rank(L_j phi_j N_j) with L_j a left-kernel basis
    of Dx^j and N_j a right-kernel basis of Dz^j, which keeps the per-trial
    work on matrices of cokernel size; rank_stack ranks every trial's at once.
    """
    p, n = x.p, x.n
    dx, dz = x.dim, z.dim
    dim_y = dx + dz
    px, pz = x.powers, z.powers
    rx, rz = rank_sequence(x), rank_sequence(z)

    basis = _extension_space(px, pz, n, p)
    coeffs = np.zeros((trials, basis.shape[0]), np.int64)
    for t in range(trials):
        if basis.shape[0]:
            coeffs[t] = rng_for(seed, t).integers(0, p, size=basis.shape[0])
    phis = mat_mul(coeffs, basis, p).reshape(trials, dx, dz)

    stages = []
    for j in range(1, n):
        left = nullspace_mod(px[j].T, p)
        right = nullspace_mod(pz[j], p).T
        stages.append((j, rx[j] + rz[j], left, right, _coupling_constraint(px, pz, j, p)))

    rank_rows = np.zeros((trials, n + 1), np.int64)
    rank_rows[:, 0] = dim_y
    flat = phis.reshape(trials, dx * dz)
    for j, base_rank, left, right, coupling in stages:
        rank_rows[:, j] = base_rank
        if left.shape[0] and right.shape[1]:
            tops = mat_mul(flat, coupling.T, p).reshape(trials, dx, dz)
            # left @ tops[t] @ right for every trial t, as two stacked products
            small = mat_mul(tops.transpose(0, 2, 1), left.T, p).transpose(0, 2, 1)
            rank_rows[:, j] += rank_stack(mat_mul(small, right, p), p)

    # dim E_i = dim - r_i - r_{n-i} (see _e_dims); a Jordan type and its rank
    # sequence determine each other, and the merged type's sequence is rx + rz
    half = np.arange(1, n // 2 + 1)
    ey = dim_y - rank_rows[:, half] - rank_rows[:, n - half]
    e_additive = (ey == np.add(_e_dims(rx, dx, n), _e_dims(rz, dz, n))).all(axis=1)
    split = (rank_rows == np.add(rx, rz)).all(axis=1)
    x_parts, z_parts = _type_from_ranks(rx, n).parts, _type_from_ranks(rz, n).parts
    violations = [
        {
            "trial": t,
            "seed": seed,
            "p": p,
            "n": n,
            "x_parts": list(x_parts),
            "z_parts": list(z_parts),
            "phi": phis[t].tolist(),
        }
        for t in np.flatnonzero(e_additive & ~split).tolist()
    ]
    return {
        "trials": trials,
        "e_additive": int(e_additive.sum()),
        "split": int(split.sum()),
        "violations": violations,
    }
