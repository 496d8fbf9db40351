"""Modules over the truncated polynomial ring F_p[D]/(D^n).

A module is a finite-dimensional F_p-space with a nilpotent operator D,
D^n = 0. Jordan types, the subquotient functors attached to kernel/image
filtrations of D, and extension splitting tests live here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    PrimeMatrix,
    Quotient,
    Subspace,
    as_residues,
    inverse_mod,
    kron_arrays,
    mat_mul,
    nullspace_mod,
    random_invertible,
    rank_mod,
    rref,
)
from .seeding import rng_for

__all__ = [
    "NilModule",
    "JordanType",
    "ShortExactSeq",
    "nil_module",
    "jordan_module",
    "direct_sum_module",
    "rank_sequence",
    "jordan_type",
    "functor_B",
    "functor_E",
    "functor_L_and_Eis",
    "multiplicity_vector",
    "split_test",
    "extension_from_phi",
    "random_extension",
    "extension_survey",
    "random_partition",
    "random_nil_module",
]


@dataclass(frozen=True, eq=False)
class NilModule:
    """F_p[D]/(D^n)-module: prime p, nilpotency order n, operator D."""

    p: int
    n: int
    dim: int
    D: PrimeMatrix

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("nilpotency order must be >= 1")
        if self.D.shape != (self.dim, self.dim):
            raise ValueError("operator shape does not match dim")
        if self.D.p != self.p:
            raise ValueError("operator modulus mismatch")
        if np.any(_power(self, self.n)):
            raise ValueError(f"operator is not nilpotent of order {self.n}")


def nil_module(d, p: int, n: int) -> NilModule:
    """Wrap a dense operator array (or PrimeMatrix) as a NilModule."""
    mat = d if isinstance(d, PrimeMatrix) else PrimeMatrix.dense(as_residues(d, p), p)
    return NilModule(p=p, n=n, dim=mat.rows, D=mat)


def _jordan_block_arr(size: int) -> np.ndarray:
    arr = np.zeros((size, size), np.int64)
    for k in range(size - 1):
        arr[k + 1, k] = 1
    return arr


def jordan_matrix(parts: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal nilpotent matrix with the given block sizes."""
    dim = sum(parts)
    arr = np.zeros((dim, dim), np.int64)
    at = 0
    for size in parts:
        arr[at : at + size, at : at + size] = _jordan_block_arr(size)
        at += size
    return arr


def jordan_module(p: int, n: int, parts) -> NilModule:
    parts = tuple(int(k) for k in parts)
    if any(k < 1 or k > n for k in parts):
        raise ValueError(f"block sizes must lie in [1, {n}]")
    return nil_module(jordan_matrix(parts), p, n)


def direct_sum_module(x: NilModule, z: NilModule) -> NilModule:
    if (x.p, x.n) != (z.p, z.n):
        raise ValueError("summands must share p and n")
    d = np.zeros((x.dim + z.dim, x.dim + z.dim), np.int64)
    d[: x.dim, : x.dim] = x.D.entries
    d[x.dim :, x.dim :] = z.D.entries
    return nil_module(d, x.p, x.n)


def _power_list(d: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    out = [np.eye(d.shape[0], dtype=np.int64)]
    for _ in range(n):
        out.append(mat_mul(out[-1], d, p))
    return out


def _power(m: NilModule, k: int) -> np.ndarray:
    return _power_list(m.D.entries, k, m.p)[k]


def rank_sequence(m: NilModule) -> tuple[int, ...]:
    """(rank D^0, ..., rank D^n); r_0 = dim, r_n = 0."""
    return _rank_sequence_arr(m.D.entries, m.n, m.p)


def _rank_sequence_arr(d: np.ndarray, n: int, p: int) -> tuple[int, ...]:
    # iterated image: a row basis of Im D^k is (basis of Im D^{k-1}) @ D^T
    # reduced again, so elimination sizes shrink with the ranks
    ranks = [d.shape[0]]
    rows = None
    for k in range(1, n + 1):
        src = d.T if k == 1 else mat_mul(rows, d.T, p)
        rows, piv = rref(src, p, reduced=False)
        ranks.append(len(piv))
        if not piv:
            ranks.extend([0] * (n - k))
            break
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
    parts = []
    for j in range(1, n + 1):
        nxt = ranks[j + 1] if j + 1 <= n else 0
        mult = ranks[j - 1] - 2 * ranks[j] + nxt
        if mult < 0:
            raise ValueError("rank sequence is not convex; operator not nilpotent?")
        parts.extend([j] * mult)
    return JordanType(tuple(sorted(parts, reverse=True)))


def jordan_type(m: NilModule) -> JordanType:
    """Block sizes of D from second differences of the rank sequence."""
    t = _type_from_ranks(rank_sequence(m), m.n)
    assert t.dim == m.dim
    return t


def _kernel_of_power(m: NilModule, k: int) -> Subspace:
    if k == 0:
        return Subspace.zero(m.p, m.dim)
    return Subspace.from_rows(nullspace_mod(_power(m, k), m.p), m.p, m.dim)


def _image_of_power(m: NilModule, k: int) -> Subspace:
    if k == 0:
        return Subspace.full(m.p, m.dim)
    return Subspace.from_rows(_power(m, k).T, m.p, m.dim)


def functor_B(m: NilModule, i: int) -> Quotient:
    """(Ker D ∩ Im D^{i-1}) / (Ker D ∩ Im D^i); dim = multiplicity of J_i."""
    if not 1 <= i <= m.n:
        raise ValueError(f"index {i} outside [1, {m.n}]")
    ker = _kernel_of_power(m, 1)
    upper = ker.intersect(_image_of_power(m, i - 1))
    lower = ker.intersect(_image_of_power(m, i))
    return Quotient.of(upper, lower)


def functor_E(m: NilModule, i: int) -> Quotient:
    """Ker D^i / Im D^{n-i}."""
    if not 0 <= i <= m.n:
        raise ValueError(f"index {i} outside [0, {m.n}]")
    return Quotient.of(_kernel_of_power(m, i), _image_of_power(m, m.n - i))


def functor_L_and_Eis(m: NilModule, i: int, j: int | None = None, s: int | None = None) -> Quotient:
    """Intermediate subquotients.

    With j: (Ker D ∩ Im D^i) / (Ker D ∩ Im D^j), i <= j.
    With s: (Ker D^s ∩ Im D^{i-s}) / Im D^{n-s}, 0 <= s <= i; the dimension
    recursion against the s-1 stage and the intermediate quotient is checked.
    """
    if (j is None) == (s is None):
        raise ValueError("pass exactly one of j (L mode) or s (partial-E mode)")
    if j is not None:
        if not 0 <= i <= j <= m.n:
            raise ValueError("need 0 <= i <= j <= n")
        ker = _kernel_of_power(m, 1)
        return Quotient.of(ker.intersect(_image_of_power(m, i)), ker.intersect(_image_of_power(m, j)))
    if not 0 <= s <= i <= m.n:
        raise ValueError("need 0 <= s <= i <= n")
    upper = _kernel_of_power(m, s).intersect(_image_of_power(m, i - s))
    q = Quotient.of(upper, _image_of_power(m, m.n - s))
    if s >= 1 and i < m.n:
        step = functor_L_and_Eis(m, i - s, j=m.n - s)
        prev = functor_L_and_Eis(m, i, s=s - 1)
        if q.dim != step.dim + prev.dim:
            raise AssertionError("partial-E dimension recursion failed")
    return q


def multiplicity_vector(n: int, i: int) -> tuple[int, ...]:
    """(min(i,j,n-i,n-j))_{j=1..n}: E_i-dimensions of the single blocks."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} outside [0, {n}]")
    return tuple(min(i, j, n - i, n - j) for j in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class ShortExactSeq:
    """0 -> X -> Y -> Z -> 0 of NilModules with explicit maps."""

    x: NilModule
    y: NilModule
    z: NilModule
    inj: PrimeMatrix
    surj: PrimeMatrix

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if not (x.p == y.p == z.p and x.n == y.n == z.n):
            raise ValueError("all three modules must share p and n")
        _check_ses_maps(self, [(x.D, y.D, z.D)], "D")


def _check_ses_maps(s, operators, acting: str) -> None:
    """Raise ValueError unless s.inj, s.surj make 0 -> X -> Y -> Z -> 0 exact.

    `s` has x, y, z (each with p and dim) and the PrimeMatrix maps inj and
    surj; both maps must intertwine every (X, Y, Z) triple of PrimeMatrix
    operators in `operators`, which `acting` names in the messages.
    """
    x, y, z = s.x, s.y, s.z
    if s.inj.shape != (y.dim, x.dim) or s.surj.shape != (z.dim, y.dim):
        raise ValueError("map shapes do not match")
    if y.dim != x.dim + z.dim:
        raise ValueError("middle dimension must be the sum")
    p = x.p
    a, b = s.inj.entries, s.surj.entries
    if rank_mod(a, p) != x.dim:
        raise ValueError("injection is not injective")
    if rank_mod(b, p) != z.dim:
        raise ValueError("surjection is not surjective")
    if np.any(mat_mul(b, a, p)):
        raise ValueError("composition is not zero")
    for ox, oy, oz in operators:
        if np.any((mat_mul(a, ox.entries, p) - mat_mul(oy.entries, a, p)) % p):
            raise ValueError(f"injection does not intertwine {acting}")
        if np.any((mat_mul(b, oy.entries, p) - mat_mul(oz.entries, b, p)) % p):
            raise ValueError(f"surjection does not intertwine {acting}")


def _e_dims(ranks: tuple[int, ...], dim: int, n: int) -> tuple[int, ...]:
    # dim E_i = dim Ker D^i - dim Im D^{n-i} = dim - r_i - r_{n-i}
    return tuple(dim - ranks[i] - ranks[n - i] for i in range(1, n // 2 + 1))


def split_test(s: ShortExactSeq) -> dict:
    """Additivity of the E-dimensions (i <= n/2) and Jordan-type splitting."""
    n = s.x.n
    rx, ry, rz = rank_sequence(s.x), rank_sequence(s.y), rank_sequence(s.z)
    ex = _e_dims(rx, s.x.dim, n)
    ey = _e_dims(ry, s.y.dim, n)
    ez = _e_dims(rz, s.z.dim, n)
    e_additive = all(ey[k] == ex[k] + ez[k] for k in range(len(ey)))
    split = _type_from_ranks(ry, n) == _type_from_ranks(rx, n).merge(_type_from_ranks(rz, n))
    return {
        "e_additive": e_additive,
        "split": split,
        "implication_holds": (not e_additive) or split,
    }


@lru_cache(maxsize=512)
def _extension_space(p: int, n: int, dx_bytes: bytes, dx_dim: int, dz_bytes: bytes, dz_dim: int):
    """Nullspace basis of the D_Y^n = 0 constraint on the coupling block.

    Row-major vec: the top-right block of D_Y^n is sum_{a+b=n-1} Dx^a phi Dz^b,
    a linear map of phi with matrix sum_a kron(Dx^a, (Dz^b)^T).
    """
    dx = np.frombuffer(dx_bytes, dtype=np.int64).reshape(dx_dim, dx_dim)
    dz = np.frombuffer(dz_bytes, dtype=np.int64).reshape(dz_dim, dz_dim)
    px = _power_list(dx, n - 1, p)
    pz = _power_list(dz, n - 1, p)
    constraint = np.zeros((dx_dim * dz_dim, dx_dim * dz_dim), np.int64)
    for a in range(n):
        constraint = (constraint + kron_arrays(px[a], pz[n - 1 - a].T, p)) % p
    return nullspace_mod(constraint, p)


def _coupling_basis(x: NilModule, z: NilModule) -> np.ndarray:
    return _extension_space(
        x.p, x.n, x.D.entries.tobytes(), x.dim, z.D.entries.tobytes(), z.dim
    )


def extension_from_phi(x: NilModule, z: NilModule, phi) -> ShortExactSeq:
    """The extension of Z by X with coupling block phi (must keep D_Y^n = 0)."""
    p, n = x.p, x.n
    phi = as_residues(phi, p)
    if phi.shape != (x.dim, z.dim):
        raise ValueError("coupling block has wrong shape")
    d = np.zeros((x.dim + z.dim, x.dim + z.dim), np.int64)
    d[: x.dim, : x.dim] = x.D.entries
    d[: x.dim, x.dim :] = phi
    d[x.dim :, x.dim :] = z.D.entries
    y = nil_module(d, p, n)
    inj = np.zeros((y.dim, x.dim), np.int64)
    inj[: x.dim] = np.eye(x.dim, dtype=np.int64)
    surj = np.zeros((z.dim, y.dim), np.int64)
    surj[:, x.dim :] = np.eye(z.dim, dtype=np.int64)
    return ShortExactSeq(
        x=x, y=y, z=z, inj=PrimeMatrix.dense(inj, p), surj=PrimeMatrix.dense(surj, p)
    )


def _phi_for_trial(x: NilModule, z: NilModule, seed: int, index: int) -> np.ndarray:
    basis = _coupling_basis(x, z)
    rng = rng_for(seed, index)
    if basis.shape[0] == 0:
        return np.zeros((x.dim, z.dim), np.int64)
    coeffs = rng.integers(0, x.p, size=basis.shape[0])
    return (coeffs @ basis % x.p).reshape(x.dim, z.dim)


def random_extension(x: NilModule, z: NilModule, seed: int, index: int = 0) -> ShortExactSeq:
    """Uniformly random admissible extension of Z by X, deterministic in (seed, index)."""
    return extension_from_phi(x, z, _phi_for_trial(x, z, seed, index))


def random_partition(total: int, max_part: int, rng) -> tuple[int, ...]:
    """Random partition of `total` with parts <= max_part (greedy sampling)."""
    parts = []
    left = total
    while left:
        k = int(rng.integers(1, min(max_part, left) + 1))
        parts.append(k)
        left -= k
    return tuple(sorted(parts, reverse=True))


def random_nil_module(p: int, n: int, dim: int, seed: int, index: int = 0) -> NilModule:
    """Random conjugate of a random Jordan matrix with parts <= n."""
    rng = rng_for(seed, index)
    parts = random_partition(dim, n, rng)
    q = random_invertible(p, dim, rng)
    d = mat_mul(mat_mul(q, jordan_matrix(parts), p), inverse_mod(q, p), p)
    return nil_module(d, p, n)


def _tiny_rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def extension_survey(x: NilModule, z: NilModule, trials: int, seed: int) -> dict:
    """Batched split_test over random extensions of Z by X.

    Same per-trial coupling blocks as random_extension(x, z, seed, index=t);
    rank of the block-triangular D_Y^j is computed as
    rank Dx^j + rank Dz^j + rank(L_j phi_j N_j) with L_j a left-kernel basis
    of Dx^j and N_j a right-kernel basis of Dz^j, which keeps the per-trial
    work on matrices of cokernel size.
    """
    p, n = x.p, x.n
    dx, dz = x.dim, z.dim
    dim_y = dx + dz
    px = _power_list(x.D.entries, n, p)
    pz = _power_list(z.D.entries, n, p)
    rx = _rank_sequence_arr(x.D.entries, n, p)
    rz = _rank_sequence_arr(z.D.entries, n, p)
    ex, ez = _e_dims(rx, dx, n), _e_dims(rz, dz, n)
    merged = _type_from_ranks(rx, n).merge(_type_from_ranks(rz, n))

    basis = _coupling_basis(x, z)
    coeffs = np.zeros((trials, basis.shape[0]), np.int64)
    for t in range(trials):
        if basis.shape[0]:
            coeffs[t] = rng_for(seed, t).integers(0, p, size=basis.shape[0])
    phis = (coeffs @ basis % p).reshape(trials, dx, dz) if basis.shape[0] else np.zeros(
        (trials, dx, dz), np.int64
    )

    stages = []
    for j in range(1, n):
        left = nullspace_mod(px[j].T, p)
        right = nullspace_mod(pz[j], p).T
        coupling = np.zeros((dx * dz, dx * dz), np.int64)
        for a in range(j):
            coupling = (coupling + kron_arrays(px[a], pz[j - 1 - a].T, p)) % p
        stages.append((j, rx[j] + rz[j], left, right, coupling))

    rank_rows = np.zeros((trials, n + 1), np.int64)
    rank_rows[:, 0] = dim_y
    flat = phis.reshape(trials, dx * dz)
    for j, base_rank, left, right, coupling in stages:
        tops = (flat @ coupling.T % p).reshape(trials, dx, dz)
        if left.shape[0] and right.shape[1]:
            small = np.einsum("ia,tab->tib", left, tops) % p
            small = np.einsum("tib,bj->tij", small, right) % p
            extra = [_tiny_rank(small[t], p) for t in range(trials)]
        else:
            extra = [0] * trials
        rank_rows[:, j] = base_rank + np.asarray(extra)

    violations = []
    e_add_count = split_count = 0
    for t in range(trials):
        ranks = tuple(int(v) for v in rank_rows[t])
        ey = _e_dims(ranks, dim_y, n)
        e_additive = all(ey[k] == ex[k] + ez[k] for k in range(len(ey)))
        split = _type_from_ranks(ranks, n) == merged
        e_add_count += e_additive
        split_count += split
        if e_additive and not split:
            violations.append(
                {
                    "trial": t,
                    "seed": seed,
                    "p": p,
                    "n": n,
                    "x_parts": list(jordan_type(x).parts),
                    "z_parts": list(jordan_type(z).parts),
                    "phi": phis[t].tolist(),
                }
            )
    return {
        "trials": trials,
        "e_additive": e_add_count,
        "split": split_count,
        "violations": violations,
    }
