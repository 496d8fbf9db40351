"""Exact linear algebra over prime fields F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
Products routed through float64 BLAS stay exact because every partial sum
is bounded by cols * (p-1)^2, far below 2^53 for the primes used here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BudgetError",
    "PrimeMatrix",
    "Subspace",
    "Quotient",
    "is_prime",
    "rref",
    "rank_mod",
    "nullspace_mod",
    "mat_mul",
    "mat_pow",
    "solve_right",
    "inverse_mod",
    "kron_arrays",
    "kron",
    "induced_on_subquotient",
    "check_budget",
]

DEFAULT_BUDGET_MB = 512


class BudgetError(RuntimeError):
    """Raised when an allocation would exceed FROBCAT_BUDGET_MB."""


def budget_bytes() -> int:
    """The allocation ceiling; FROBCAT_BUDGET_MB must be a positive integer when set."""
    mb = os.environ.get("FROBCAT_BUDGET_MB", "")
    if not mb:
        return DEFAULT_BUDGET_MB * 1024 * 1024
    if not mb.isdecimal() or int(mb) < 1:
        raise ValueError(f"FROBCAT_BUDGET_MB must be a positive integer, got {mb!r}")
    return int(mb) * 1024 * 1024


def check_budget(nbytes: int, what: str) -> None:
    limit = budget_bytes()
    if nbytes > limit:
        raise BudgetError(
            f"{what} needs {nbytes} bytes but FROBCAT_BUDGET_MB allows {limit}"
        )


def is_prime(p: int) -> bool:
    """Trial division; the moduli used here are tiny."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def as_residues(a, p: int) -> np.ndarray:
    """Coerce to an int64 array of residues in [0, p)."""
    arr = np.asarray(a, dtype=np.int64) % p
    return arr


def rref(
    a, p: int, window: int = 32, reduced: bool = True
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row echelon form over F_p; returns (nonzero rows, pivot cols).

    Elimination is panel-blocked: pivots are cleared at full vector speed
    inside a column window while the row operations are accumulated against
    the window's pivot rows, then applied to the trailing columns as one
    matrix product. Row sources are always pivot rows, so the accumulated
    coefficients capture the whole panel exactly.

    reduced=True gives the canonical reduced form (unit pivots, zeros above);
    reduced=False stops at an echelon basis, which is all a rank or an image
    span needs and skips half the elimination work.
    """
    arr = as_residues(a, p).copy()
    rows, cols = arr.shape
    pivots: list[int] = []
    row = 0
    col = 0
    while row < rows and col < cols:
        w = min(window, cols - col)
        win = arr[:, col : col + w]
        coeff = np.zeros((rows, w), dtype=np.int64)
        r = row
        for cc in range(w):
            if r == rows:
                break
            nz = np.nonzero(win[r:, cc])[0]
            if nz.size == 0:
                continue
            k = r + int(nz[0])
            if k != r:
                arr[[r, k]] = arr[[k, r]]
                coeff[[r, k]] = coeff[[k, r]]
            i = r - row
            coeff[r, i] = (coeff[r, i] + 1) % p
            if reduced:
                inv = pow(int(win[r, cc]), p - 2, p)
                if inv != 1:
                    win[r] = win[r] * inv % p
                    coeff[r] = coeff[r] * inv % p
                colvals = win[:, cc].copy()
                colvals[r] = 0
            else:
                # clear below only, against the unnormalized pivot
                inv = pow(int(win[r, cc]), p - 2, p)
                colvals = win[:, cc] * inv % p
                colvals[: r + 1] = 0
            hit = np.nonzero(colvals)[0]
            if hit.size:
                win[hit] = (win[hit] - np.outer(colvals[hit], win[r])) % p
                coeff[hit] = (coeff[hit] - np.outer(colvals[hit], coeff[r])) % p
            pivots.append(col + cc)
            r += 1
        k = r - row
        if k and col + w < cols:
            trail = arr[:, col + w :]
            update = mat_mul(coeff[:, :k], trail[row : row + k].copy(), p)
            trail[row : row + k] = 0
            trail += update
            trail %= p
        row = r
        col += w
    return arr[:row].copy(), tuple(pivots)


def rank_mod(a, p: int) -> int:
    return len(rref(a, p, reduced=False)[1])


def nullspace_mod(a, p: int) -> np.ndarray:
    """Canonical (RREF) basis of {x : a @ x = 0}, one row per basis vector."""
    arr = as_residues(a, p)
    red, pivots = rref(arr, p)
    cols = arr.shape[1]
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if free:
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, list(pivots)] = (-red[:, free].T) % p
    # identity block sits on the free columns; one more pass canonicalizes
    return rref(basis, p)[0]


def mat_mul(a, b, p: int) -> np.ndarray:
    """Exact modular product, through BLAS when the bound permits."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner == 0 or a.size == 0 or b.size == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    if (p - 1) * (p - 1) * inner < 2**53:
        c = (a.astype(np.float64) @ b.astype(np.float64)) % p
        return c.astype(np.int64)
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def mat_pow(a, k: int, p: int) -> np.ndarray:
    """a^k mod p by repeated squaring."""
    n = a.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = as_residues(a, p)
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        base_sq = mat_mul(base, base, p) if k > 1 else base
        base = base_sq
        k >>= 1
    return result


def solve_right(a, b, p: int) -> np.ndarray:
    """Solve a @ x = b exactly; raises ValueError if inconsistent.

    b may be a vector or a matrix of stacked right-hand columns.
    """
    a = as_residues(a, p)
    b = as_residues(b, p)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    aug = np.concatenate([a, b], axis=1)
    red, pivots = rref(aug, p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = red[row, n:]
    return x[:, 0] if vec else x


def inverse_mod(a, p: int) -> np.ndarray:
    a = as_residues(a, p)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = rref(aug, p)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular mod p")
    return red[:, n:]


def random_invertible(p: int, dim: int, rng) -> np.ndarray:
    """Uniform invertible matrix by rejection; fine at these sizes."""
    if dim == 0:
        return np.zeros((0, 0), np.int64)
    while True:
        cand = rng.integers(0, p, size=(dim, dim)).astype(np.int64)
        if rank_mod(cand, p) == dim:
            return cand


def kron_arrays(a, b, p: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    check_budget(a.size * b.size * 8, "kron product")
    return np.kron(a, b) % p


@dataclass(frozen=True, eq=False)
class PrimeMatrix:
    """Dense matrix over F_p with read-only residue entries."""

    p: int
    rows: int
    cols: int
    _dense: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        if self._dense.shape != (self.rows, self.cols):
            raise ValueError("entry array shape mismatch")
        self._dense.flags.writeable = False

    @classmethod
    def dense(cls, entries, p: int) -> "PrimeMatrix":
        arr = as_residues(entries, p)
        if arr.ndim != 2:
            raise ValueError("dense entries must be 2-dimensional")
        return cls(p=p, rows=arr.shape[0], cols=arr.shape[1], _dense=arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> np.ndarray:
        return self._dense

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """Matrix times column vector(s); vecs has shape (cols,) or (cols, k)."""
        return mat_mul(self._dense, as_residues(vecs, self.p), self.p)

    def rank(self) -> int:
        return rank_mod(self._dense, self.p)


def kron(a: PrimeMatrix, b: PrimeMatrix) -> PrimeMatrix:
    if a.p != b.p:
        raise ValueError("mixed moduli in kron")
    return PrimeMatrix.dense(kron_arrays(a.entries, b.entries, a.p), a.p)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of F_p^ambient, stored as canonical RREF basis rows."""

    p: int
    ambient: int
    basis: np.ndarray
    pivots: tuple[int, ...]

    def __post_init__(self):
        self.basis.flags.writeable = False

    @classmethod
    def from_rows(cls, rows, p: int, ambient: int | None = None) -> "Subspace":
        arr = as_residues(rows, p)
        if arr.ndim == 1:
            arr = arr[None, :]
        red, piv = rref(arr, p)
        amb = arr.shape[1] if ambient is None else ambient
        return cls(p=p, ambient=amb, basis=red, pivots=piv)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p=p, ambient=ambient, basis=np.zeros((0, ambient), np.int64), pivots=())

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls.from_rows(np.eye(ambient, dtype=np.int64), p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, vecs) -> np.ndarray:
        """Subtract the projection onto this subspace (pivot elimination)."""
        v = as_residues(vecs, self.p)
        if self.dim == 0:
            return v
        coeff = v[..., list(self.pivots)]
        return (v - coeff @ self.basis) % self.p

    def contains_vectors(self, vecs) -> bool:
        return not np.any(self.reduce(vecs))

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        return self.contains_vectors(other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_rows(stacked, self.p, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style: kernel of [A^T | -B^T] gives the common combos."""
        a, b = self.basis, other.basis
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.p, self.ambient)
        stacked = np.concatenate([a.T, (-b.T) % self.p], axis=1)
        combos = nullspace_mod(stacked, self.p)
        vecs = mat_mul(combos[:, : self.dim], a, self.p)
        return Subspace.from_rows(vecs, self.p, self.ambient)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )


@dataclass(frozen=True, eq=False)
class Quotient:
    """U/W with the canonical complement basis.

    Because W <= U in RREF, pivots(W) is a subset of pivots(U); the rows of
    U's basis whose pivots are not pivots of W descend to a basis of U/W.
    Coordinates of a class: reduce mod W, read off the complement pivots.
    """

    sup: Subspace
    sub: Subspace
    lifts: np.ndarray
    coord_columns: tuple[int, ...]

    @classmethod
    def of(cls, sup: Subspace, sub: Subspace) -> "Quotient":
        if not sup.contains(sub):
            raise ValueError("quotient denominator is not contained in the numerator")
        subpiv = set(sub.pivots)
        keep = [k for k, c in enumerate(sup.pivots) if c not in subpiv]
        cols = tuple(sup.pivots[k] for k in keep)
        lifts = sup.basis[keep].copy() if keep else np.zeros((0, sup.ambient), np.int64)
        return cls(sup=sup, sub=sub, lifts=lifts, coord_columns=cols)

    @property
    def p(self) -> int:
        return self.sup.p

    @property
    def dim(self) -> int:
        return len(self.coord_columns)

    def coords(self, vecs) -> np.ndarray:
        v = as_residues(vecs, self.p)
        if not self.sup.contains_vectors(v):
            raise ValueError("vector is not in the quotient numerator")
        reduced = self.sub.reduce(v)
        if self.dim == 0:
            return np.zeros(v.shape[:-1] + (0,), dtype=np.int64)
        return reduced[..., list(self.coord_columns)]


def _apply_any(m, vec: np.ndarray, p: int) -> np.ndarray:
    if isinstance(m, PrimeMatrix):
        return m.apply(vec)
    return mat_mul(m, vec, p)


def induced_on_subquotient(
    m,
    sup: Subspace,
    sub: Subspace,
    target_sup: Subspace | None = None,
    target_sub: Subspace | None = None,
) -> PrimeMatrix:
    """Matrix induced by m on sup/sub -> target_sup/target_sub.

    Errors if the containments fail or m does not map the source pair into
    the target pair. Target defaults to the source pair.
    """
    p = sup.p
    if target_sup is None:
        target_sup = sup
    if target_sub is None:
        target_sub = sub
    src = Quotient.of(sup, sub)
    dst = Quotient.of(target_sup, target_sub)
    if sub.dim:
        if not target_sub.contains_vectors(_apply_any(m, sub.basis.T, p).T):
            raise ValueError("map does not send the denominator into the target denominator")
    if src.dim == 0:
        return PrimeMatrix.dense(np.zeros((dst.dim, 0), np.int64), p)
    images = _apply_any(m, src.lifts.T, p).T
    if not target_sup.contains_vectors(images):
        raise ValueError("map does not send the numerator into the target numerator")
    cols = dst.coords(images)
    return PrimeMatrix.dense(cols.T, p)
