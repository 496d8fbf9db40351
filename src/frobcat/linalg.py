"""Exact linear algebra over prime fields F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
Every matrix product goes through `mat_mul`, in one of three exact regimes
chosen by the bound (p-1)^2 * k on its partial sums, for inner size k: one
float32 GEMM while the bound is below 2^24, one float64 GEMM while it is
below 2^53, each then reduced in int64, and past that four float64 GEMMs of
16-bit halves, recombined in int64 (`_split_mul`). Every elimination update
x - a @ b is one fused multiply-subtract (`_product(a, b, p, x)`): one GEMM
and one reduction of t - a @ b + x, t a multiple of p at least the product
bound, whose regime follows from that bound plus p. Inner helpers trust
their entries: `mat_mul` checks the modulus and converts its operands once,
and the eliminations and `Subspace.reduce` hand `_product` int64 residues
whose modulus they checked. Every array remainder goes
through `_remainder`: c - (c // p) * p, which numpy runs through libdivide,
from 512 entries, and one `%` below. `rref` computes one form, the reduced
one, whose pivots give the rank (`rank_mod`); it splits rows recursively so
that its work is a few such products; the recursion stacks its merged rows
unsorted, and `rref` (past one leaf) and `Subspace.add` sort their result by
pivot once. Blocks of at most 16 rows have three base cases: up to 196
entries, one pivot at a time on lists of Python ints; up to 64 columns, one
pivot at a time on the array; past that, a panel of 32 live columns at a
time, whose row transform one product applies to the rest. The array loop
(`_pivot_loop`) delays its reduction: an update lowers an entry by at most
(p-1)^2, so a block of residues takes (2^63 - p) // (p-1)^2 updates exactly
in int64, and it is reduced after that many (after each one only past p =
2^31) and at the end. An elimination is priced once, on entry, at its
traced peak; its own products are not priced again. Entrywise residue
products are int64, so `as_residues`,
which every kernel reduces its input with (input already in range is only
copied), and `mat_mul` refuse p with (p-1)^2 >= 2^63, as `check_modulus`
does at the CLI and owner boundary; no kernel forms products in Python-int
arrays. The owners of matrices (group
reps, nil-modules, exact sequences) hold them as read-only residue arrays
from `frozen_matrix`. `rank_stack` ranks a stack of small matrices in one
lockstep sweep. Each array is reduced mod p once, where it enters: a kernel
reduces its input, an owner its matrices. So `kron_arrays` is exact (entries
below p^2, within int64), and the consumer reduces it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "BudgetError",
    "Subspace",
    "Quotient",
    "is_prime",
    "rref",
    "rank_mod",
    "rank_stack",
    "nullspace_mod",
    "mat_mul",
    "mat_pow",
    "inverse_mod",
    "kron_arrays",
    "check_budget",
    "check_modulus",
    "frozen_matrix",
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


@cache
def is_prime(p: int) -> bool:
    """Trial division, once per modulus and process: owners check theirs on construction."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_int64_products(p: int) -> None:
    if (p - 1) * (p - 1) >= 2**63:
        raise ValueError(f"p = {p} is too large: products of residues would overflow int64")


def check_modulus(p: int) -> None:
    """Refuse a modulus that is not prime, or too large for exact int64 work:
    entrywise products of two residues are formed in int64, so (p-1)^2 must
    stay below 2^63."""
    _check_int64_products(p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


# Below this many entries one remainder costs less than the two range scans
# by which as_residues would skip it.
_SMALL_CELLS = 2**12


def as_residues(a, p: int) -> np.ndarray:
    """A fresh int64 array of the residues of a in [0, p); refuses p with
    (p-1)^2 >= 2^63. Past _SMALL_CELLS entries, input already in range is
    only copied: the copy and two scans cost about a quarter of the `%`."""
    _check_int64_products(p)
    arr = np.array(a, dtype=np.int64)
    if arr.size < _SMALL_CELLS or arr.min() < 0 or arr.max() >= p:
        _remainder(arr, p)
    return arr


def frozen_matrix(a, p: int) -> np.ndarray:
    """A read-only 2-D residue copy of a: how the owner types hold their matrices.
    Priced before the copy at its traced peak, at most 2.0 words per entry with
    the remainder's quotient (shapes 300^2 to 2000^2 and 10 x 4000)."""
    check_budget(16 * np.size(a), "residue copy")
    arr = as_residues(a, p)
    if arr.ndim != 2:
        raise ValueError(f"a matrix must be 2-dimensional, got {arr.ndim} dimensions")
    arr.flags.writeable = False
    return arr


def _price_rows(rows: int, cols: int, p: int, more: int = 0) -> None:
    """Price a row reduction of a rows x cols block at its traced peak (the
    residue copy, the operands of the largest products and the merged
    result), with `more` bytes its caller holds beside it. Over `rref` of
    shapes from 64^2 to 1024 x 2048 and 40 x 4000, and `Subspace.add` of 1
    to 900 rows to bases of 10 to 900, that peak was at most 5.0 words per
    entry while every product runs in one float GEMM, and 6.0 once one may
    split (_split_mul's halves and their partial products); priced at 5.5
    and 6.5 words. The recursion's own products are then not priced again.
    """
    split = (p - 1) * (p - 1) * min(rows, cols) + p >= _FLOAT64_EXACT
    check_budget((52 if split else 44) * rows * cols + more, "row reduction")


def rref(a, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols).

    The canonical form: unit pivots with zeros above and below them, rows in
    increasing pivot order, so that rows[:, pivots] is the identity. A rank
    is its number of pivots, a kernel basis is read off its free columns.
    """
    rows, cols = np.shape(a)
    _price_rows(rows, cols, p)
    arr = as_residues(a, p)
    if arr.size == 0:
        return np.zeros((0, cols), np.int64), ()
    red, pivots = _eliminate(arr, p)
    if rows > _LEAF_ROWS:  # the recursion merged its blocks unsorted
        order = np.argsort(pivots)
        red, pivots = red[order], pivots[order]
    return red, tuple(pivots.tolist())


# Blocks of at most this many rows are eliminated one pivot at a time: below
# it, numpy's per-call cost outweighs the row work a split into products saves.
_LEAF_ROWS = 16
# Panels beat the pivot loop only past 64 columns; widths 16 to 48 are within 10%, 64 is slower.
_PANEL_COLS = 32
# Blocks of at most this many entries are eliminated in Python ints: on the
# leaves of a check_suites pass that took 0.26-0.80x the pivot loop's time up to
# 196 entries and 1.05-1.6x past it; a green_tensor pass crosses over at 256.
_TINY_CELLS = 196


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced rows and pivot array of the residue matrix a, which it may
    overwrite; the rows are in pivot order only within a leaf.

    Row-recursive: R1 = RREF(top half); the bottom half minus bottom[:, P1] @ R1
    vanishes on the pivot columns P1, so only its other columns are eliminated,
    recursively; R1 is then cleared on the new pivots with one more update,
    and the rows are stacked, R1's first. Both updates are fused
    multiply-subtracts (_product with x); the panels of _eliminate_rows are
    plain products (_product), none priced again after rref's entry price.
    """
    m = a.shape[0]
    if m <= _LEAF_ROWS:
        return _eliminate_rows(a, p)
    h = m // 2
    top, ptop = _eliminate(a[:h], p)
    if not ptop.size:
        return _eliminate(a[h:], p)
    return _extend(top, ptop, a[h:], p)


def _extend(top, ptop, bottom, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced rows and pivot array of the span of reduced rows `top` (pivots
    `ptop`, in any order; not written to) and residue rows `bottom`.

    bottom minus bottom[:, ptop] @ top vanishes on ptop, so only its rows'
    other columns are eliminated; top is then cleared on the new pivots. The
    rows are returned unsorted, top's first: the caller sorts its result by
    pivot once.
    """
    n = top.shape[1]
    free = np.ones(n, bool)
    free[ptop] = False
    rest = np.flatnonzero(free)
    low = _product(bottom[:, ptop], top[:, rest], p, bottom[:, rest])
    low = low[low.any(axis=1)]
    if not low.size:
        return top, ptop
    low, plow = _eliminate(low, p)
    plow = rest[plow]
    r1 = top.shape[0]
    out = np.zeros((r1 + low.shape[0], n), np.int64)
    out[:r1] = top
    out[r1:, rest] = low
    out[:r1, rest] = _product(top[:, plow], low, p, top[:, rest])
    return out, np.concatenate([ptop, plow])


def _eliminate_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The base case of _eliminate: one pivot at a time over all of a's rows.

    Three ways, by size, with the same pivots and row operations:
    - at most _TINY_CELLS entries: on lists of Python ints (_pivot_lists),
      where the ten or so numpy calls per pivot of the array loop cost more
      than the arithmetic;
    - at most 2 * _PANEL_COLS columns: the pivot loop on the array;
    - wider: a panel at a time (the CUP base case of Dumas, Pernet and
      Sultan). The pivot loop runs on the next _PANEL_COLS live columns
      (nonzero in an unpivoted row) beside the identity, leaving the row
      transform T there, and one product applies T right of the panel, T
      fixing the skipped columns.
    """
    rows, cols = a.shape
    if rows * cols <= _TINY_CELLS:
        return _pivot_lists(a, p)
    if cols <= 2 * _PANEL_COLS:
        r, pivots = _pivot_loop(a, p, 0, cols)
    else:
        pivots, r, c = [], 0, 0
        while r < rows:
            panel = c + np.flatnonzero(a[r:, c:].any(axis=0))[:_PANEL_COLS]
            if not panel.size:
                break
            k = panel.size
            aug = np.concatenate([a[:, panel], np.eye(rows, dtype=np.int64)], axis=1)
            r, found = _pivot_loop(aug, p, r, k)
            pivots.extend(panel[found].tolist())
            a[:, panel] = aug[:, :k]
            c = int(panel[-1]) + 1
            a[:, c:] = _product(aug[:, k:], a[:, c:], p, None)
    return a[:r], np.array(pivots, dtype=np.intp)


def _pivot_lists(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """_pivot_loop's pivots and row operations on a as lists of Python ints."""
    rows = a.tolist()
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        for k in range(r, m):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top[c:] = [x * inv % p for x in top[c:]]
        tail = top[c + 1 :]
        for row in rows:
            f = row[c]
            if f and row is not top:
                row[c] = 0
                row[c + 1 :] = [(x - f * y) % p for x, y in zip(row[c + 1 :], tail)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return np.array(rows[:r], dtype=np.int64).reshape(r, n), np.array(pivots, dtype=np.intp)


def _pivot_loop(work: np.ndarray, p: int, r: int, cols: int) -> tuple[int, list[int]]:
    """Pivot columns [0, cols) of work in place from row r; returns the next row and the pivots.

    Delayed reduction, as FFLAS-FFPACK reduces its blocks: each pivot reduces
    only its column, whose copy gives the multipliers, and its row; the
    outer-product update, which clears the column in every other row, above
    the pivot as well as below, is left unreduced. It lowers an entry by at
    most (p-1)^2, so after u updates from residues an entry lies in
    [-u (p-1)^2, p), and the remainder forms (c // p) * p in [c - p + 1, c]:
    both stay in int64 while u (p-1)^2 + p <= 2^63. The block is reduced
    after that many updates (8 at 2^30 - 35, 2 at 2^31 - 1, 1 at
    3037000493, more than a leaf's 16 below about 2^29.5) and once when the
    loop ends; a dead column's scan for the next live one reads a reduced
    copy. The pivots and row swaps are those of a reduction after every
    pivot, and so is the array it leaves.
    """
    span = (2**63 - p) // ((p - 1) * (p - 1))
    pivots = []
    c = pending = 0  # pending: updates since the columns from c on were last reduced
    while r < len(work) and c < cols:
        col = _remainder(work[:, c : c + 1].copy(), p)
        k = r
        if not col[r, 0]:  # the pivot lies below row r, or column c is dead
            found = col[r:, 0].nonzero()[0]
            if not found.size:
                live = _remainder(work[r:, c:cols].copy(), p).any(axis=0)
                if not live.any():
                    break
                c += int(live.argmax())
                col = _remainder(work[:, c : c + 1].copy(), p)
                found = col[r:, 0].nonzero()[0]
            k += int(found[0])
            if k != r:  # col[r] is 0, the multiplier of the row that moves to k
                swap = work[k].copy()
                work[k] = work[r]
                work[r] = swap
        inv = pow(int(col[k, 0]), -1, p)
        col[k] = 0
        row = work[r, c:]
        if inv != 1:
            if pending > span // (p - 1):  # row * inv could leave int64
                _remainder(row, p)
            row *= inv
        if pending or inv != 1:
            _remainder(row, p)
        work[:, c:] -= col * row
        pivots.append(c)
        r += 1
        c += 1
        pending += 1
        if pending == span:
            _remainder(work[:, c:], p)
            pending = 0
    if pivots:
        _remainder(work, p)
    return r, pivots


def rank_mod(a, p: int) -> int:
    return len(rref(a, p)[1])


def rank_stack(a, p: int) -> np.ndarray:
    """Ranks of a (t, m, n) stack of matrices, eliminated in lockstep.

    Column by column c, each matrix takes its first row nonzero at c, if it
    has one, as pivot row, and every row becomes pivot * row - row[c] *
    pivot row right of c. For the other rows that is an invertible row
    operation clearing c; the pivot row itself becomes zero, so it is never
    taken again, and no inverse is needed. The rank is the number of pivots
    found.
    """
    t, m, n = np.shape(a)
    check_budget(2 * t * m * n * 8, "stacked rank")  # the residue copy and one product
    a = as_residues(a, p)
    ranks = np.zeros(t, np.int64)
    at = np.arange(t)
    for c in range(n):
        col = a[:, :, c]
        nonzero = col != 0
        found = nonzero.any(axis=1)
        if not found.any():
            continue
        ranks += found
        if c + 1 == n:
            break
        k = nonzero.argmax(axis=1)
        pivot = col[at, k] + ~found  # 1 where no pivot: those matrices are left as they are
        top = a[at, k, c + 1 :]
        rest = a[:, :, c + 1 :]
        rest *= pivot[:, None, None]
        rest -= col[:, :, None] * top[:, None, :]
        _remainder(rest, p)
    return ranks


def nullspace_mod(a, p: int) -> np.ndarray:
    """Canonical (RREF) basis of {x : a @ x = 0}, one row per basis vector.

    One elimination: with the columns of a reversed, the RREF gives one
    kernel vector per free column f, equal to 1 at f, zero on every other
    free column, and nonzero elsewhere only on pivot columns left of f.
    Read in the original column order, each vector is therefore zero before
    its free column and on every other free column: the rows, taken in
    increasing free column, are the kernel's RREF basis, with the free
    columns as its pivots.
    """
    return _kernel_rref(a, p)[0]


def _kernel_rref(a, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF basis and pivots of the kernel of a; see nullspace_mod."""
    cols = np.shape(a)[1]
    red, rpiv = rref(np.asarray(a)[:, ::-1], p)
    rfree = (np.bincount(rpiv, minlength=cols) == 0).nonzero()[0]  # free columns of a[:, ::-1]
    k = rfree.size
    free = cols - 1 - rfree[::-1]  # the same columns in the original order, ascending
    basis = np.zeros((k, cols), np.int64)
    basis[np.arange(k), free] = 1
    if rpiv:
        # row i belongs to reversed free column rfree[k-1-i]
        basis[:, cols - 1 - np.array(rpiv)] = _remainder(-red[:, rfree].T, p)[::-1]
    return basis, tuple(free.tolist())


# A product of residues below p over inner size k has every partial sum an
# integer of size at most (p-1)^2 * k, so a float GEMM is exact while that
# bound stays below its significand: 2^24 for float32, 2^53 for float64.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53
# Past 2^53 each operand is split into halves below 2^16; a GEMM of halves is
# exact over at most 2^21 inner terms, since (2^16 - 1)^2 * 2^21 < 2^53.
_HALF_BITS = 16
_SPLIT_SLICE = 2**21


def mat_mul(a, b, p: int) -> np.ndarray:
    """Exact modular product of residue arrays, in the narrowest exact float.

    With k the inner size, the regime follows from the bound (p-1)^2 * k
    alone: one float32 GEMM below 2^24, one float64 GEMM below 2^53, each
    then taken to int64 and reduced by _remainder. Past that, the split
    float64 product of _split_mul, which is exact for every p that
    check_modulus accepts. The float copies and the product are priced
    before they are made.
    """
    _check_int64_products(p)
    check_budget(_product_bytes(np.shape(a), np.shape(b), p, False), "matrix product")
    return _product(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), p, None)


def _float_bound(inner: int, p: int, fused: bool) -> int:
    """The bound on the floats of _product: (p-1)^2 * k, and p more for the
    fused update, whose floats hold t < (p-1)^2 * k + p."""
    return (p - 1) * (p - 1) * inner + (p if fused else 0)


def _product_bytes(a_shape: tuple, b_shape: tuple, p: int, fused: bool) -> int:
    """What _product(a, b, p, x) allocates, x given if fused: the float
    operands and product and the int64 result, or past 2^53 the four
    halves, a GEMM result, its int64 copy and two int64 sums. Only the
    operands' shapes are read, so a price comes before any copy."""
    inner, sizes = a_shape[-1], math.prod(a_shape) + math.prod(b_shape)
    cells = math.prod(a_shape[:-1]) * math.prod(b_shape[1:]) if inner else 0
    bound = _float_bound(inner, p, fused)
    if bound >= _FLOAT64_EXACT:
        return 8 * (2 * sizes + 4 * cells)
    width = 4 if bound < _FLOAT32_EXACT else 8
    return width * (sizes + cells) + 8 * cells


def _product(a: np.ndarray, b: np.ndarray, p: int, x: np.ndarray | None) -> np.ndarray:
    """a @ b mod p (x None), or x - a @ b mod p, for int64 residue arrays.
    It trusts its entries: each caller checked the modulus and priced it.

    With x, one fused multiply-subtract: the GEMM forms g = a @ b; with t
    the least multiple of p at least the product bound (p-1)^2 * k, t - g is
    formed in the same float and x added in int64, so one remainder of
    t - g + x, which lies in [0, t + p), gives the answer. The float must
    hold t, which is below (p-1)^2 * k + p: the regime follows from that
    bound, p above mat_mul's, and past 2^53 the split product is subtracted
    as residues. With an empty product x itself is returned.
    """
    inner = a.shape[-1]
    if inner == 0 or a.size == 0 or b.size == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64) if x is None else x
    bound = _float_bound(inner, p, x is not None)
    if bound >= _FLOAT64_EXACT:
        c = _split_mul(a, b, p)
        if x is None:
            return c
        np.subtract(x, c, out=c)
        c += p & (c >> 63)  # p where the difference is negative
        return c
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    c = a.astype(dtype) @ b.astype(dtype)
    if x is None:
        return _remainder(c.astype(np.int64), p)
    top = -(-(bound - p) // p) * p  # t, the least multiple of p at least the product bound
    np.subtract(top, c, out=c)
    c = c.astype(np.int64)
    c += x
    return _remainder(c, p)


# Below this many entries one `%` call costs less than the three calls of the
# floor-division remainder: the two crossed between 256 and 1024 entries.
_DIVIDE_CELLS = 2**9
# The floor-division remainder works in slices of about this many entries,
# so that its quotient buffer stays in cache.
_REMAINDER_SLICE = 2**15


def _remainder(c: np.ndarray, p: int) -> np.ndarray:
    """c mod p in place, for an int64 array c of any entries and strides.

    Computed as c - (c // p) * p: numpy divides int64 by a scalar through
    libdivide's multiply-shift for `//` but divides each entry for `%`, so
    from _DIVIDE_CELLS entries the three calls cost less than one `%`. At
    900^2 they took 1.6 ms against 3.0 ms, as long as the Barrett
    multiply-shift they replace where its bound let it run (p = 7) and half
    as long where it fell back to `%` (65521, 2^31 - 1). The product wraps
    in int64 only where c is within p of -2^63, and the difference, in
    [0, p), then wraps back. Below _DIVIDE_CELLS entries, one `%`.
    """
    if c.size < _DIVIDE_CELLS:
        np.remainder(c, p, out=c)
        return c
    step = max(1, _REMAINDER_SLICE * len(c) // c.size)
    for start in range(0, len(c), step):
        x = c[start : start + step]
        q = x // p
        q *= p
        x -= q
    return c


def _split_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for p < 2^31.5 (so (p-1)^2 < 2^63), with float64 GEMMs.

    The error-free splitting of Ozaki, Ogita, Oishi and Rump, as FFLAS-FFPACK
    uses it for word-size primes: a = a1 * 2^16 + a0 and b likewise, with
    halves below 2^16, so a @ b = a1b1 * 2^32 + (a1b0 + a0b1) * 2^16 + a0b0.
    Each GEMM of halves is exact over a slice of at most _SPLIT_SLICE inner
    terms; the parts are recombined in int64 by shifts of 16 bits, each
    followed by a remainder, so no value passes 2^63. The slices' residues
    are added and reduced once.
    """
    mask = (1 << _HALF_BITS) - 1
    a1, a0 = (a >> _HALF_BITS).astype(np.float64), (a & mask).astype(np.float64)
    b1, b0 = (b >> _HALF_BITS).astype(np.float64), (b & mask).astype(np.float64)
    total = None
    for start in range(0, a.shape[-1], _SPLIT_SLICE):
        cut = slice(start, start + _SPLIT_SLICE)
        x1, x0, y1, y0 = a1[..., cut], a0[..., cut], b1[cut], b0[cut]
        c = _remainder((x1 @ y1).astype(np.int64), p)
        c <<= _HALF_BITS
        c += (x1 @ y0).astype(np.int64)
        c += (x0 @ y1).astype(np.int64)
        _remainder(c, p)
        c <<= _HALF_BITS
        c += (x0 @ y0).astype(np.int64)
        _remainder(c, p)
        total = c if total is None else total + c
    if a.shape[-1] > _SPLIT_SLICE:
        _remainder(total, p)
    return total


def mat_pow(a, k: int, p: int) -> np.ndarray:
    """a^k mod p by repeated squaring, for k >= 0; a^1 costs no product.
    Every product is n x n by n x n, so one price, from the shape before the
    residue copy, covers them all."""
    if k < 0:
        raise ValueError(f"mat_pow needs an exponent k >= 0, got {k}")
    n = a.shape[0]
    if k > 1:
        check_budget(_product_bytes(a.shape, a.shape, p, False), "matrix product")
    result = None
    base = as_residues(a, p)
    while k:
        if k & 1:
            result = base if result is None else _product(result, base, p, None)
        base = _product(base, base, p, None) if k > 1 else base
        k >>= 1
    return np.eye(n, dtype=np.int64) if result is None else result


def _inverse_or_none(a, p: int) -> np.ndarray | None:
    """The inverse of the square matrix a, read off the reduced [a | I] as
    [I | a^-1]; None when a is singular. Its callers price the elimination
    before [a | I] is built, whose residue copy rref makes."""
    n = len(a)
    red, pivots = rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    return red[:, n:] if pivots == tuple(range(n)) else None


def inverse_mod(a, p: int) -> np.ndarray:
    rows, cols = np.shape(a)
    if rows != cols:
        raise ValueError("inverse of a non-square matrix")
    _price_rows(rows, 2 * rows, p)
    inv = _inverse_or_none(a, p)
    if inv is None:
        raise ValueError("matrix is singular mod p")
    return inv


def random_invertible(p: int, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A uniform invertible matrix q and its inverse, by rejection: one
    reduction of [q | I] per draw tests it and gives the inverse. The draw
    and the reductions are priced before the first draw."""
    if dim == 0:
        return np.zeros((0, 0), np.int64), np.zeros((0, 0), np.int64)
    check_budget(dim * dim * 8, "random invertible matrix")
    _price_rows(dim, 2 * dim, p)
    while True:
        q = rng.integers(0, p, size=(dim, dim))  # int64
        q_inv = _inverse_or_none(q, p)
        if q_inv is not None:
            return q, q_inv


def kron_arrays(a, b) -> np.ndarray:
    """The exact Kronecker product of two residue matrices, priced before it
    is built: one broadcast product, reshaped, which skips np.kron's generic
    handling of any number of dimensions."""
    (m, n), (r, s) = np.shape(a), np.shape(b)
    check_budget(m * n * r * s * 8, "kron product")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * r, n * s)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of F_p^ambient, stored as canonical RREF basis rows."""

    p: int
    basis: np.ndarray
    pivots: tuple[int, ...]

    def __post_init__(self):
        self.basis.flags.writeable = False

    @classmethod
    def from_rows(cls, rows, p: int) -> "Subspace":
        """The span of `rows` (one vector or a 2-D stack) in F_p^width."""
        arr = np.asarray(rows)  # rref reduces it
        if arr.ndim == 1:
            arr = arr[None, :]
        red, piv = rref(arr, p)
        return cls(p=p, basis=red, pivots=piv)

    @classmethod
    def kernel(cls, a, p: int) -> "Subspace":
        """{x : a @ x = 0} in F_p^cols(a), from one elimination."""
        basis, piv = _kernel_rref(a, p)
        return cls(p=p, basis=basis, pivots=piv)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p=p, basis=np.zeros((0, ambient), np.int64), pivots=())

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, vecs) -> np.ndarray:
        """Subtract the projection onto this subspace (pivot elimination),
        with one fused update, priced from the shapes before the residue
        copy is made."""
        if self.dim:  # the coefficients' shape: vecs's, with dim columns
            shape = (*np.shape(vecs)[:-1], self.dim)
            check_budget(_product_bytes(shape, self.basis.shape, self.p, True), "matrix product")
        v = as_residues(vecs, self.p)
        if self.dim == 0:
            return v
        return _product(v[..., list(self.pivots)], self.basis, self.p, v)

    def contains_vectors(self, vecs) -> bool:
        return not np.any(self.reduce(vecs))

    def add(self, other) -> "Subspace":
        """The span of this subspace and `other`, a Subspace or rows.

        The rows are reduced modulo this basis with one fused update; only
        the remainder, on this basis's free columns, is eliminated, and the
        merged rows are sorted by pivot once. The merged rows are priced
        from the shapes, as an elimination of that size, before the residue
        copy is made.
        """
        rows = other.basis if isinstance(other, Subspace) else other
        shape = np.shape(rows)
        if len(shape) == 1:
            shape = (1,) + shape
        if shape[1] != self.ambient:
            raise ValueError(f"rows of width {shape[1]} in a subspace of F_p^{self.ambient}")
        _price_rows(self.dim + shape[0], shape[1], self.p)
        rows = as_residues(rows, self.p).reshape(shape)
        ptop = np.array(self.pivots, dtype=np.intp)
        basis, piv = _extend(self.basis, ptop, rows, self.p)
        if basis is self.basis:
            return self
        order = np.argsort(piv)
        return Subspace(p=self.p, basis=basis[order], pivots=tuple(piv[order].tolist()))

    def preimage(self, a) -> "Subspace":
        """{x : a @ x in W} for this subspace W and a square a with aW ⊆ W (else {x : a (x mod W)
        in W}). With B the basis, pivots P and free columns F, a induces a[F, F] - B[:, F]^T a[P, F]
        on F_p^n / W in the coordinates x[F]: one fused product, whose kernel's reduced rows (zero
        on P) are the new rows. One fused update clears B on their pivots; one sort orders all."""
        n, k, p, f = self.ambient, self.dim, self.p, self.ambient - self.dim
        if np.shape(a) != (n, n):
            raise ValueError(f"an operator of shape {np.shape(a)} on F_p^{n}")
        if not f:
            return self
        # beside the elimination: the merged rows, 16 words a column of pivots, the gathered
        # columns and their residues, B[:, F], and the fused products
        fused = _product_bytes((f, k), (k, f), p, True) + _product_bytes((k, f), (f, f), p, True)
        _price_rows(f, f, p, 8 * (n * (n + 16 + 2 * f) + k * f) + fused)
        pivots = np.array(self.pivots, dtype=np.intp)
        free = (np.bincount(pivots, minlength=n) == 0).nonzero()[0]
        cols = as_residues(np.asarray(a)[np.concatenate([pivots, free])[:, None], free], p)
        bf = self.basis[:, free]
        ker, kp = _kernel_rref(_product(bf.T, cols[:k], p, cols[k:]), p)
        del cols  # freed before the merge: held, it kept a lemm1 pass's peak RSS 3 MB higher
        piv = np.concatenate([pivots, free[list(kp)]])
        rows = np.sort(piv)
        at = rows.searchsorted(piv)[:, None]  # each row's place in pivot order
        out = np.zeros((rows.size, n), np.int64)
        out[at[:k, 0], pivots] = 1  # B[:, P] is the identity
        out[at[:k], free] = _product(self.basis[:, piv[k:]], ker, p, bf)
        out[at[k:], free] = ker
        return Subspace(p=p, basis=out, pivots=tuple(rows.tolist()))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style: kernel of [A^T | -B^T] gives the common combos."""
        a, b = self.basis, other.basis
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.p, self.ambient)
        _price_rows(self.ambient, self.dim + other.dim, self.p)  # before [A^T | -B^T] is built
        combos = nullspace_mod(np.concatenate([a.T, -b.T], axis=1), self.p)  # it reduces -b.T
        vecs = mat_mul(combos[:, : self.dim], a, self.p)
        return Subspace.from_rows(vecs, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
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
        """U/W for W ⊆ U, which the caller's flag gives by construction and which is not
        re-checked; `tests/test_nilmod.py` checks it for every caller in the package."""
        subpiv = set(sub.pivots)
        keep = [k for k, c in enumerate(sup.pivots) if c not in subpiv]
        cols = tuple(sup.pivots[k] for k in keep)
        lifts = sup.basis[keep]  # a copy: the index is a list
        return cls(sup=sup, sub=sub, lifts=lifts, coord_columns=cols)

    @property
    def p(self) -> int:
        return self.sup.p

    @property
    def dim(self) -> int:
        return len(self.coord_columns)

    def coords(self, vecs) -> np.ndarray:
        """The coordinates c = r[..., coord_columns] of r = vecs mod W. RREF rows vanish on the
        other rows' pivots, so r - c @ lifts is zero on every pivot of U: it is vecs mod U, and a
        vector lies in U iff it is zero. One reduction and one fused product, each priced."""
        reduced = self.sub.reduce(vecs)  # reduce takes vecs mod p
        c = reduced[..., list(self.coord_columns)]
        check_budget(_product_bytes(c.shape, self.lifts.shape, self.p, True), "matrix product")
        if np.any(_product(c, self.lifts, self.p, reduced)):
            raise ValueError("vector is not in the quotient numerator")
        return c
