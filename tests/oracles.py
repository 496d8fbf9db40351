"""Reference constructions the tests compare production code against.

Each one computes honestly what production code computes in closed form or
by a faster route: elimination one pivot at a time, the shift functors as
subquotients of the dense p-th tensor power, and symmetric powers as
quotients of S^{m-1} tensor X by relation matrices.
"""
import numpy as np

from frobcat.frobenius import CyclicPower, cyclic_power
from frobcat.linalg import PrimeMatrix, as_residues, check_budget, induced_on_subquotient, mat_mul, rref
from frobcat.nilmod import functor_B, functor_E, nil_module
from frobcat.repcat import GroupRep, trivial_rep


def rref_naive(a, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reference elimination in Python ints, exact for every p: one
    full-width outer product per pivot."""
    r = np.asarray(a).astype(object) % p
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        if inv != 1:
            r[row] = r[row] * inv % p
        colvals = r[:, col].copy()
        colvals[row] = 0
        hit = np.nonzero(colvals)[0]
        if hit.size:
            r[hit] = (r[hit] - np.outer(colvals[hit], r[row])) % p
        pivots.append(col)
        row += 1
    return r[:row].astype(np.int64), tuple(pivots)


def mat_mul_naive(a, b, p: int) -> np.ndarray:
    """Modular product in Python ints."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


def power_rep(cp: CyclicPower) -> GroupRep:
    """Dense diagonal action on the power space; budget-checked."""
    n = cp.size
    check_budget(n * n * 8 * max(1, cp.base.group.generators), "dense power representation")
    mats = []
    for k in range(cp.base.group.generators):
        cols = np.eye(n, dtype=np.int64)
        out = np.zeros((n, n), np.int64)
        for j in range(n):
            out[:, j] = cp.apply_generator(k, cols[:, j])
        mats.append(PrimeMatrix.dense(out, cp.p))
    return GroupRep(group=cp.base.group, p=cp.p, dim=n, matrices=tuple(mats))


def subquotient_components(x: GroupRep) -> tuple[list[GroupRep], list[GroupRep]]:
    """F_1..F_{p-1} and G_1..G_{p-1} of X as the block subquotients B_i and
    kernel subquotients E_i of D = 1 - shift on the dense power space, each
    with the diagonal action induced on it."""
    p = x.p
    cp = cyclic_power(x)
    n = cp.size
    shift_mat = np.zeros((n, n), np.int64)
    shift_mat[cp.shift, np.arange(n)] = 1
    m = nil_module((np.eye(n, dtype=np.int64) - shift_mat) % p, p, p)
    gens = power_rep(cp).matrices

    def induced(q) -> GroupRep:
        mats = tuple(
            induced_on_subquotient(g.entries, q.sup, q.sub)
            if q.dim
            else PrimeMatrix.dense(np.zeros((0, 0), np.int64), p)
            for g in gens
        )
        return GroupRep(group=x.group, p=p, dim=q.dim, matrices=mats)

    fs = [induced(functor_B(m, i)) for i in range(1, p)]
    gs = [induced(functor_E(m, i)) for i in range(1, p)]
    return fs, gs


def quotient_symmetric_powers(rep: GroupRep, top: int) -> list[tuple[GroupRep, list[tuple[int, ...]]]]:
    """S^0 .. S^top of rep, each with the monomial of every basis vector.

    S^m is the coinvariant quotient of S^{m-1} tensor X by the relations
    q(w tensor e_i) tensor e_j = q(w tensor e_j) tensor e_i, where q is the
    previous quotient map, found by RREF of the relation matrix; its basis is
    the non-pivot columns (w, i), the monomial of w times x_i.
    """
    p, d = rep.p, rep.dim
    out = [(trivial_rep(rep.group, p), [()]), (rep, [(j,) for j in range(d)])]
    mu = np.eye(d, dtype=np.int64)  # quotient map S^{m-1} tensor X -> S^m
    while len(out) <= top:
        prev, prev_monos = out[-1]
        prev2_dim = out[-2][0].dim
        s_prev = prev.dim
        q = s_prev * d
        u = mu.reshape(s_prev, prev2_dim, d)
        blocks = []
        for i in range(d):
            for j in range(i + 1, d):
                block = np.zeros((prev2_dim, s_prev, d), np.int64)
                block[:, :, j] = u[:, :, i].T
                block[:, :, i] = (block[:, :, i] - u[:, :, j].T) % p
                blocks.append(block.reshape(prev2_dim, q))
        rels = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, q), np.int64)
        red, piv = rref(rels, p)
        pivset = set(piv)
        nonpiv = [c for c in range(q) if c not in pivset]
        s_new = len(nonpiv)
        cmat = np.zeros((s_new, q), np.int64)
        cmat[np.arange(s_new), nonpiv] = 1
        if piv:
            cmat[:, list(piv)] = (-red[:, nonpiv].T) % p
        ws = np.asarray([c // d for c in nonpiv], dtype=np.int64)
        comps = np.asarray([c % d for c in nonpiv], dtype=np.int64)
        mats = []
        for gp, gx in zip(prev.matrices, rep.matrices):
            cols = (gp.entries[:, ws][:, None, :] * gx.entries[:, comps][None, :, :]).reshape(q, s_new) % p
            mats.append(PrimeMatrix.dense(mat_mul(cmat, cols, p), p))
        monos = [tuple(sorted(prev_monos[w] + (i,))) for w, i in zip(ws.tolist(), comps.tolist())]
        out.append((GroupRep(group=rep.group, p=p, dim=s_new, matrices=tuple(mats)), monos))
        mu = cmat
    return out[: top + 1]
