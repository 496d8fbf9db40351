"""Reference constructions the tests compare production code against.

Each one computes honestly what production code computes in closed form or
by a faster route: elimination one pivot at a time, the shift functors as
subquotients of the dense p-th tensor power, the maps of the six-periodic
sequence induced on those subquotients, symmetric powers as quotients
of S^{m-1} tensor X by relation matrices, and the kernel/image subquotients
of a nil-module with every meet taken by `Subspace.intersect`.
"""
import numpy as np

from frobcat.frobenius import CyclicPower, cyclic_power
from frobcat.linalg import (
    Quotient,
    Subspace,
    as_residues,
    check_budget,
    induced_on_subquotient,
    mat_mul,
    mat_pow,
    nullspace_mod,
    rank_mod,
    rref,
)
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
        mats.append(out)
    return GroupRep(group=cp.base.group, p=cp.p, dim=n, matrices=tuple(mats))


def _shift_module(cp: CyclicPower):
    """1 - shift on the dense power space, as a nil-module of order p."""
    p, n = cp.p, cp.size
    shift_mat = np.zeros((n, n), np.int64)
    shift_mat[cp.shift, np.arange(n)] = 1
    return nil_module((np.eye(n, dtype=np.int64) - shift_mat) % p, p, p)


def subquotient_components(x: GroupRep) -> tuple[list[GroupRep], list[GroupRep]]:
    """F_1..F_{p-1} and G_1..G_{p-1} of X as the block subquotients B_i and
    kernel subquotients E_i of D = 1 - shift on the dense power space, each
    with the diagonal action induced on it."""
    p = x.p
    cp = cyclic_power(x)
    m = _shift_module(cp)
    gens = power_rep(cp).matrices

    def induced(q) -> GroupRep:
        mats = tuple(induced_on_subquotient(g, q.sup, q.sub) for g in gens)
        return GroupRep(group=x.group, p=p, dim=q.dim, matrices=mats)

    fs = [induced(functor_B(m, i)) for i in range(1, p)]
    gs = [induced(functor_E(m, i)) for i in range(1, p)]
    return fs, gs


def _kron_power(m: np.ndarray, p: int) -> np.ndarray:
    out = np.ones((1, 1), np.int64)
    for _ in range(p):
        out = np.kron(out, m) % p
    return out


def six_periodic_pairs(s) -> list[dict]:
    """The `pairs` of `six_periodic_check(s)`, read off the dense power spaces.

    G_i(W) is the kernel subquotient E_i of 1 - shift on W^(tensor p), and
    alpha_i, beta_i are induced on it by inj^(tensor p) and surj^(tensor p).
    Once alpha_i is injective, beta_i surjective and beta_i alpha_i = 0 at
    every i, exactness at G_i(Z) and at G_{p-i}(X) leaves every connecting
    map delta_i zero. Those three facts are asserted; the image-equals-kernel
    comparisons then run on the induced maps.
    """
    p = s.x.p
    mods = [_shift_module(cyclic_power(w)) for w in (s.x, s.y, s.z)]
    inj, surj = _kron_power(s.inj, p), _kron_power(s.surj, p)
    dims, alpha, beta = {}, {}, {}
    for i in range(1, p):
        ex, ey, ez = (functor_E(m, i) for m in mods)
        al = induced_on_subquotient(inj, ex.sup, ex.sub, ey.sup, ey.sub)
        be = induced_on_subquotient(surj, ey.sup, ey.sub, ez.sup, ez.sub)
        assert rank_mod(al, p) == ex.dim, f"alpha_{i} is not injective"
        assert rank_mod(be, p) == ez.dim, f"beta_{i} is not surjective"
        assert not np.any(mat_mul(be, al, p)), f"beta_{i} alpha_{i} is not zero"
        dims[i], alpha[i], beta[i] = [ex.dim, ey.dim, ez.dim], al, be
    pairs = []
    for i in range(1, p // 2 + 1):
        j = p - i
        delta_i = np.zeros((dims[j][0], dims[i][2]), np.int64)
        delta_j = np.zeros((dims[i][0], dims[j][2]), np.int64)
        maps = [alpha[i], beta[i], delta_i, alpha[j], beta[j], delta_j]
        exact = []
        for k in range(6):
            prev = maps[(k - 1) % 6]
            img = Subspace.from_rows(prev.T, p)
            ker = Subspace.from_rows(nullspace_mod(maps[k], p), p)
            exact.append(img == ker)
        six = dims[i] + dims[j]
        alt = six[0] - six[1] + six[2] - six[3] + six[4] - six[5]
        pairs.append({"i": i, "dims": six, "exact": exact, "alternating_sum": alt})
    return pairs


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
            cols = (gp[:, ws][:, None, :] * gx[:, comps][None, :, :]).reshape(q, s_new) % p
            mats.append(mat_mul(cmat, cols, p))
        monos = [tuple(sorted(prev_monos[w] + (i,))) for w, i in zip(ws.tolist(), comps.tolist())]
        out.append((GroupRep(group=rep.group, p=p, dim=s_new, matrices=tuple(mats)), monos))
        mu = cmat
    return out[: top + 1]


def _kernel_of_power(m, k: int) -> Subspace:
    # D^k from D on every call, as the flag's own powers are not used here
    if k == 0:
        return Subspace.zero(m.p, m.dim)
    return Subspace.from_rows(nullspace_mod(mat_pow(m.D, k, m.p), m.p), m.p)


def _image_of_power(m, k: int) -> Subspace:
    return Subspace.from_rows(mat_pow(m.D, k, m.p).T, m.p)


def intersected_subquotient(m, i: int, j: int | None = None, s: int | None = None) -> Quotient:
    """`functor_L_and_Eis(m, i, j=j)` or `(m, i, s=s)` with Zassenhaus meets."""
    if j is not None:
        ker = _kernel_of_power(m, 1)
        upper, lower = ker.intersect(_image_of_power(m, i)), ker.intersect(_image_of_power(m, j))
        return Quotient.of(upper, lower)
    upper = _kernel_of_power(m, s).intersect(_image_of_power(m, i - s))
    return Quotient.of(upper, _image_of_power(m, m.n - s))


def intersected_multiplicity_space(m, j: int) -> Quotient:
    """M_j = Ker D^j / (Ker D^j ∩ Im D + Ker D^{j-1}) with a Zassenhaus meet;
    the sum is an elimination of the stacked bases, not `Subspace.add`."""
    ker = _kernel_of_power(m, j)
    meet, below = ker.intersect(_image_of_power(m, 1)), _kernel_of_power(m, j - 1)
    return Quotient.of(ker, Subspace.from_rows(np.concatenate([meet.basis, below.basis]), m.p))


def intersected_hom_dims(m, i: int) -> dict:
    """`natfunc_hom_dims(m, i)`: the quotient M_i is carried onto B_i by D^{i-1}."""
    q = intersected_multiplicity_space(m, i)
    b = intersected_subquotient(m, i - 1, j=i)
    induced = induced_on_subquotient(mat_pow(m.D, i - 1, m.p), q.sup, q.sub, b.sup, b.sub)
    assert q.dim == b.dim == rank_mod(induced, m.p)
    dims = {"hom": q.sup.dim, "negligible": q.sub.dim, "quotient_dim": q.dim}
    return dict(dims, iso_onto_block_space=True)
