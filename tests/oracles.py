"""Reference constructions the tests compare production code against, and
the few routines that only tests call.

Each reference computes honestly what production code computes in closed
form or by a faster route: elimination one pivot at a time (in Python ints,
and as the array loop that reduced its block after every pivot), the rank
sequence of an operator by iterated full-width images, the shift functors
as subquotients of the dense p-th tensor power, the maps of the
six-periodic sequence induced on those subquotients, the shift functor's
image of each simple of Ver_p read off the rotation of the power space,
symmetric powers as quotients of S^{m-1} tensor X by relation matrices,
the kernel/image subquotients of a nil-module with every meet taken by
`Subspace.intersect`, and the preimage of an invariant subspace as a kernel
over all n columns.

The rest have no caller in the package: the digit table of word indices,
the intermediate subquotients of a nil-module's own flag
(`functor_L_and_Eis`), exact solving, bases of intertwiners, the map an
array induces on a subquotient, the shift functor on a morphism,
extensions of reps with a given coupling, and the hom and
negligible-hom counts of a nil-module; the per-trial route `extension_survey`
is tested against (`split_test` of each `random_extension`, built by
`extension_from_phi`); the test reps (permutation reps, the regular rep of
Z/p, the natural rep of S_p, and the restriction of a rep to a nil-module);
and the fusion matrices N_r, with FPdims read off the Perron eigenvector of
N_2 as a check of the closed form.
"""
import numpy as np

from frobcat.frobenius import (
    CyclicPower,
    _block_generator,
    _factor_permutations,
    _multiplicity_quotients,
    _permutation_induced,
    cyclic_power,
)
from frobcat.linalg import (
    Quotient,
    Subspace,
    _product,
    as_residues,
    check_budget,
    frozen_matrix,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    rank_mod,
    rref,
)
from frobcat.nilmod import (
    NilModule,
    ShortExactSeq,
    _block_extension,
    _draw_coupling,
    _e_dims,
    _extension_space,
    _type_from_ranks,
    functor_B,
    functor_E,
    multiplicity_space,
    nil_module,
    rank_sequence,
)
from frobcat.repcat import (
    GroupRep,
    GroupSpec,
    _checked,
    _one_minus,
    _same_group,
    cyclic_group,
    decompose_cyclic,
    symmetric_group,
    trivial_rep,
)
from frobcat.seeding import rng_for
from frobcat.verlinde import FusionElement, _fuse_simples, fpdim_simple


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


def pivot_loop_per_pivot(work: np.ndarray, p: int, r: int, cols: int) -> tuple[int, list[int]]:
    """The elimination leaf as it was before its reduction was delayed:
    `linalg._pivot_loop` with the block reduced after every pivot. Pivot
    columns [0, cols) of work in place from row r; returns the next row and
    the pivots."""
    pivots = []
    c = 0
    while r < len(work) and c < cols:
        found = work[r:, c].nonzero()[0]
        if not found.size:
            live = work[r:, c:cols].any(axis=0)
            if not live.any():
                break
            c += int(live.argmax())
            found = work[r:, c].nonzero()[0]
        tail = work[:, c:]
        k = r + int(found[0])
        if k != r:
            work[[r, k]] = work[[k, r]]
        inv = pow(int(tail[r, 0]), -1, p)
        if inv != 1:
            tail[r] *= inv
            tail[r] %= p
        col = tail[:, :1].copy()
        col[r] = 0
        tail -= col * tail[r]
        tail %= p
        pivots.append(c)
        r += 1
        c += 1
    return r, pivots


def _exact_mat_mul_mod(a: np.ndarray, x: np.ndarray, p: int) -> list[list[int]]:
    """a @ x mod p for residue arrays, as lists of Python ints, without float
    products: in int64 while (p-1)^2 * k < 2^63, and otherwise with a split
    into 16-bit halves, a = a1 * 2^16 + a0, whose int64 products stay below
    2^16 * p * k < 2^63, recombined in Python ints."""
    k = a.shape[1]
    if (p - 1) ** 2 * k < 2**63:
        return (a @ x % p).tolist()
    assert (1 << 16) * p * k < 2**63
    hi, lo = (a >> 16) @ x, (a & 0xFFFF) @ x
    return [
        [((h << 16) + l) % p for h, l in zip(hrow, lrow)]
        for hrow, lrow in zip(hi.tolist(), lo.tolist())
    ]


def _freivalds_trials(p: int) -> int:
    """Random vectors enough that a wrong result passes a Freivalds check
    with probability at most 2^-40: each passes with probability at most 1/p."""
    return -(-40 // (p.bit_length() - 1))


def rref_certificate(a, p: int, rng) -> None:
    """Certify the reduced `rref` of [a | I] = [R | T] without a second
    elimination: [R | T] is in RREF with one pivot per row of a, and T a = R,
    checked as T (a x) = R x for random x, exactly, over enough x that a
    wrong T a passes with probability at most 2^-40 (40 vectors at p = 2).
    Raises AssertionError."""
    a = np.asarray(a, dtype=np.int64)
    n, m = a.shape
    red, pivots = rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    assert red.shape == (n, m + n) and len(pivots) == n, "not one pivot per row"
    assert red.min() >= 0 and red.max() < p, "entries outside [0, p)"
    assert list(pivots) == sorted(set(pivots)), "pivots not increasing"
    assert np.array_equal(red[:, list(pivots)], np.eye(n, dtype=np.int64)), "pivot columns not unit"
    lead = (red != 0).argmax(axis=1)
    assert lead.tolist() == list(pivots), "nonzero entry left of a pivot"
    x = rng.integers(0, p, size=(m, _freivalds_trials(p)))
    ax = np.array(_exact_mat_mul_mod(a, x, p), dtype=np.int64)
    t_ax = _exact_mat_mul_mod(red[:, m:], ax, p)
    assert t_ax == _exact_mat_mul_mod(red[:, :m], x, p), "T a != R"


def nullspace_certificate(a, p: int, rng) -> None:
    """Certify N = nullspace_mod(a, p): N is in RREF, so its rows are
    independent; a N^T = 0, checked as a (N^T r) = 0 for random r exactly
    (Freivalds); and rank + nullity = n, with the rank of rank_mod. N^T r is
    r on N's pivot columns, which are unit, and takes a product only on the
    rest, a's pivot columns. Raises AssertionError."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    basis = nullspace_mod(a, p)
    k = len(basis)
    assert basis.shape == (k, n) and k + rank_mod(a, p) == n, "rank + nullity != n"
    if not k:
        return
    assert basis.min() >= 0 and basis.max() < p, "entries outside [0, p)"
    lead = (basis != 0).argmax(axis=1)
    assert all(x < y for x, y in zip(lead, lead[1:])), "pivots not increasing"
    assert np.array_equal(basis[:, lead], np.eye(k, dtype=np.int64)), "pivot columns not unit"
    r = rng.integers(0, p, size=(k, _freivalds_trials(p)))
    rest = np.setdiff1d(np.arange(n), lead)
    y = np.zeros((n, r.shape[1]), np.int64)
    y[lead] = r
    rest_r = _exact_mat_mul_mod(basis[:, rest].T, r, p)
    y[rest] = np.array(rest_r, dtype=np.int64).reshape(len(rest), r.shape[1])
    assert not np.any(_exact_mat_mul_mod(a, y, p)), "a N^T != 0"


def product_certificate(a, b, x, p: int, rng) -> None:
    """Certify c = mat_mul(a, b, p) by Freivalds, c r = a (b r) mod p for
    random r, exactly; and then the fused update d = _product(a, b, p, x) =
    x - a b, entrywise, as residues with c + d = x mod p. Raises
    AssertionError."""
    c, d = mat_mul(a, b, p), _product(a, b, p, x)
    for out in (c, d):
        assert out.shape == (len(a), b.shape[1]), "wrong shape"
        assert out.min() >= 0 and out.max() < p, "entries outside [0, p)"
    r = rng.integers(0, p, size=(b.shape[1], _freivalds_trials(p)))
    abr = _exact_mat_mul_mod(a, np.array(_exact_mat_mul_mod(b, r, p), dtype=np.int64), p)
    assert _exact_mat_mul_mod(c, r, p) == abr, "c r != a b r"
    assert np.array_equal((c + d) % p, x), "c + d != x"


def mat_mul_naive(a, b, p: int) -> np.ndarray:
    """Modular product in Python ints."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


def iterated_image_ranks(d, n: int, p: int) -> tuple[int, ...]:
    """(rank D^0, ..., rank D^n) for the operator array d, each image kept
    n wide: the production rank sequence restricts to the image instead."""
    # iterated image: a row basis of Im D^k is (basis of Im D^{k-1}) @ D^T
    # reduced again, so elimination sizes shrink with the ranks
    ranks = [d.shape[0]]
    rows = None
    for k in range(1, n + 1):
        src = d.T if k == 1 else mat_mul(rows, d.T, p)
        rows, piv = rref(src, p)
        if not piv or len(piv) == ranks[-1]:
            # Im D^k = 0 or Im D^{k-1}: every later power has the same rank
            ranks.extend([len(piv)] * (n - k + 1))
            break
        ranks.append(len(piv))
    return tuple(ranks)


def _word_digits(dim: int, power: int) -> np.ndarray:
    """(power, dim^power) array: digit t of each word index, big-endian; the
    digit string that `_shift_perm` rolls and `_factor_permutations` swaps."""
    n = dim**power
    idx = np.arange(n, dtype=np.int64)
    digits = np.zeros((power, n), np.int64)
    for t in range(power):
        digits[t] = (idx // dim ** (power - 1 - t)) % dim
    return digits


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
    # D^k from D on every call, independent of the module's chain of preimages
    if k == 0:
        return Subspace.zero(m.p, m.dim)
    return Subspace.from_rows(nullspace_mod(mat_pow(m.D, k, m.p), m.p), m.p)


def general_preimage(w: Subspace, a) -> Subspace:
    """{x : a @ x in W} for a with aW ⊆ W, as the kernel over all n columns of
    a[F] - B[:, F]^T a[P] (B the basis of W, pivots P, free columns F): y lies
    in W iff y[F] = B[:, F]^T y[P]. `Subspace.preimage` takes the square kernel
    of the operator a induces on F_p^n / W instead."""
    p, free = w.p, [c for c in range(w.ambient) if c not in w.pivots]
    a = np.asarray(a) % p
    lhs = (a[free] - mat_mul(w.basis[:, free].T, a[list(w.pivots)], p)) % p
    return Subspace.kernel(lhs, p)


def _image_of_power(m, k: int) -> Subspace:
    return Subspace.from_rows(mat_pow(m.D, k, m.p).T, m.p)


def functor_L_and_Eis(m, i: int, j: int | None = None, s: int | None = None) -> Quotient:
    """Intermediate subquotients of the module's own kernel/image flag.

    With j: (Ker D ∩ Im D^i) / (Ker D ∩ Im D^j), i <= j; `functor_B` is (i - 1, j = i).
    With s: (Ker D^s ∩ Im D^{i-s}) / Im D^{n-s}, 0 <= s <= i; for s >= 1 and
    i < n its dimension is that of the s-1 stage plus the L-mode quotient at
    (i - s, n - s), which `tests/test_nilmod.py` checks.
    """
    if (j is None) == (s is None):
        raise ValueError("pass exactly one of j (L mode) or s (partial-E mode)")
    if j is not None:
        if not 0 <= i <= j <= m.n:
            raise ValueError("need 0 <= i <= j <= n")
        return Quotient.of(m.meet(1, i), m.meet(1, j))
    if not 0 <= s <= i <= m.n:
        raise ValueError("need 0 <= s <= i <= n")
    return Quotient.of(m.meet(s, i - s), m.image(m.n - s))


def intersected_subquotient(m, i: int, j: int | None = None, s: int | None = None) -> Quotient:
    """`functor_L_and_Eis(m, i, j=j)` or `(m, i, s=s)` with Zassenhaus meets."""
    if j is not None:
        ker = _kernel_of_power(m, 1)
        upper, lower = ker.intersect(_image_of_power(m, i)), ker.intersect(_image_of_power(m, j))
        return Quotient.of(upper, lower)
    upper = _kernel_of_power(m, s).intersect(_image_of_power(m, i - s))
    return Quotient.of(upper, _image_of_power(m, m.n - s))


def flag_multiplicity_space(m, j: int) -> Quotient:
    """M_j, 1 <= j <= n, from the stages the module keeps (`NilModule.kernel`), Ker D^{j+1}
    included even where it is V: the per-index route of `nilmod.multiplicity_spaces`,
    which streams the stages and stands the unit lifts of V / Ker D^{n-1} in for V."""
    if not 1 <= j <= m.n:
        raise ValueError(f"index {j} outside [1, {m.n}]")
    return multiplicity_space(m, m.kernel(j - 1), m.kernel(j), m.kernel(j + 1))


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


def rotation_classes(p: int, m: int) -> tuple[FusionElement, ...]:
    """`frobenius_on_simple(p, m)` on the m^p-dimensional power space, at any p.

    The diagonal structure is semisimplified first (its block-multiplicity
    quotients M_j), then the induced factor rotation on each M_j, a rep of
    Z/p, is read off by `decompose_cyclic`: component i collects L_j with the
    multiplicity of size-i rotation blocks, free blocks dropping out. The
    caller keeps m^p small; `power_space_image_of_simple` refuses large p.
    """
    quotients = _multiplicity_quotients(p, m)
    _, rot_perm = _factor_permutations(m, p)
    mults = [[0] * (p - 1) for _ in range(p - 1)]
    for j, q in enumerate(quotients, start=1):
        smat = _permutation_induced(q, rot_perm)
        t = decompose_cyclic(GroupRep(group=cyclic_group(p), p=p, dim=q.dim, matrices=(smat,)))
        for i in range(1, p):
            mults[i - 1][j - 1] += t.multiplicity(i)
    return tuple(FusionElement(p, tuple(row)) for row in mults)


def power_space_image_of_simple(p: int, m: int) -> tuple[FusionElement, ...]:
    """`rotation_classes` at the primes where every m fits the budget."""
    if p not in (2, 3, 5):
        raise ValueError("p outside {2, 3, 5} (budget)")
    return rotation_classes(p, m)


def solve_right(a, b, p: int) -> np.ndarray:
    """Solve a @ x = b exactly; raises ValueError if inconsistent.

    b may be a vector or a matrix of stacked right-hand columns.
    """
    b = np.asarray(b)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    red, pivots = rref(np.concatenate([np.asarray(a), b], axis=1), p)  # rref reduces a and b
    n = np.shape(a)[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = red[row, n:]
    return x[:, 0] if vec else x


def hom_basis(a: GroupRep, b: GroupRep) -> list[np.ndarray]:
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
        rows.append(kron_arrays(gb, eye_a) - kron_arrays(eye_b, ga.T))
    basis = nullspace_mod(np.concatenate(rows, axis=0), p)  # nullspace_mod reduces the stack
    return [v.reshape(db, da) for v in basis]


def frobenius_on_morphism(f, src: GroupRep, dst: GroupRep) -> dict:
    """Induced maps on all components of an intertwiner src -> dst.

    Like the components, in closed form: f itself on F_1 and on every G_i,
    the 0 x 0 map on F_i for i >= 2.
    """
    p = src.p
    fm = frozen_matrix(f, p)
    if fm.shape != (dst.dim, src.dim):
        raise ValueError("morphism shape mismatch")
    for gs, gd in zip(src.matrices, dst.matrices):
        if not np.array_equal(mat_mul(fm, gs, p), mat_mul(gd, fm, p)):
            raise ValueError("not an intertwiner")
    zero = np.zeros((0, 0), np.int64)
    return {"f_maps": (fm,) + (zero,) * (p - 2), "g_maps": (fm,) * (p - 1)}


def rep_extension_from_phi(x: GroupRep, z: GroupRep, phi) -> ShortExactSeq:
    """Extension of Z by X of cyclic reps; the caller's coupling block is validated."""
    gen = _block_generator(x, z, phi)
    y = _checked(GroupRep(group=x.group, p=x.p, dim=len(gen), matrices=(gen,)))
    inj, surj = _block_maps(x.dim, z.dim)
    return ShortExactSeq(x=x, y=y, z=z, inj=inj, surj=surj)


def natfunc_hom_dims(x, i: int) -> dict:
    """Hom and negligible-hom dimensions from the i-th simple, with the quotient.

    hom = dim Ker D^i; negligible = dim(Ker D^i cap Im D + Ker D^{i-1});
    the quotient is the block-multiplicity space M_i, carried isomorphically
    onto B_i by D^{i-1}, which is verified by an explicit induced map.
    """
    if not 1 <= i <= x.p - 1:
        raise ValueError(f"index {i} outside [1, {x.p - 1}]")
    q = flag_multiplicity_space(x, i)
    b = functor_B(x, i)
    induced = induced_on_subquotient(x.powers[i - 1], q.sup, q.sub, b.sup, b.sub)
    if not (q.dim == b.dim and rank_mod(induced, x.p) == b.dim):
        raise AssertionError("quotient does not map isomorphically onto the block space")
    return {
        "hom": q.sup.dim,
        "negligible": q.sub.dim,
        "quotient_dim": q.dim,
        "iso_onto_block_space": True,
    }


def induced_on_subquotient(
    m,
    sup: Subspace,
    sub: Subspace,
    target_sup: Subspace | None = None,
    target_sub: Subspace | None = None,
) -> np.ndarray:
    """Matrix induced by the array m on sup/sub -> target_sup/target_sub.

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
        if not target_sub.contains_vectors(mat_mul(m, sub.basis.T, p).T):
            raise ValueError("map does not send the denominator into the target denominator")
    if src.dim == 0:
        return np.zeros((dst.dim, 0), np.int64)
    images = mat_mul(m, src.lifts.T, p).T
    if not target_sup.contains_vectors(images):
        raise ValueError("map does not send the numerator into the target numerator")
    return dst.coords(images).T


def permutation_rep(group: GroupSpec, p: int, perms) -> GroupRep:
    """Generator g sends basis vector e_j to e_perm[j]."""
    mats = []
    dim = len(perms[0])
    for perm in perms:
        m = np.zeros((dim, dim), np.int64)
        m[np.asarray(perm), np.arange(dim)] = 1
        mats.append(m)
    return _checked(GroupRep(group=group, p=p, dim=dim, matrices=tuple(mats)))


def regular_cyclic_rep(p: int) -> GroupRep:
    return permutation_rep(cyclic_group(p), p, [[(j + 1) % p for j in range(p)]])


def symmetric_perm_rep(p: int) -> GroupRep:
    """Natural p-point permutation rep of S_p."""
    swap = list(range(p))
    swap[0], swap[1] = 1, 0
    cycle = [(j + 1) % p for j in range(p)]
    return permutation_rep(symmetric_group(p), p, [swap, cycle])


def restrict_to_nilmodule(rep: GroupRep, element: str, n: int) -> NilModule:
    """NilModule with D = 1 - rho(element); element must have order dividing p."""
    d = _one_minus(rep, element)
    if mat_pow(d, rep.p, rep.p).any():
        raise ValueError(f"element {element!r} does not have order dividing {rep.p}")
    return nil_module(d, rep.p, n)


def _block_maps(dx: int, dz: int) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion of the top block and projection onto the bottom one."""
    return np.eye(dx + dz, dx, dtype=np.int64), np.eye(dz, dx + dz, k=dx, dtype=np.int64)


def extension_from_phi(x: NilModule, z: NilModule, phi) -> ShortExactSeq:
    """The extension of Z by X with coupling block phi (must keep D_Y^n = 0)."""
    y = nil_module(_block_extension(x.D, z.D, phi), x.p, x.n)
    inj, surj = _block_maps(x.dim, z.dim)
    return ShortExactSeq(x=x, y=y, z=z, inj=inj, surj=surj)


def random_extension(x: NilModule, z: NilModule, seed: int, index: int = 0) -> ShortExactSeq:
    """Uniformly random admissible extension of Z by X, deterministic in (seed, index)."""
    basis = _extension_space(x.powers, z.powers, x.n, x.p)
    phi = _draw_coupling(basis, rng_for(seed, index), x.p, (x.dim, z.dim))
    return extension_from_phi(x, z, phi)


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


def fusion_matrix(p: int, r: int) -> np.ndarray:
    """N_r with (N_r)[t-1, s-1] = multiplicity of L_t in L_r (x) L_s."""
    n = np.zeros((p - 1, p - 1), np.int64)
    for s in range(1, p):
        n[:, s - 1] = _fuse_simples(p, r, s).mult
    return n


def fpdim(e: FusionElement) -> float:
    return sum(m * fpdim_simple(e.p, r) for r, m in enumerate(e.mult, start=1))


def fpdim_perron(p: int) -> np.ndarray:
    """FPdims of all simples read off the Perron eigenvector of N_2."""
    if p == 2:
        return np.array([1.0])
    n2 = fusion_matrix(p, 2).astype(np.float64)
    vals, vecs = np.linalg.eig(n2)
    lead = int(np.argmax(vals.real))
    vec = vecs[:, lead].real
    vec = vec / vec[0]
    if vec[1] < 0:
        vec = -vec
    return vec
