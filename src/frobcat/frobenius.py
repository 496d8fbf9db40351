"""Shift-functor calculus on p-th tensor powers of group representations.

For X in Rep(G) over F_p, the cyclic rotation of tensor factors is a basis
permutation of X^(tensor p); with D = 1 - shift, the kernel/image
subquotients of D (nilpotency order p) define the components F_i (block
functors) and G_i (stable functors), each inheriting the diagonal G-action.

The shift's fixed words are exactly the diagonal ones and every other orbit
has length p, so the component quotients have canonical bases along the
diagonal words, where g^(tensor p) has entries g^p = g over F_p. The
functors are therefore the Frobenius twist in closed form: F_1 = G_i = X,
F_i = 0 for i >= 2. The six-periodic chase still needs the power space
(`cyclic_power`) for its mixed words; `_free_orbit_facts` re-verifies the
single-orbit subquotient collapse per prime before it reads any class off.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    BudgetError,
    PrimeMatrix,
    Quotient,
    Subspace,
    as_residues,
    check_budget,
    inverse_mod,
    kron_arrays,
    mat_mul,
    nullspace_mod,
    random_invertible,
    solve_right,
)
from .nilmod import (
    _check_ses_maps,
    _rank_sequence_arr,
    _type_from_ranks,
    functor_B,
    functor_E,
    jordan_matrix,
    nil_module,
)
from .repcat import (
    GroupRep,
    GroupSpec,
    direct_sum,
    random_cyclic_rep,
    symmetric_group,
    tensor,
    validate,
    witness_type,
)
from .seeding import rng_for
from .verlinde import FusionElement, fpdim_simple

__all__ = [
    "DIM_CAPS",
    "CyclicPower",
    "FrobeniusImage",
    "RepSES",
    "cyclic_power",
    "frobenius_components",
    "frobenius_on_morphism",
    "check_additivity",
    "check_monoidality",
    "rep_extension_from_phi",
    "random_rep_extension",
    "random_rep_ses",
    "six_periodic_check",
    "fpdim_of_F",
    "exactness_report",
    "frobenius_order_abstract",
    "sp_multiplicity_spaces",
    "frobenius_on_simple",
]

# dim X caps keeping the dim(X)^p words of the six-periodic chase at desk scale
DIM_CAPS = {2: 64, 3: 20, 5: 6, 7: 4}


def _dim_cap(p: int) -> int:
    if p in DIM_CAPS:
        return DIM_CAPS[p]
    cap = 1
    while (cap + 1) ** p <= 20000:
        cap += 1
    return cap


def _word_digits(dim: int, power: int) -> np.ndarray:
    """(power, dim^power) array: digit t of each word index, big-endian."""
    n = dim**power
    idx = np.arange(n, dtype=np.int64)
    digits = np.zeros((power, n), np.int64)
    for t in range(power):
        digits[t] = (idx // dim ** (power - 1 - t)) % dim
    return digits


def _shift_perm(dim: int, power: int) -> np.ndarray:
    """Index permutation of the factor rotation (digit roll-right)."""
    n = dim**power
    idx = np.arange(n, dtype=np.int64)
    return (idx % dim) * dim ** (power - 1) + idx // dim


def _diag_indices(dim: int, power: int) -> np.ndarray:
    """Indices of the constant words (k, k, ..., k)."""
    if dim == 0:
        return np.zeros(0, np.int64)
    step = (dim**power - 1) // (dim - 1) if dim > 1 else 1
    return np.arange(dim, dtype=np.int64) * step


def _column_power(col: np.ndarray, power: int, p: int) -> np.ndarray:
    """col^(tensor power) as a vector, exact mod p."""
    out = col % p
    for _ in range(power - 1):
        out = np.kron(out, col) % p
    return out


def _apply_kron_power(g: np.ndarray, vec: np.ndarray, power: int, p: int) -> np.ndarray:
    """(g tensor ... tensor g) vec without materializing the big matrix."""
    d = g.shape[0]
    arr = vec.reshape((d,) * power)
    for t in range(power):
        arr = np.moveaxis(np.tensordot(g, arr, axes=(1, t)) % p, 0, t)
    return arr.reshape(-1)


@lru_cache(maxsize=None)
def _free_orbit_facts(p: int) -> bool:
    """Verify the single-orbit collapse through the honest subquotients.

    On one length-p shift orbit (cycle permutation block), every B_i and
    E_i vanishes for 1 <= i <= p-1; on a fixed basis vector (zero block),
    B_1 and every E_i are one-dimensional and B_i = 0 for i >= 2. The
    global spaces decompose over orbit supports, so these two block shapes
    determine the component quotients.
    """
    cyc = np.zeros((p, p), np.int64)
    cyc[np.arange(1, p) % p, np.arange(p - 1)] = 1
    cyc[0, p - 1] = 1
    free_block = nil_module((np.eye(p, dtype=np.int64) - cyc) % p, p, p)
    fixed_block = nil_module(np.zeros((1, 1), np.int64), p, p)
    for i in range(1, p):
        if functor_B(free_block, i).dim != 0 or functor_E(free_block, i).dim != 0:
            raise AssertionError("free shift orbit fails to collapse")
        if functor_E(fixed_block, i).dim != 1:
            raise AssertionError("fixed vector must survive in every E_i")
        if functor_B(fixed_block, i).dim != (1 if i == 1 else 0):
            raise AssertionError("fixed vector must contribute to B_1 only")
    return True


@dataclass(frozen=True, eq=False)
class CyclicPower:
    """X^(tensor p) with the factor rotation as a word permutation."""

    base: GroupRep
    shift: np.ndarray

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def size(self) -> int:
        return len(self.shift)

    def apply_generator(self, k: int, vec: np.ndarray) -> np.ndarray:
        return _apply_kron_power(self.base.matrices[k].entries, vec, self.p, self.p)


def cyclic_power(x: GroupRep) -> CyclicPower:
    """X^(tensor p) with its rotation checked; refuses dim X above the cap."""
    p, d = x.p, x.dim
    cap = _dim_cap(p)
    if d > cap:
        need = (d**p) * 8
        raise BudgetError(
            f"dim {d} exceeds the p = {p} cap {cap}; power vectors would need {need} bytes"
        )
    check_budget((d**p) * 8 * (p + 2), "cyclic power index arrays")
    sigma = _shift_perm(d, p)
    # order-p check: the rotation composed p times is the identity
    composed = np.arange(len(sigma), dtype=np.int64)
    for _ in range(p):
        composed = sigma[composed]
    if not np.array_equal(composed, np.arange(len(sigma))):
        raise AssertionError("factor rotation does not have order p")
    fixed = np.nonzero(sigma == np.arange(len(sigma)))[0]
    if not np.array_equal(fixed, _diag_indices(d, p)):
        raise AssertionError("fixed words must be exactly the diagonal ones")
    cp = CyclicPower(base=x, shift=sigma)
    inv = np.argsort(sigma)
    rng = rng_for(0x5EED, d * p)
    for k in range(x.group.generators):
        for _ in range(2):
            v = rng.integers(0, p, size=len(sigma)).astype(np.int64)
            left = cp.apply_generator(k, v[inv])
            right = cp.apply_generator(k, v)[inv]
            if not np.array_equal(left, right):
                raise AssertionError("diagonal action does not commute with the shift")
    return cp


@dataclass(frozen=True, eq=False)
class FrobeniusImage:
    """Components F_1..F_{p-1} and G_1..G_{p-1} with their induced actions."""

    base: GroupRep
    components: tuple[GroupRep, ...]
    g_components: tuple[GroupRep, ...]

    @property
    def p(self) -> int:
        return self.base.p

    def f(self, i: int) -> GroupRep:
        return self.components[i - 1]

    def g(self, i: int) -> GroupRep:
        return self.g_components[i - 1]


def _zero_rep(group: GroupSpec, p: int) -> GroupRep:
    zero = PrimeMatrix.dense(np.zeros((0, 0), np.int64), p)
    return GroupRep(group=group, p=p, dim=0, matrices=(zero,) * group.generators)


def frobenius_components(x: GroupRep) -> FrobeniusImage:
    """All F_i and G_i of X with the induced diagonal action, in closed form.

    Reading a class off the diagonal words raises each matrix entry to the
    p-th power, a no-op over F_p: F_1 and every G_i are X with X's own
    matrices, and F_i = 0 for i >= 2.
    """
    p = x.p
    image = FrobeniusImage(
        base=x,
        components=(x,) + (_zero_rep(x.group, p),) * (p - 2),
        g_components=(x,) * (p - 1),
    )
    for i in range(1, p):
        expected = sum(
            min(i, j, p - i, p - j) * image.f(j).dim for j in range(1, p)
        )
        if image.g(i).dim != expected:
            raise AssertionError("stable component dims disagree with the block formula")
    return image


def _as_matrix(f, p: int) -> np.ndarray:
    return f.entries if isinstance(f, PrimeMatrix) else as_residues(f, p)


def frobenius_on_morphism(f, src: GroupRep, dst: GroupRep) -> dict:
    """Induced maps on all components of an intertwiner src -> dst.

    Like the components, in closed form: f itself on F_1 and on every G_i,
    the 0 x 0 map on F_i for i >= 2.
    """
    p = src.p
    fm = _as_matrix(f, p)
    if fm.shape != (dst.dim, src.dim):
        raise ValueError("morphism shape mismatch")
    for gs, gd in zip(src.matrices, dst.matrices):
        if np.any((mat_mul(fm, gs.entries, p) - mat_mul(gd.entries, fm, p)) % p):
            raise ValueError("not an intertwiner")
    fmat = PrimeMatrix.dense(fm, p)
    zero = PrimeMatrix.dense(np.zeros((0, 0), np.int64), p)
    return {"f_maps": (fmat,) + (zero,) * (p - 2), "g_maps": (fmat,) * (p - 1)}


def check_additivity(x: GroupRep, y: GroupRep) -> dict:
    """F_i(X + Y) vs F_i(X) + F_i(Y) (and G_i), by dim and witness Jordan type."""
    whole = frobenius_components(direct_sum(x, y))
    left = frobenius_components(x)
    right = frobenius_components(y)
    p = x.p
    mismatches = []
    for i in range(1, p):
        for tag, big, a, b in (
            ("F", whole.f(i), left.f(i), right.f(i)),
            ("G", whole.g(i), left.g(i), right.g(i)),
        ):
            dims_ok = big.dim == a.dim + b.dim
            types_ok = witness_type(big) == witness_type(a).merge(witness_type(b))
            if not (dims_ok and types_ok):
                mismatches.append({"component": f"{tag}_{i}", "dims_ok": dims_ok, "types_ok": types_ok})
    return {"check": "additivity", "p": p, "ok": not mismatches, "mismatches": mismatches}


def check_monoidality(x: GroupRep, y: GroupRep) -> dict:
    """F_i(X tensor Y) vs the fusion-rule sum of F_j(X) tensor F_k(Y)."""
    p = x.p
    whole = frobenius_components(tensor(x, y))
    left = frobenius_components(x)
    right = frobenius_components(y)
    mismatches = []
    for i in range(1, p):
        expected = None
        for j in range(1, p):
            for s in range(1, min(i, j, p - i, p - j) + 1):
                k = abs(i - j) + 2 * s - 1
                piece = tensor(left.f(j), right.f(k))
                expected = piece if expected is None else direct_sum(expected, piece)
        if expected is None:
            expected = _zero_rep(x.group, p)
        actual = whole.f(i)
        dims_ok = actual.dim == expected.dim
        types_ok = witness_type(actual) == witness_type(expected)
        if not (dims_ok and types_ok):
            mismatches.append({"component": f"F_{i}", "dims_ok": dims_ok, "types_ok": types_ok})
    return {"check": "monoidality", "p": p, "ok": not mismatches, "mismatches": mismatches}


# ------------------------------------------------------------ exact sequences


@dataclass(frozen=True, eq=False)
class RepSES:
    """0 -> X -> Y -> Z -> 0 of representations of one group."""

    x: GroupRep
    y: GroupRep
    z: GroupRep
    inj: PrimeMatrix
    surj: PrimeMatrix

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if x.group != y.group or y.group != z.group or not (x.p == y.p == z.p):
            raise ValueError("sequence must stay inside one category")
        _check_ses_maps(self, zip(x.matrices, y.matrices, z.matrices), "the action")


@lru_cache(maxsize=512)
def _rep_extension_space(p: int, gx_bytes: bytes, dx: int, gz_bytes: bytes, dz: int):
    """Couplings phi keeping [[gx, phi], [0, gz]] of order dividing p."""
    gx = np.frombuffer(gx_bytes, dtype=np.int64).reshape(dx, dx)
    gz = np.frombuffer(gz_bytes, dtype=np.int64).reshape(dz, dz)
    px = [np.eye(dx, dtype=np.int64)]
    pz = [np.eye(dz, dtype=np.int64)]
    for _ in range(p - 1):
        px.append(mat_mul(px[-1], gx, p))
        pz.append(mat_mul(pz[-1], gz, p))
    constraint = np.zeros((dx * dz, dx * dz), np.int64)
    for a in range(p):
        constraint = (constraint + kron_arrays(px[a], pz[p - 1 - a].T, p)) % p
    return nullspace_mod(constraint, p)


def rep_extension_from_phi(x: GroupRep, z: GroupRep, phi) -> RepSES:
    """Extension of Z by X of cyclic reps with the given coupling block."""
    if x.group.generators != 1 or x.group != z.group:
        raise ValueError("extension sampling implemented for one-generator groups")
    p = x.p
    phi = as_residues(phi, p)
    gen = np.zeros((x.dim + z.dim, x.dim + z.dim), np.int64)
    gen[: x.dim, : x.dim] = x.matrices[0].entries
    gen[: x.dim, x.dim :] = phi
    gen[x.dim :, x.dim :] = z.matrices[0].entries
    y = GroupRep(
        group=x.group, p=p, dim=x.dim + z.dim, matrices=(PrimeMatrix.dense(gen, p),)
    )
    problems = validate(y)
    if problems:
        raise ValueError("; ".join(problems))
    inj = np.zeros((y.dim, x.dim), np.int64)
    inj[: x.dim] = np.eye(x.dim, dtype=np.int64)
    surj = np.zeros((z.dim, y.dim), np.int64)
    surj[:, x.dim :] = np.eye(z.dim, dtype=np.int64)
    return RepSES(x=x, y=y, z=z, inj=PrimeMatrix.dense(inj, p), surj=PrimeMatrix.dense(surj, p))


def random_rep_extension(x: GroupRep, z: GroupRep, seed: int, index: int = 0) -> RepSES:
    p = x.p
    basis = _rep_extension_space(
        p, x.matrices[0].entries.tobytes(), x.dim, z.matrices[0].entries.tobytes(), z.dim
    )
    rng = rng_for(seed, index)
    if basis.shape[0]:
        coeffs = rng.integers(0, p, size=basis.shape[0])
        phi = (coeffs @ basis % p).reshape(x.dim, z.dim)
    else:
        phi = np.zeros((x.dim, z.dim), np.int64)
    ses = rep_extension_from_phi(x, z, phi)
    # conjugate the middle so the section solve is exercised on a skew basis
    q = random_invertible(p, ses.y.dim, rng)
    qinv = inverse_mod(q, p)
    ymat = mat_mul(mat_mul(q, ses.y.matrices[0].entries, p), qinv, p)
    y = GroupRep(group=x.group, p=p, dim=ses.y.dim, matrices=(PrimeMatrix.dense(ymat, p),))
    return RepSES(
        x=x,
        y=y,
        z=z,
        inj=PrimeMatrix.dense(mat_mul(q, ses.inj.entries, p), p),
        surj=PrimeMatrix.dense(mat_mul(ses.surj.entries, qinv, p), p),
    )


def random_rep_ses(p: int, dim_cap: int, seed: int, index: int) -> RepSES:
    """Random SES of cyclic reps with dim Y <= dim_cap."""
    rng = rng_for(seed, 4 * index)
    dx = int(rng.integers(1, dim_cap))
    dz = int(rng.integers(1, dim_cap - dx + 1))
    x = random_cyclic_rep(p, dx, seed, 4 * index + 1)
    z = random_cyclic_rep(p, dz, seed, 4 * index + 2)
    return random_rep_extension(x, z, seed, 4 * index + 3)


def six_periodic_check(s: RepSES) -> dict:
    """Periodic exactness of ... G_i(X) -> G_i(Y) -> G_i(Z) -> G_{p-i}(X) -> ...

    Works in the basis adapted to a computed section of the surjection, so
    the power shift stays a word permutation; the mixed words (at least one
    letter from each side) are checked to form free shift orbits before any
    class is read off. Connecting maps come from the defining chase: lift a
    diagonal Z-word through the section, apply D i times, pull back.
    """
    p = s.x.p
    dx, dy, dz = s.x.dim, s.y.dim, s.z.dim
    sigma = cyclic_power(s.y).shift
    _free_orbit_facts(p)

    a, b = s.inj.entries, s.surj.entries
    section = solve_right(b, np.eye(dz, dtype=np.int64), p)
    t = np.concatenate([a, section], axis=1)
    tinv = inverse_mod(t, p)
    a_ad = mat_mul(tinv, a, p)
    b_ad = mat_mul(b, t, p)
    s_ad = mat_mul(tinv, section, p)
    # in the adapted basis the maps must become the canonical block maps
    if np.any(a_ad[dx:, :]) or np.any(b_ad[:, :dx]) or np.any(s_ad[:dx, :]):
        raise AssertionError("adapted basis did not block-align the sequence")

    digits = _word_digits(dy, p)
    pure_x = np.all(digits < dx, axis=0)
    pure_z = np.all(digits >= dx, axis=0)
    mixed = ~(pure_x | pure_z)
    fixed = sigma == np.arange(len(sigma))
    if np.any(fixed & mixed):
        raise AssertionError("mixed words must form free shift orbits")

    diag_y = _diag_indices(dy, p)
    inv_sigma = np.argsort(sigma)

    def apply_d(vec: np.ndarray, times: int) -> np.ndarray:
        out = vec
        for _ in range(times):
            out = (out - out[inv_sigma]) % p
        return out

    def embed_map() -> np.ndarray:
        cols = np.zeros((dy, dx), np.int64)
        for k in range(dx):
            y = _column_power(a_ad[:, k], p, p)
            if np.any(apply_d(y, 1)):
                raise AssertionError("embedded diagonal must be shift-invariant")
            cols[:, k] = y[diag_y]
        return cols

    def project_map() -> np.ndarray:
        cols = np.zeros((dz, dy), np.int64)
        diag_z = _diag_indices(dz, p)
        sigma_z_inv = np.argsort(_shift_perm(dz, p))
        for l in range(dy):
            y = _column_power(b_ad[:, l], p, p)
            if not np.array_equal(y, y[sigma_z_inv]):
                raise AssertionError("projected diagonal must be shift-invariant")
            cols[:, l] = y[diag_z]
        return cols

    def connect_map(i: int) -> np.ndarray:
        cols = np.zeros((dx, dz), np.int64)
        if dx == 0:
            return cols
        for k in range(dz):
            lift = _column_power(s_ad[:, k], p, p)
            w = apply_d(lift, i)
            if np.any(w[~pure_x]):
                raise AssertionError("chase left the embedded subcomplex")
            if np.any(apply_d(w, p - i)):
                raise AssertionError("connecting class misses the kernel")
            if np.any(w):
                # pull back along the embedding and read the class
                xvec = w[pure_x]
                cols[:, k] = xvec[_diag_indices(dx, p)]
        return cols

    al, be = embed_map(), project_map()
    pairs = []
    ok = True
    for i in range(1, p // 2 + 1):
        j = p - i
        maps = [al, be, connect_map(i), al, be, connect_map(j)]
        dims = [dx, dy, dz, dx, dy, dz]
        exact = []
        for k in range(6):
            prev = maps[(k - 1) % 6]
            img = Subspace.from_rows(prev.T, p, prev.shape[0])
            ker = Subspace.from_rows(nullspace_mod(maps[k], p), p, maps[k].shape[1])
            exact.append(img == ker)
        alt = dims[0] - dims[1] + dims[2] - dims[3] + dims[4] - dims[5]
        entry = {"i": i, "dims": dims, "exact": exact, "alternating_sum": alt}
        pairs.append(entry)
        ok = ok and all(exact) and alt == 0
    return {
        "check": "six_periodic",
        "p": p,
        "period": 3 if p == 2 else 6,
        "pairs": pairs,
        "ok": ok,
    }


def fpdim_of_F(x: GroupRep) -> float:
    """Sum of fpdim(L_i) * dim F_i(X); asserted <= dim X + 1e-9."""
    image = frobenius_components(x)
    value = sum(fpdim_simple(x.p, i) * image.f(i).dim for i in range(1, x.p))
    if value > x.dim + 1e-9:
        raise AssertionError("FP-dimension of the image exceeds the source")
    return value


def exactness_report(ses_list: list[RepSES]) -> dict:
    """Dimension-preservation, additivity, and componentwise exactness over a sample."""
    violations = []
    p = ses_list[0].x.p if ses_list else 0
    for idx, s in enumerate(ses_list):
        vals = {}
        for tag, obj in (("x", s.x), ("y", s.y), ("z", s.z)):
            image = frobenius_components(obj)
            val = fpdim_of_F(obj)
            vals[tag] = val
            if abs(val - obj.dim) > 1e-9:
                violations.append({"instance": idx, "reason": f"fpdim not preserved on {tag}"})
            if image.f(1).dim != obj.dim or any(
                image.f(i).dim for i in range(2, p)
            ):
                violations.append({"instance": idx, "reason": f"higher component on {tag}"})
        if abs(vals["y"] - vals["x"] - vals["z"]) > 1e-9:
            violations.append({"instance": idx, "reason": "fpdim not additive"})
        six = six_periodic_check(s)
        if not six["ok"]:
            violations.append({"instance": idx, "reason": "six-periodic exactness failed"})
    return {
        "check": "frobenius_exactness",
        "p": p,
        "instances": len(ses_list),
        "violations": violations,
    }


def frobenius_order_abstract(simples, factor_map, exact_set):
    """Iterate the factor closure until it lands in the exact subcategory."""
    if isinstance(factor_map, dict):
        table = dict(factor_map)

        def step(item):
            if item not in table:
                raise ValueError(f"factor_map is not total: missing {item!r}")
            return table[item]

    else:
        step = factor_map
    current = frozenset(simples)
    exact = frozenset(exact_set)
    seen = set()
    k = 0
    while True:
        if current <= exact:
            return k
        if current in seen:
            return "infinite within bound"
        seen.add(current)
        nxt = set()
        for item in current:
            nxt.update(step(item))
        current = frozenset(nxt)
        k += 1


# --------------------------------------------- multiplicity spaces on J_m^(x p)


def _multiplicity_quotients(p: int, m: int) -> tuple[list[Quotient], int]:
    """Block-multiplicity quotients of the diagonal structure on J_m^(tensor p).

    With u the unipotent single-block generator and Du = 1 - u^(tensor p),
    M_j = Ker Du^j / (Ker Du^j cap Im Du + Ker Du^{j-1});
    Ker Du^j cap Im Du = Du(Ker Du^{j+1}) keeps the elimination sizes down.
    """
    if not 1 <= m <= p - 1:
        raise ValueError(f"m = {m} outside [1, {p - 1}]")
    n = m**p
    check_budget(3 * n * n * 8, "dense diagonal power operator")
    u = (np.eye(m, dtype=np.int64) + jordan_matrix((m,))) % p
    upow = np.array([[1]], dtype=np.int64)
    for _ in range(p):
        upow = np.kron(upow, u) % p
    du = (np.eye(n, dtype=np.int64) - upow) % p
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(p):
        powers.append(mat_mul(powers[-1], du, p))
    if np.any(powers[p]):
        raise AssertionError("diagonal operator is not nilpotent of order p")
    kernels = [Subspace.zero(p, n)]
    for j in range(1, p + 1):
        kernels.append(Subspace.from_rows(nullspace_mod(powers[j], p), p, n))
    quotients = []
    for j in range(1, p):
        hit = mat_mul(kernels[j + 1].basis, du.T, p)
        denom_rows = np.concatenate([hit, kernels[j - 1].basis], axis=0)
        denom = Subspace.from_rows(denom_rows, p, n)
        quotients.append(Quotient.of(kernels[j], denom))
    return quotients, n


def _permutation_induced(q: Quotient, perm: np.ndarray) -> np.ndarray:
    """Matrix of the quotient endomorphism induced by P e_b = e_{perm[b]}."""
    if q.dim == 0:
        return np.zeros((0, 0), np.int64)
    inv = np.argsort(perm)
    images = q.lifts[:, inv]
    return q.coords(images).T


def _factor_permutations(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations of the factor transposition (0 1) and rotation."""
    digits = _word_digits(m, p)
    weights = m ** (p - 1 - np.arange(p, dtype=np.int64))
    swapped = digits.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    swap_perm = weights @ swapped
    return swap_perm, _shift_perm(m, p)


def sp_multiplicity_spaces(p: int, m: int) -> dict:
    """Symmetric-group action on the block-multiplicity spaces of J_m^(x p).

    Asserts the projectivity pattern: every M_j is projective over the
    p-cycle except j = 1 (m odd) / j = p-1 (m even), where the
    non-projective core has dimension C(p-2, m-1).
    """
    if p not in (3, 5):
        raise ValueError("p outside {3, 5} (budget)")
    quotients, _ = _multiplicity_quotients(p, m)
    swap_perm, rot_perm = _factor_permutations(m, p)
    group = symmetric_group(p)
    comps, projective, core_dims = [], [], []
    for q in quotients:
        mats = (
            PrimeMatrix.dense(_permutation_induced(q, swap_perm), p),
            PrimeMatrix.dense(_permutation_induced(q, rot_perm), p),
        )
        rep = GroupRep(group=group, p=p, dim=q.dim, matrices=mats)
        problems = validate(rep)
        if problems:
            raise AssertionError("induced action is not a representation: " + "; ".join(problems))
        comps.append(rep)
        t = witness_type(rep)
        projective.append(all(k == p for k in t.parts))
        core_dims.append(sum(k for k in t.parts if k < p))
    exceptional = 1 if m % 2 else p - 1
    from math import comb

    expected_core = comb(p - 2, m - 1)
    for j in range(1, p):
        if j == exceptional:
            if projective[j - 1] or core_dims[j - 1] != expected_core:
                raise AssertionError(
                    f"component {j} must carry a non-projective core of dim {expected_core}"
                )
        elif not projective[j - 1]:
            raise AssertionError(f"component {j} must be projective")
    return {
        "p": p,
        "m": m,
        "components": tuple(comps),
        "projective": tuple(projective),
        "exceptional_index": exceptional,
        "core_dims": tuple(core_dims),
    }


def frobenius_on_simple(p: int, m: int) -> tuple[FusionElement, ...]:
    """Image of the m-th simple under the shift functor, inside the fusion ring.

    The diagonal structure is semisimplified first (its block-multiplicity
    quotients M_j), then the induced factor rotation on each M_j is read
    off by Jordan type: component i collects L_j with the multiplicity of
    size-i rotation blocks, free blocks dropping out.
    """
    if p not in (2, 3, 5):
        raise ValueError("p outside {2, 3, 5} (budget)")
    quotients, _ = _multiplicity_quotients(p, m)
    _, rot_perm = _factor_permutations(m, p)
    mults = [[0] * (p - 1) for _ in range(p - 1)]
    for j, q in enumerate(quotients, start=1):
        smat = _permutation_induced(q, rot_perm)
        dmat = (np.eye(q.dim, dtype=np.int64) - smat) % p
        t = _type_from_ranks(_rank_sequence_arr(dmat, p, p), p)
        for i in range(1, p):
            mults[i - 1][j - 1] += t.multiplicity(i)
    return tuple(FusionElement(p, tuple(row)) for row in mults)
