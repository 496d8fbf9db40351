"""Shift-functor calculus on p-th tensor powers of group representations.

For X in Rep(G) over F_p, the cyclic rotation of tensor factors is a basis
permutation of X^(tensor p); with D = 1 - shift, the kernel/image
subquotients of D (nilpotency order p) define the components F_i (block
functors) and G_i (stable functors), each inheriting the diagonal G-action.

The shift's fixed words are exactly the diagonal ones and every other orbit
has length p, so the component quotients have canonical bases along the
diagonal words, where g^(tensor p) has entries g^p = g over F_p. The
functors are therefore the Frobenius twist in closed form: F_1 = G_i = X,
F_i = 0 for i >= 2. The twist is exact, so the six-periodic sequence is the
short exact sequence itself with zero connecting maps. On the simples of the
semisimplified category Ver_p the functor is a closed form too:
`frobenius_on_simple` sends L_m to one simple of Ver_p ⊠ Ver_p. The power
spaces themselves are built only for the honest constructions in
`tests/oracles.py`, and for the symmetric-group action of
`sp_multiplicity_spaces`.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .linalg import (
    BudgetError,
    Quotient,
    Subspace,
    check_budget,
    check_modulus,
    mat_mul,
    random_invertible,
)
from .nilmod import (
    ShortExactSeq,
    _block_extension,
    _draw_coupling,
    _extension_space,
    _power_list,
    jordan_matrix,
    multiplicity_spaces,
    nil_module,
)
from .repcat import (
    GroupRep,
    _zero_rep,
    direct_sum,
    random_cyclic_rep,
    symmetric_group,
    tensor,
    validate,
    witness_type,
)
from .seeding import rng_for
from .verlinde import FusionElement, _class_of, _fuse_simples, fpdim_simple, simple, zero

__all__ = [
    "DIM_CAPS",
    "CyclicPower",
    "FrobeniusImage",
    "cyclic_power",
    "frobenius_components",
    "check_additivity",
    "check_monoidality",
    "random_rep_extension",
    "random_rep_ses",
    "six_periodic_check",
    "fpdim_of_F",
    "exactness_report",
    "frobenius_order_abstract",
    "sp_multiplicity_spaces",
    "frobenius_on_simple",
]

# dim X caps keeping the dim(X)^p words of `cyclic_power` at desk scale
DIM_CAPS = {2: 64, 3: 20, 5: 6, 7: 4}


def _dim_cap(p: int) -> int:
    if p in DIM_CAPS:
        return DIM_CAPS[p]
    cap = 1
    while (cap + 1) ** p <= 20000:
        cap += 1
    return cap


def _shift_perm(dim: int, power: int) -> np.ndarray:
    """Index permutation of the factor rotation (digit roll-right)."""
    n = dim**power
    idx = np.arange(n, dtype=np.int64)
    return (idx % dim) * dim ** (power - 1) + idx // dim


def _apply_kron_power(g: np.ndarray, vec: np.ndarray, power: int, p: int) -> np.ndarray:
    """(g tensor ... tensor g) vec without materializing the big matrix."""
    d = g.shape[0]
    arr = vec.reshape((d,) * power)
    for t in range(power):
        arr = np.moveaxis(np.tensordot(g, arr, axes=(1, t)) % p, 0, t)
    return arr.reshape(-1)


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
        return _apply_kron_power(self.base.matrices[k], vec, self.p, self.p)


def cyclic_power(x: GroupRep) -> CyclicPower:
    """X^(tensor p) with its rotation; refuses dim X above the cap. That the
    rotation has order p, fixes exactly the diagonal words and commutes with
    the diagonal action holds by construction; `test_shift_structure` checks it."""
    p, d = x.p, x.dim
    cap = _dim_cap(p)
    if d > cap:
        need = (d**p) * 8
        raise BudgetError(
            f"dim {d} exceeds the p = {p} cap {cap}; power vectors would need {need} bytes"
        )
    check_budget((d**p) * 8 * (p + 2), "cyclic power index arrays")
    return CyclicPower(base=x, shift=_shift_perm(d, p))


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


def frobenius_components(x: GroupRep) -> FrobeniusImage:
    """All F_i and G_i of X with the induced diagonal action, in closed form.

    Reading a class off the diagonal words raises each matrix entry to the
    p-th power, a no-op over F_p: F_1 and every G_i are X with X's own
    matrices, and F_i = 0 for i >= 2. `tests/oracles.subquotient_components`
    derives every F_i and G_i on the power space.
    """
    p = x.p
    return FrobeniusImage(
        base=x,
        components=(x,) + (_zero_rep(x.group, p),) * (p - 2),
        g_components=(x,) * (p - 1),
    )


def check_additivity(x: GroupRep, y: GroupRep) -> dict:
    """F_i(X + Y) vs F_i(X) + F_i(Y) (and G_i), by dim and witness Jordan type.

    Under the closed form this exercises `direct_sum` and `witness_type`
    only; `tests/oracles.subquotient_components` checks the functors."""
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
    """F_i(X tensor Y) vs the fusion-rule sum of F_j(X) tensor F_k(Y).

    Under the closed form this exercises `tensor`, `direct_sum` and
    `witness_type` only, as in `check_additivity`."""
    p = x.p
    whole = frobenius_components(tensor(x, y))
    left = frobenius_components(x)
    right = frobenius_components(y)
    mismatches = []
    for i in range(1, p):
        expected = _zero_rep(x.group, p)
        for j in range(1, p):
            # F_j(X) (x) F_k(Y) once for each L_k in L_i (x) L_j
            for k, mult in enumerate(_fuse_simples(p, i, j).mult, start=1):
                for _ in range(mult):
                    expected = direct_sum(expected, tensor(left.f(j), right.f(k)))
        actual = whole.f(i)
        dims_ok = actual.dim == expected.dim
        types_ok = witness_type(actual) == witness_type(expected)
        if not (dims_ok and types_ok):
            mismatches.append({"component": f"F_{i}", "dims_ok": dims_ok, "types_ok": types_ok})
    return {"check": "monoidality", "p": p, "ok": not mismatches, "mismatches": mismatches}


# ------------------------------------------------------------ exact sequences


# maxsize=0 stores and hashes nothing; perfbench/tracer.py reads its cache_info()
@lru_cache(maxsize=0)
def _rep_extension_space(gx: np.ndarray, gz: np.ndarray, p: int) -> np.ndarray:
    """Couplings phi keeping [[gx, phi], [0, gz]] of order dividing p: the
    nil-module constraint of order p, read on the generators themselves."""
    return _extension_space(_power_list(gx, p - 1, p), _power_list(gz, p - 1, p), p, p)


def _block_generator(x: GroupRep, z: GroupRep, phi) -> np.ndarray:
    """[[x, phi], [0, z]] on the one generator of a cyclic group."""
    if x.group.generators != 1 or x.group != z.group:
        raise ValueError("extension sampling implemented for one-generator groups")
    return _block_extension(x.matrices[0], z.matrices[0], phi)


def random_rep_extension(x: GroupRep, z: GroupRep, seed: int, index: int = 0) -> ShortExactSeq:
    """A random extension of Z by X, its middle conjugated by a random q; Y is
    a rep by construction, as its coupling is drawn from those keeping it of order p."""
    p = x.p
    gen = _block_generator(x, z, None)  # refuses before anything is drawn
    basis = _rep_extension_space(x.matrices[0], z.matrices[0], p)
    # q below comes from the same stream, after the coupling draw
    rng = rng_for(seed, index)
    gen[: x.dim, x.dim :] = _draw_coupling(basis, rng, p, (x.dim, z.dim))
    # conjugated, the maps are q's first columns and q^-1's last rows: the sequence's
    # rank and intertwining checks and six_periodic_check's comparisons see a skew basis
    q, qinv = random_invertible(p, len(gen), rng)
    gen = mat_mul(mat_mul(q, gen, p), qinv, p)
    y = GroupRep(group=x.group, p=p, dim=len(gen), matrices=(gen,))
    # the block maps carried by q: q times the inclusion, the projection times q^-1
    return ShortExactSeq(x=x, y=y, z=z, inj=q[:, : x.dim], surj=qinv[x.dim :])


def random_rep_ses(p: int, dim_cap: int, seed: int, index: int) -> ShortExactSeq:
    """Random SES of cyclic reps with dim Y <= dim_cap."""
    rng = rng_for(seed, 4 * index)
    dx = int(rng.integers(1, dim_cap))
    dz = int(rng.integers(1, dim_cap - dx + 1))
    x = random_cyclic_rep(p, dx, seed, 4 * index + 1)
    z = random_cyclic_rep(p, dz, seed, 4 * index + 2)
    return random_rep_extension(x, z, seed, 4 * index + 3)


def six_periodic_check(s: ShortExactSeq) -> dict:
    """Periodic exactness of ... G_i(X) -> G_i(Y) -> G_i(Z) -> G_{p-i}(X) -> ...

    In closed form: every G_i is the Frobenius twist, which is exact, so
    alpha = inj, beta = surj and every connecting map delta_i is zero;
    `tests/oracles.six_periodic_pairs` derives the same maps on the dense
    power spaces.
    """
    p = s.x.p
    dx, dy, dz = s.x.dim, s.y.dim, s.z.dim
    # alpha, beta, delta_i, alpha, beta, delta_{p-i}: the same maps for every
    # i, so exactness at G_i(X), G_i(Y), G_i(Z) gives all six flags of each i
    inj, surj, delta = s.inj, s.surj, np.zeros((dx, dz), np.int64)
    exact = [
        Subspace.from_rows(prev.T, p) == Subspace.kernel(cur, p)
        for prev, cur in ((delta, inj), (inj, surj), (surj, delta))
    ] * 2
    dims = [dx, dy, dz] * 2
    alt = dims[0] - dims[1] + dims[2] - dims[3] + dims[4] - dims[5]
    pairs = [
        {"i": i, "dims": list(dims), "exact": list(exact), "alternating_sum": alt}
        for i in range(1, p // 2 + 1)
    ]
    ok = all(exact) and alt == 0
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


def exactness_report(ses_list: list[ShortExactSeq]) -> dict:
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


def _multiplicity_quotients(p: int, m: int) -> Iterator[Quotient]:
    """Block-multiplicity spaces M_1..M_{p-1} of the diagonal structure on J_m^(tensor p), in turn.

    With u the unipotent single-block generator, Du = 1 - u^(tensor p) is nilpotent of order p
    on the m^p-dimensional power space, and `nilmod.multiplicity_spaces` streams its M_j: the
    reader holds Du, three kernel stages and the M_j it reads. dim M_j counts the J_j of Du.
    """
    if not 1 <= m <= p - 1:
        raise ValueError(f"m = {m} outside [1, {p - 1}]")
    n = m**p
    # traced peaks of a whole lemm1 trial in words per n^2: 4.78 at p, n = 5, 1024; 6.02 at
    # 7, 128; 5.06 at 7, 2187; 6.02 at 11, 2048
    check_budget(52 * n * n, "diagonal power module and three stages of its kernel flag")
    # u and its Kronecker powers have 0/1 entries: residues; nil_module reduces Du mod p
    u = np.eye(m, dtype=np.int64) + jordan_matrix((m,))
    module = nil_module(np.eye(n, dtype=np.int64) - reduce(np.kron, [u] * p), p, p)
    return multiplicity_spaces(module)


def _permutation_induced(q: Quotient, perm: np.ndarray) -> np.ndarray:
    """Matrix of the quotient endomorphism induced by P e_b = e_{perm[b]}."""
    return q.coords(q.lifts[:, np.argsort(perm)]).T


def _factor_permutations(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations of the factor transposition (0 1) and rotation."""
    swap_perm = np.arange(m**p, dtype=np.int64).reshape((m,) * p).swapaxes(0, 1).reshape(-1)
    return swap_perm, _shift_perm(m, p)


def sp_multiplicity_spaces(p: int, m: int) -> dict:
    """Symmetric-group action on the block-multiplicity spaces M_j of J_m^(x p), and F(L_m) read
    off it. The rotation b = (1 2 ... p) acts on M_j as a rep of Z/p; each block J_r of its core
    (the blocks below p) is L_r ⊠ L_j in Ver_p ⊠ Ver_p. The claim is that these sum to
    `frobenius_on_simple(p, m)`, eps^(m+1) L_m ⊠ eps^(m+1): every M_j is projective over the
    p-cycle but the one at j = 1 (m odd) or p - 1 (m even), whose core is one block J_r, r = m
    (m odd) or p - m (m even); and every induced action is a rep of S_p.

    r is C(p - 2, m - 1) mod p: with k = m - 1 <= p - 2, each factor p - 2 - i of
    C(p - 2, k) = (p - 2)(p - 3)...(p - 1 - k) / k! is -(i + 2) mod p, so C(p - 2, k) is
    (-1)^k (k + 1)! / k! = (-1)^k (k + 1) mod p. So the core has dimension C(p - 2, m - 1)
    where that is below p, as at p = 3 and 5, but not at p = 7, m = 3 (3, where C(5, 2) = 10).
    """
    if p > 64:  # _factor_permutations gives each tensor factor one numpy axis
        raise ValueError(f"p = {p} above 64: J_m^(tensor p) is indexed by one axis per factor")
    want = frobenius_on_simple(p, m)  # refuses p and m before anything is built
    quotients = _multiplicity_quotients(p, m)  # priced before the power space is built
    perms, group = _factor_permutations(m, p), symmetric_group(p)
    # map lets go of each M_j once its two matrices are read, before the next is formed
    actions = map(lambda q: tuple(_permutation_induced(q, perm) for perm in perms), quotients)
    comps = tuple(GroupRep(group=group, p=p, dim=len(mats[0]), matrices=mats) for mats in actions)
    problems = [problem for rep in comps for problem in validate(rep)]
    if problems:
        raise AssertionError("induced action is not a representation: " + "; ".join(problems))
    cores = [_class_of(p, witness_type(rep)).mult for rep in comps]  # [j - 1][r - 1]: L_r ⊠ L_j
    if tuple(FusionElement(p, column) for column in zip(*cores)) != want:
        raise AssertionError(f"rotation cores give {cores} by j, not frobenius_on_simple({p}, {m})")
    core_dims = tuple(sum(r * k for r, k in enumerate(core, start=1)) for core in cores)
    return {
        "p": p,
        "m": m,
        "components": comps,
        "projective": tuple(d == 0 for d in core_dims),
        "exceptional_index": 1 if m % 2 else p - 1,
        "core_dims": core_dims,
    }


def frobenius_on_simple(p: int, m: int) -> tuple[FusionElement, ...]:
    """Image of the simple L_m of Ver_p under the shift functor, in closed form.

    Entry i - 1 is the class of F_i(L_m) in the fusion ring, so the tuple is
    F(L_m) in Ver_p ⊠ Ver_p: eps^(m+1) L_m ⊠ eps^(m+1), with eps = L_{p-1}
    and eps L_m = L_{p-m} (Ostrik). Component m carries L_1 when m is odd,
    component p - m carries L_{p-1} when m is even, and every other component
    is zero. `tests/oracles.power_space_image_of_simple` derives the same
    classes on the m^p-dimensional power space.
    """
    check_modulus(p)
    if not 1 <= m <= p - 1:
        raise ValueError(f"m = {m} outside [1, {p - 1}]")
    check_budget((p - 1) ** 2 * 8, "fusion classes of the shift components")
    index, label = (m, 1) if m % 2 else (p - m, p - 1)
    return tuple(simple(p, label) if i == index else zero(p) for i in range(1, p))
