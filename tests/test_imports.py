"""Source checks on the package (no linter is assumed).

Every module-level import is used: a name bound by a top-level `import` or
`from ... import` in `src/frobcat/*.py` must be read somewhere in its module
or listed in its `__all__`; `__init__.py` exists to re-export and is exempt.

No kernel is reduced twice: `nullspace_mod` already returns an RREF basis,
so no module passes its result to `Subspace.from_rows` (`Subspace.kernel`
wraps it as it is). The test oracles may, and are not scanned.

No residue product takes Python-int arrays: the kernels work in int64,
`mat_mul` in float GEMMs (of 16-bit halves past 2^53), and the moduli past
that are refused, so no `astype(object)` appears anywhere in the package,
`mat_mul` included (the test's name predates that). Matrices are plain residue arrays: the retired
wrapper class (`RETIRED`, spelt in two halves so that a search of the tree
for it finds nothing) is not named anywhere in the package.

Every elimination update is one fused multiply-subtract: no `_sub(` call
and no `-` in the package takes a `mat_mul(` or `_product(` product, since
`_product(a, b, p, x)` forms x - a @ b with one product and one reduction.

Every public `linalg` entry that copies an array prices before it copies:
no `as_residues`, `np.concatenate` or `np.array` call, and no
`np.asarray(..., dtype=...)` (a copy whenever the dtype differs), runs
before its first `check_budget` or `_price_rows` call, or call of a function
of the module that prices, so an oversize input is refused before its copy
exists. `as_residues`, the copy itself, is priced by its callers.

The kernel layer is entered only through its public names: no module but
`linalg` imports an underscore name from it (`from .linalg import _product`)
or reads one off it (`linalg._product`), so every product and elimination
outside `linalg` goes through an entry that the price check above scans.

Every array remainder in `linalg` goes through `_remainder`, which picks
how to divide: no `%=` and no call of `np.remainder`, `np.mod` or `np.fmod`
appears in `linalg.py` outside that helper. A binary `%` of Python ints (a
modular inverse, the list-based leaf) is not an array remainder and is not
flagged.

Array contents never become bytes: no `.tobytes(` and no `np.frombuffer(`
appears in the package, so no cache can be keyed on an array's contents
again (each lookup hashed two matrices and rarely hit).

Representations are validated where outside data enters, and nowhere else:
`validate` and `_checked` (which raises on its messages) are called only
from `ENTRY_POINTS`, the builders whose matrices or coupling come from the
caller or a claim under test; what the library builds from checked parts is
a representation by construction.

The public surface is pinned: the names `__init__.py` re-exports equal the
sorted literal `PUBLIC`, so any API added to or removed from the package
shows in the diff of this file.

The package holds what its commands run: every module-level `def` and
`class` is reached from `cli.run`, the check suites (`SUITES`), a function
the benchmark tracer wraps or a cache it reads (`LAYERS` and `CACHES` in
`perfbench/tracer.py`, read from its source), or an entry of `KEPT`, each
with its reason. A definition reaches what it names (a class with all its
methods), through the module's own definitions and assignments and its
`from .module import name` bindings. Code that only tests call belongs in
`tests/oracles.py`.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frobcat"
RETIRED = "Prime" + "Matrix"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | _exported(tree)
    return [f"line {line}: {name}" for name, line in _imported_names(tree).items() if name not in keep]


def test_detector_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import comb, isqrt\n__all__ = ['isqrt']\nprint(sys.argv)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def rereduced_kernels(source: str) -> list[str]:
    """`from_rows` calls whose rows are a `nullspace_mod` result: the call
    itself, a name bound to one in the same function, or a call of a
    function of the module that returns one."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    returners = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and _callee(node.value) == "nullspace_mod"
    }
    found = set()
    for scope in [tree, *functions]:
        bound = {
            target.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign) and _callee(node.value) == "nullspace_mod"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(scope):
            if _callee(node) != "from_rows" or not node.args:
                continue
            rows = node.args[0]
            if (
                _callee(rows) == "nullspace_mod"
                or _callee(rows) in returners
                or (isinstance(rows, ast.Name) and rows.id in bound)
            ):
                found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detector_flags_a_rereduced_kernel():
    src = """
def direct(a, p):
    return Subspace.from_rows(nullspace_mod(a, p), p)

def named(a, p):
    ker = nullspace_mod(a, p)
    return Subspace.from_rows(ker, p)

class Module:
    def _rows(self, s):
        if s:
            return nullspace_mod(self.powers[s], self.p)
        return self.zero

    def meet(self, s):
        return Subspace.from_rows(self._rows(s), self.p)

def fine(a, b, p):
    combos = nullspace_mod(a, p)
    return Subspace.from_rows(mat_mul(combos, b, p), p), Subspace.kernel(a, p)
"""
    assert rereduced_kernels(src) == ["line 3", "line 7", "line 16"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_kernel_is_reduced_twice(path):
    assert rereduced_kernels(path.read_text(encoding="utf-8")) == []


def object_paths(source: str) -> list[str]:
    """`astype(object)` calls, and lines naming RETIRED."""
    tree = ast.parse(source)
    found = [
        (node.lineno, "astype(object)")
        for node in ast.walk(tree)
        if _callee(node) == "astype"
        and [getattr(arg, "id", None) for arg in node.args] == ["object"]
    ]
    found += [
        (k, RETIRED) for k, line in enumerate(source.splitlines(), 1) if RETIRED in line
    ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_detector_flags_object_paths_and_the_retired_wrapper():
    src = f"""
def mat_mul(a, b, p):
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)

def eliminate(a, p):
    work = a.astype(object)  # a {RETIRED} would hold this
    return work.astype(np.int64)

class Matrix:
    def rank(self):
        return rank_mod(self.values.astype(object), self.p)
"""
    assert object_paths(src) == [
        "line 3: astype(object)", "line 3: astype(object)",
        f"line 6: {RETIRED}", "line 6: astype(object)", "line 11: astype(object)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_python_int_products_only_in_mat_mul(path):
    assert object_paths(path.read_text(encoding="utf-8")) == []


def unfused_updates(source: str) -> list[str]:
    """`_sub(` calls, and subtractions and additions, with a `mat_mul(` or `_product(` call
    among their operands."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if _callee(node) == "_sub":
            operands = node.args
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Sub, ast.Add)):
            operands = [node.left, node.right]
        else:
            continue
        if any(_callee(inner) in ("mat_mul", "_product") for arg in operands for inner in ast.walk(arg)):
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detector_flags_an_unfused_update():
    src = """
def extend(top, bottom, ptop, rest, p):
    low = _sub(bottom[:, rest], mat_mul(bottom[:, ptop], top[:, rest], p), p)
    return low

def reduce(v, coeff, basis, p):
    return (v - linalg.mat_mul(coeff, basis, p)) % p

def clear(top, plow, low, rest, p):
    return top[:, rest] - _product(top[:, plow], low, p, None)

def restrict(a, x, piv, free, p):
    return (a[np.ix_(piv, piv)] + linalg.mat_mul(x, a[np.ix_(free, piv)], p)) % p

def fine(v, coeff, basis, p):
    y = mat_mul(coeff, basis, p)
    return _product(coeff, basis, p, v), _sub(v, y, p), v.shape[0] - 1, len(y) + 1
"""
    assert unfused_updates(src) == ["line 3", "line 7", "line 10", "line 13"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_multiply_subtract_is_fused(path):
    assert unfused_updates(path.read_text(encoding="utf-8")) == []


COPIES = ("as_residues", "concatenate", "array")
PRICES = ("check_budget", "_price_rows")
UNPRICED = ("as_residues",)


def _is_copy(node) -> bool:
    """A call in COPIES, or an `asarray` call given a dtype."""
    if _callee(node) == "asarray":
        return len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords)
    return _callee(node) in COPIES


def copies_before_prices(source: str) -> list[str]:
    """Public functions, and public methods of public classes, other than
    UNPRICED, that make an array copy (`_is_copy`) before their first price,
    or with no price at all: a price is a call in PRICES, or of a function or
    method of the module that calls one, at any depth. Calls are ordered by
    where they end, since a call runs after its arguments."""
    tree = ast.parse(source)
    functions, entries = {}, []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            functions.update((fn.name, fn) for fn in methods)
            if not node.name.startswith("_"):
                entries += [(f"{node.name}.{fn.name}", fn) for fn in methods if not fn.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node
            if not node.name.startswith("_"):
                entries.append((node.name, node))
    pricers = set(PRICES)
    while True:
        more = {
            name
            for name, fn in functions.items()
            if name not in pricers and any(_callee(node) in pricers for node in ast.walk(fn))
        }
        if not more:
            break
        pricers |= more
    found = []
    for name, fn in entries:
        calls = sorted(
            ((node.end_lineno, node.end_col_offset), _is_copy(node), _callee(node))
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        )
        copies = [end for end, copy, _ in calls if copy]
        prices = [end for end, _, callee in calls if callee in pricers]
        if copies and name not in UNPRICED and (not prices or copies[0] < prices[0]):
            found.append(f"line {copies[0][0]}: {name}")
    return found


def test_detector_flags_a_copy_before_its_price():
    # reduce and inverse_mod as they were, a copy inside the priced call's
    # arguments, an entry that copies and prices nothing, and entries that
    # price first, copy nothing or are private
    src = """
def _price_rows(rows, cols, p):
    check_budget(44 * rows * cols, "row reduction")

def rref(a, p):
    _price_rows(*np.shape(a), p)
    return _eliminate(as_residues(a, p), p)

def _inverse_or_none(a, p):
    n = a.shape[0]
    red, pivots = rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    return red[:, n:] if pivots == tuple(range(n)) else None

def inverse_mod(a, p):
    a = as_residues(a, p)
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    return _inverse_or_none(a, p)

def intersect_rows(a, b, p):
    return nullspace_mod(np.concatenate([a.T, -b.T], axis=1), p)

def nullspace_mod(a, p):
    return rref(np.asarray(a)[:, ::-1], p)[0]

def frozen_matrix(a, p):
    return as_residues(a, p)

def _stacked(a, p):
    a = np.array(a)
    check_budget(a.nbytes, "stack")

class Subspace:
    def reduce(self, vecs):
        v = as_residues(vecs, self.p)
        coeff = v[..., list(self.pivots)]
        check_budget(_product_bytes(coeff, self.basis, self.p, True), "matrix product")
        return _product(coeff, self.basis, self.p, v)

    def add(self, rows):
        _price_rows(self.dim + len(rows), self.ambient, self.p)
        return _extend(self.basis, as_residues(rows, self.p))
"""
    assert copies_before_prices(src) == [
        "line 15: inverse_mod", "line 21: intersect_rows", "line 27: frozen_matrix",
        "line 35: Subspace.reduce",
    ]


def test_detector_flags_a_conversion_before_its_price():
    # mat_mul, kron_arrays and frozen_matrix as they were: an int8 operand
    # converted to int64, or a view copied into residues, before any price;
    # the copy primitive itself and a conversion after the price pass
    src = """
def mat_mul(a, b, p):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, np.int64)
    check_budget(_product_bytes(a.shape, b.shape, p, False), "matrix product")
    return _product(a, b, p, None)

def kron_arrays(a, b):
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    check_budget(a.size * b.size * 8, "kron product")
    return np.kron(a, b)

def frozen_matrix(a, p):
    arr = as_residues(a, p)
    arr.flags.writeable = False
    return arr

def as_residues(a, p):
    return np.array(a, dtype=np.int64) % p

def fine(a, b, p):
    check_budget(_product_bytes(np.shape(a), np.shape(b), p, False), "matrix product")
    return _product(np.asarray(a, dtype=np.int64), np.asarray(b)[:, ::-1], p, None)
"""
    assert copies_before_prices(src) == [
        "line 3: mat_mul", "line 9: kron_arrays", "line 14: frozen_matrix",
    ]


def test_every_linalg_entry_prices_before_it_copies():
    assert copies_before_prices((PACKAGE / "linalg.py").read_text(encoding="utf-8")) == []


def private_kernel_names(source: str) -> list[str]:
    """Underscore names imported from `linalg` (`.linalg` or `frobcat.linalg`) or read
    as attributes of a name `linalg`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "frobcat.linalg"):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "linalg"
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_flags_a_private_kernel_name():
    # a module reaching past the priced entries into linalg's helpers, as by
    # importing _product into nilmod; linalg's public names and other modules'
    # private names pass
    src = """
from .linalg import Subspace, _product, mat_mul
from frobcat.linalg import _kernel_rref as kernel_rref
from . import linalg
from .nilmod import _type_from_ranks

def stage(w, d, p):
    return linalg._price_rows(3, 3, p), linalg.Subspace.kernel(d, p), mat_mul(d, d, p)
"""
    assert private_kernel_names(src) == [
        "line 2: _product", "line 3: _kernel_rref", "line 8: _price_rows",
    ]


@pytest.mark.parametrize(
    "path", [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"],
    ids=lambda path: path.name,
)
def test_only_linalg_uses_its_private_names(path):
    assert private_kernel_names(path.read_text(encoding="utf-8")) == []


def bare_remainders(source: str) -> list[str]:
    """`%=` statements and `remainder`, `mod` or `fmod` calls outside `_remainder`."""
    tree = ast.parse(source)
    helper = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_remainder"
        for node in ast.walk(fn)
    }
    found = {
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in helper
        and (
            (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod))
            or _callee(node) in ("remainder", "mod", "fmod")
        )
    }
    return [f"line {line}" for line in sorted(found)]


def test_detector_flags_a_bare_remainder():
    src = """
def _remainder(c, p):
    np.remainder(c, p, out=c)
    c %= p
    return c

def rank_stack(rest, p):
    rest %= p
    return np.mod(rest, p), numpy.fmod(rest, p)

def fine(rows, top, inv, p):
    top[:] = [x * inv % p for x in top]
    return _remainder(rows, p), pow(inv, -1, p) % p
"""
    assert bare_remainders(src) == ["line 8", "line 9"]


def test_every_array_remainder_goes_through_the_helper():
    assert bare_remainders((PACKAGE / "linalg.py").read_text(encoding="utf-8")) == []


def array_bytes(source: str) -> list[str]:
    """Lines that turn array contents into bytes (`.tobytes(`) or back (`np.frombuffer(`)."""
    return [
        f"line {k}"
        for k, line in enumerate(source.splitlines(), 1)
        if ".tobytes(" in line or "np.frombuffer(" in line
    ]


def test_detector_flags_array_bytes():
    src = """
@lru_cache(maxsize=512)
def _space(p, d_bytes, dim):
    d = np.frombuffer(d_bytes, dtype=np.int64).reshape(dim, dim)
    return nullspace_mod(d, p)

def basis(m):
    return _space(m.p, m.D.tobytes(), m.dim), m.D.tolist()
"""
    assert array_bytes(src) == ["line 4", "line 8"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_array_contents_become_bytes(path):
    assert array_bytes(path.read_text(encoding="utf-8")) == []


ENTRY_POINTS = {"rep_from_json", "sp_multiplicity_spaces"}


def validation_calls(source: str) -> list[str]:
    """Calls of `validate` or `_checked` outside ENTRY_POINTS and `_checked` itself."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ENTRY_POINTS | {"_checked"}
        for node in ast.walk(fn)
    }
    found = [
        (node.lineno, _callee(node))
        for node in ast.walk(tree)
        if _callee(node) in ("validate", "_checked") and id(node) not in allowed
    ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_flags_validation_outside_the_entry_points():
    src = """
def _checked(rep):
    problems = validate(rep)
    return rep

def rep_from_json(obj):
    return _checked(GroupRep(**obj))

def cyclic_rep(p, parts):
    return _checked(GroupRep(p=p, parts=parts))

class Tower:
    def power(self, m):
        return repcat.validate(self.reps[m])

assert not validate(trivial_rep(3))
"""
    assert validation_calls(src) == ["line 10: _checked", "line 14: validate", "line 16: validate"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_reps_are_validated_only_where_outside_data_enters(path):
    assert validation_calls(path.read_text(encoding="utf-8")) == []


PUBLIC = {
    "BudgetError", "CyclicPower", "DIM_CAPS", "FrobeniusImage", "FusionElement",
    "GroupRep", "GroupSpec", "JordanType", "NilModule", "Quotient", "ShortExactSeq",
    "Subspace", "SymmetricTower", "TruncSeries", "check_additivity",
    "check_monoidality", "cyclic_group", "cyclic_power", "cyclic_rep",
    "decompose_cyclic", "direct_sum", "exactness_report", "extension_survey",
    "fpdim_of_F", "fpdim_simple", "frobenius_components", "frobenius_on_simple",
    "frobenius_order_abstract", "functor_B", "functor_E",
    "fusion_tensor", "growth_check", "hilbert_coeffs", "inverse_mod", "jordan_module",
    "jordan_type", "kron_arrays", "mat_mul", "mat_pow", "mix64", "multiplicity_vector",
    "nil_module", "nullspace_mod", "random_nil_module", "random_rep_extension",
    "random_rep_ses", "rank_mod", "rank_sequence", "rep_from_json", "rep_to_json",
    "rng_for", "rref", "semisimplify", "six_periodic_check", "sp_multiplicity_spaces",
    "symmetric_group", "tensor", "trivial_rep", "validate", "verlinde_cone_report",
    "verlinde_weights",
}


def reexported(source: str) -> set[str]:
    """Names bound by the top-level `from ... import` statements of a module."""
    tree = ast.parse(source)
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_public_surface_is_pinned():
    assert reexported((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == PUBLIC


TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
KEPT = {
    "cli.main": "the `frobcat` console script; it calls `run`",
    "frobenius.exactness_report": "an acceptance criterion (exactness of the shift functors)",
    "frobenius.frobenius_order_abstract": "the order claim, kept to run on a category where F is not exact",
    "repcat.rep_to_json": "writes the `--rep-file` format that the README points at",
    "verlinde.verlinde_cone_report": "an acceptance criterion (cone coordinates of Verlinde weights)",
}


def traced_names(source: str) -> set[str]:
    """`module.name` of each function the tracer's `LAYERS` wraps (a method
    counts as its class) and each cache its `CACHES` reads."""
    values = {
        node.targets[0].id: node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    # LAYERS is dicts and comprehensions over string literals: evaluated with no builtins
    layers = eval(compile(ast.Expression(values["LAYERS"]), "tracer.py", "eval"), {"__builtins__": {}})
    wrapped = {f"{layer}.{path.split('.')[0]}" for layer, names in layers.items() for path in names.values()}
    return wrapped | {f"{layer}.{fn}" for layer, fn in ast.literal_eval(values["CACHES"]).values()}


def unreached(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Roots that name no definition, then the module-level `def`s and
    `class`es of `sources` (module name -> source) that no root reaches."""
    edges, definitions = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scope = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append((node.name, node))
                definitions.add(f"{module}.{node.name}")
            elif isinstance(node, ast.Assign):
                bound += [(target.id, node) for target in node.targets if isinstance(target, ast.Name)]
        scope.update((name, f"{module}.{name}") for name, _ in bound)
        for name, node in bound:
            read = {inner.id for inner in ast.walk(node) if isinstance(inner, ast.Name)}
            edges[f"{module}.{name}"] = {scope[r] for r in read if r in scope}
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += edges.get(name, ())
    missing = [f"root {name} is not defined" for name in sorted(roots - edges.keys())]
    return missing + sorted(definitions - seen)


def test_detector_flags_an_unreached_definition():
    # a helper only a dead function calls is dead too; a class is reached
    # through an assignment that names it, with its methods
    sources = {
        "linalg": """
def rref(a, p):
    return _leaf(a, p)

def _leaf(a, p):
    return a

def induced(m, q):
    return _lifts(rref(m, q.p))

def _lifts(r):
    return r
""",
        "nilmod": """
from .linalg import rref as eliminate

class Module:
    def kernel(self):
        return eliminate(self.D, self.p)

def _dead():
    return Module
""",
        "cli": """
from .nilmod import Module

SUITES = {"kernel": Module}

def run(argv):
    return SUITES[argv[0]]

def main():
    run([])
""",
    }
    assert unreached(sources, {"cli.run", "cli.gone"}) == [
        "root cli.gone is not defined", "cli.main", "linalg._lifts", "linalg.induced", "nilmod._dead",
    ]


def test_every_definition_is_reached_from_a_command_or_the_tracer():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    roots = {"cli.run", "cli.SUITES", *KEPT} | traced_names(TRACER.read_text(encoding="utf-8"))
    assert unreached(sources, roots) == []
