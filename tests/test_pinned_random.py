"""Pinned outputs of the seeded random constructions.

The determinism tests elsewhere compare two calls of the same code; these
digests were recorded once and pin the draws themselves, so a refactor of
the samplers or of the extension machinery cannot change what a seed
produces without failing here. `python tests/test_pinned_random.py` prints
the digests of the current code.
"""
import hashlib
import json

import numpy as np
import pytest

from frobcat.frobenius import frobenius_on_simple, random_rep_ses
from frobcat.nilmod import extension_survey, jordan_module, random_nil_module
from frobcat.repcat import random_cyclic_rep
from oracles import random_extension

PRIMES = (2, 3, 5, 7)
SEEDS = (0, 1, 29, 2024)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            arr = np.ascontiguousarray(item, dtype=np.int64)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def _cyclic_reps(p):
    return [
        random_cyclic_rep(p, dim, seed, index).matrices[0]
        for seed in SEEDS
        for dim, index in ((1, 0), (p, 1), (2 * p + 1, 2), (9, 3))
    ]


def _nil_modules(p):
    return [
        random_nil_module(p, n, dim, seed, index).D
        for seed in SEEDS
        for n, dim, index in ((1, 3, 0), (2, 5, 1), (p, 8, 2), (6, 11, 3))
    ]


def _rep_ses(p):
    out = []
    for seed in SEEDS:
        for index in range(3):
            s = random_rep_ses(p, 8, seed, index)
            out += [s.x.matrices[0], s.y.matrices[0], s.z.matrices[0]]
            out += [s.inj, s.surj]
    return out


_EXTENSION_PAIRS = (((2, 1), (2,)), ((3, 1), (2, 2)), ((1,), (1, 1)))


def _extensions(p):
    out = []
    for seed in SEEDS:
        for n in (2, 3, p):
            for xp, zp in _EXTENSION_PAIRS:
                x = jordan_module(p, n, [min(k, n) for k in xp])
                z = jordan_module(p, n, [min(k, n) for k in zp])
                s = random_extension(x, z, seed, n)
                out += [s.y.D, s.inj, s.surj]
    return out


def _surveys(p):
    out = []
    for seed in SEEDS:
        for n in (2, 3, p):
            for xp, zp in _EXTENSION_PAIRS:
                x = jordan_module(p, n, [min(k, n) for k in xp])
                z = jordan_module(p, n, [min(k, n) for k in zp])
                out.append(extension_survey(x, z, 6, seed))
    return out


def _simples(p):
    return [[list(e.mult) for e in frobenius_on_simple(p, m)] for m in range(1, min(p, 4))]


BUILDERS = {
    "random_cyclic_rep": _cyclic_reps,
    "random_nil_module": _nil_modules,
    "random_rep_ses": _rep_ses,
    "random_extension": _extensions,
    "extension_survey": _surveys,
    "frobenius_on_simple": _simples,
}

PINNED = {
    "extension_survey": {
        "2": "4feaa962892471c8e033c44a31f9990ffa8870b3931b32602371ffa977a14d14",
        "3": "e05f7cb15d888c67eff6ced47549b972f831e585e46ba8b6711708f69b183c14",
        "5": "a97cf1bff76034bc5e6962ec7b3fed794bc4ece7328ad4df28d650d970eb8f72",
        "7": "940417dcc7211377568e7c8ea0927c769996bd176e20eaccf029955481ce3bab"
    },
    "frobenius_on_simple": {
        "2": "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
        "3": "484d21a3a8d61f67c7520cb9a0a0e0a456cfdb5b0395910f4c617a8d463ee908",
        "5": "5c8811e68956df6a2cb6bdf0f7ebefebc5ffc60846d594385fcaec447c3d86e1",
        "7": "6ef1603e0a533636de5f0c36522ed6d0bdfc13d0ebcb30bfbec8dd0762f8e486"
    },
    "random_cyclic_rep": {
        "2": "dd89e0d366d9c5e2c788200a93c096f11c2ec7d67faf5fe0e979ed25b1f7233c",
        "3": "5a9767e08ca69343a3e2a6cfff6e2c61406e0dbcd29a880da4a9e77a688faf27",
        "5": "88590fd66e718a20324c585bf31cae1dad4b2dee97877759a64f18c1a65b170c",
        "7": "e7a2924de5c65221619dab5871b5644e94e8db7be5753d5ba7c45ce7ada451c8"
    },
    "random_extension": {
        "2": "5c7d26e0f3f1e8833869a73e727949aea409a4c561aec136eb6ecea10874dc1a",
        "3": "0d700847ecbc48b355f6c2f981dc39075154079c6a2a94c8d68eb284430569a5",
        "5": "f23a2c559ba15c55b92e35e9bda3bf4733dda0942b82c015f9b494234e3cf89e",
        "7": "e4e8b2b6750c3a7f7e254ff6fd2057a0b61a37eee34de64e257c333a3336133d"
    },
    "random_nil_module": {
        "2": "1ee853175dad746071f378f8800976ffe2239a2aa3aa008264c9019c23845430",
        "3": "68137dd2defcbd6de19dfafedc5b4151667c4ad456da5500abe1111bc018b170",
        "5": "eb5c4e56f3ddefdb06f8eab6ce1c100fa0514c2945653aac7bab7d94d14b52dc",
        "7": "b19b5a27dd07190b8da0e5e873e9dfcf17d139c85f2039495a73886a50545bee"
    },
    "random_rep_ses": {
        "2": "489869459bb677475ddec114de09bf9fd3e5754c300667e48f1a73014d24fbb4",
        "3": "f55430c006a2f58101ef36eddcd21e899aa66bf84d55c8fdea4ec985bc015356",
        "5": "d9c8d02bc394d593c3c2f78b57c349a12f3683c2030e4d5c240e7af62d113640",
        "7": "e566c1ebea6ee59c100654ec10b7e7f6893126fc9face21cdbadcab8867ea948"
    }
}


@pytest.mark.parametrize("name, p", [(name, p) for name in sorted(PINNED) for p in PINNED[name]])
def test_random_constructions_are_pinned(name, p):
    assert _digest(BUILDERS[name](int(p))) == PINNED[name][p]


if __name__ == "__main__":
    print(json.dumps(
        {
            name: {str(p): _digest(build(p)) for p in PRIMES}
            for name, build in sorted(BUILDERS.items())
        },
        indent=4,
        sort_keys=True,
    ))
