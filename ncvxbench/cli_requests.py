"""Seeded CLI requests for the cli-cold workload, and their cross-checks.

Every request is one `ncvx` verb with its JSON input files.  Inputs come
from the oracle's public generators (`random_ncset`, `random_corrupted`)
at the caps the theorem checkers use for the same objects (`DEFAULT_SPEC`
for sets, `LEAN_SPEC` for mappings), in dimension at most 2 (see
MAX_DIM).  Anchored instances put a known point in the relative interior
of every set involved, so each qualification holds and the expected exit
code is 0.

Two input pitfalls of the CLI are worked around here, not fixed:

* argparse reads `--point -1/2,1` as an option and exits with code 2, so
  every value is passed as `--point=...`;
* `conj fn` on an arity-3 function does not finish within a minute; the
  mix has no `conj fn` request (see MIX).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ncvx import jsonio as js
from ncvx import oracle as orc
from ncvx.oracle import DEFAULT_SPEC, LEAN_SPEC

F = Fraction
BOUND = DEFAULT_SPEC.bound
# Sets live in R^1 or R^2 and graphs in R^2.  The generator lists every
# face of a closed polytope, which in R^3 costs seconds per set and
# would dominate set-up; the verify workloads cover R^3.
MAX_DIM = 2


@dataclass
class Request:
    """One CLI call: a label, its argv (file names relative to the work
    directory) and a check of the captured stdout and exit code."""

    verb: str
    argv: list
    files: dict
    check: Callable[[Optional[dict], int], Optional[str]]
    paths: list = field(default_factory=list)

    def write(self, workdir: str, tag: str) -> None:
        """Write the input files and resolve argv to their paths."""
        mapping = {}
        for name, doc in self.files.items():
            path = os.path.join(workdir, f"{tag}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            mapping[name] = path
        self.paths = [mapping.get(a, a) for a in self.argv]


# ---------------------------------------------------------------------------
# generators


def _dim(j: int) -> int:
    """The dimension of copy j: the copies alternate through 1..MAX_DIM,
    so every seed has the same mix of shapes and varies only the
    coefficients.  Costs cluster by dimension, so a dimension drawn from
    the seed would make the cost of a whole pool move with the seed."""
    return 1 + j % MAX_DIM


def _anchor(rng: random.Random, dim: int) -> tuple:
    return tuple(F(rng.randint(-BOUND, BOUND), 2) for _ in range(dim))


def _coefs(rng: random.Random, dim: int) -> tuple:
    return tuple(F(rng.randint(-2, 2)) for _ in range(dim))


def _matrix(rng: random.Random, m: int, n: int) -> tuple:
    while True:
        t = tuple(_coefs(rng, n) for _ in range(m))
        if any(any(r) for r in t):
            return t


def _text(v) -> str:
    return ",".join(str(F(c)) for c in v)


def _mat_vec(t, x) -> tuple:
    return tuple(sum((a * b for a, b in zip(r, x)), F(0)) for r in t)


def _map_doc(rng: random.Random, spec, n: int, p: int, anchor=None) -> dict:
    graph = orc.random_ncset(rng, n + p, spec, anchor)
    return {"n": n, "p": p, "graph": js.ncset_to_json(graph)}


# ---------------------------------------------------------------------------
# checks on the parsed stdout document


def _expect(key: str):
    """Exit code 0 and a result under `key`."""

    def check(doc, code):
        if code != 0:
            return f"exit code {code}, expected 0"
        if doc is None or key not in doc:
            return f"stdout lacks {key!r}"
        return None

    return check


def _req_check(rng, j):
    dim = _dim(j)
    valid = (j // MAX_DIM) % 2 == 0
    s = orc.random_ncset(rng, dim, DEFAULT_SPEC) if valid else orc.random_corrupted(rng, dim, DEFAULT_SPEC)

    def check(doc, code):
        truth, _ = orc.near_convexity_oracle(s)
        if doc is None or doc.get("nearly_convex") is not truth:
            return f"check disagrees with the near-convexity oracle ({truth})"
        return None if code == (0 if truth else 1) else f"exit code {code}"

    return Request("check", ["check", "s"], {"s": js.ncset_to_json(s)}, check)


def _req_set_verb(verb: str, key: str):
    def make(rng, j):
        s = orc.random_ncset(rng, _dim(j), DEFAULT_SPEC)
        return Request(verb, [verb, "s"], {"s": js.ncset_to_json(s)}, _expect(key))

    return make


def _req_member(rng, j):
    dim = _dim(j)
    a = _anchor(rng, dim)
    s = orc.random_ncset(rng, dim, DEFAULT_SPEC, anchor=a)

    def check(doc, code):
        if code != 0 or doc is None or doc.get("member") is not True:
            return "the generator's anchor must be a member"
        return None

    return Request("member", ["member", "s", f"--point={_text(a)}"], {"s": js.ncset_to_json(s)}, check)


def _req_image(rng, j):
    d, m = _dim(j), _dim(j // MAX_DIM)
    s = orc.random_ncset(rng, d, DEFAULT_SPEC)
    files = {"s": js.ncset_to_json(s), "t": [[str(c) for c in r] for r in _matrix(rng, m, d)]}
    return Request("image", ["image", "s", "t"], files, _expect("result"))


def _req_preimage(rng, j):
    n, m = _dim(j), _dim(j // MAX_DIM)
    t = _matrix(rng, m, n)
    x0 = _anchor(rng, n)
    s = orc.random_ncset(rng, m, DEFAULT_SPEC, anchor=_mat_vec(t, x0))
    files = {"s": js.ncset_to_json(s), "t": [[str(c) for c in r] for r in t]}
    return Request("preimage", ["preimage", "s", "t"], files, _expect("result"))


def _req_intersect(rng, j):
    dim = _dim(j)
    a = _anchor(rng, dim)
    files = {
        "l": js.ncset_to_json(orc.random_ncset(rng, dim, DEFAULT_SPEC, anchor=a)),
        "r": js.ncset_to_json(orc.random_ncset(rng, dim, DEFAULT_SPEC, anchor=a)),
    }
    return Request("intersect", ["intersect", "l", "r"], files, _expect("result"))


def _req_product(rng, j):
    files = {
        "l": js.ncset_to_json(orc.random_ncset(rng, _dim(j), DEFAULT_SPEC)),
        "r": js.ncset_to_json(orc.random_ncset(rng, 1, DEFAULT_SPEC)),
    }
    return Request("product", ["product", "l", "r"], files, _expect("result"))


def _req_map_compose(rng, j):
    a, b, c = _anchor(rng, 1), _anchor(rng, 1), _anchor(rng, 1)
    files = {
        "l": _map_doc(rng, LEAN_SPEC, 1, 1, a + b),
        "r": _map_doc(rng, LEAN_SPEC, 1, 1, b + c),
    }
    return Request("map-compose", ["map", "compose", "l", "r"], files, _expect("map"))


def _req_map_eval(rng, j):
    a = _anchor(rng, 1)
    files = {"f": _map_doc(rng, LEAN_SPEC, 1, 1, a + _anchor(rng, 1))}
    return Request("map-eval", ["map", "eval", "f", f"--point={_text(a)}"], files, _expect("values"))


def _req_support(rng, j):
    dim = _dim(j)
    s = orc.random_ncset(rng, dim, DEFAULT_SPEC)
    w = _coefs(rng, dim)

    def check(doc, code):
        bad = _expect("support")(doc, code)
        if bad:
            return bad
        want = js.value_to_json(orc.generator_support_oracle(s, w))
        got = doc["support"]["value"]
        return None if got == want else f"support {got} != generator sweep {want}"

    files = {"s": js.ncset_to_json(s)}
    return Request("support", ["support", "s", f"--dual={_text(w)}"], files, check)


def _req_ncone(rng, j):
    dim = _dim(j)
    a = _anchor(rng, dim)
    files = {"s": js.ncset_to_json(orc.random_ncset(rng, dim, DEFAULT_SPEC, anchor=a))}
    return Request("ncone", ["ncone", "s", f"--point={_text(a)}"], files, _expect("normal_cone"))


# The fixed verb mix, in request order: the verbs that answer within
# about 0.5 s.  `map sum`, `conj fn`, `duality` and `ovf` are left out:
# one such request took from 0.05 s to 1-11 s depending on the instance,
# so the few of them that fit in a run set ops_per_s and op_p90_ms on
# their own, and those spread by 0.3-0.6 from seed to seed.
MIX = (
    _req_check,
    _req_set_verb("ri", "ri"),
    _req_set_verb("closure", "closure"),
    _req_member,
    _req_image,
    _req_preimage,
    _req_intersect,
    _req_product,
    _req_map_compose,
    _req_map_eval,
    _req_support,
    _req_ncone,
)

# distinct generated requests per verb; cycle c of the mix takes copy
# c mod COPIES of every verb.  The p90 of a run falls among the costliest
# tenth of the distinct requests, so it hinges on how many there are:
# with 8 copies it moved from 140 to 204 ms between seeds.
COPIES = 16


def make_pool(seed: int) -> list[list[Request]]:
    """COPIES requests per verb of the mix.  Copy j of verb k draws from
    its own generator, so one verb's inputs do not shift another's; its
    shape (dimensions, and whether a `check` set is corrupted) comes
    from j."""
    return [
        [make(random.Random(f"{seed}:{k}:{j}"), j) for j in range(COPIES)]
        for k, make in enumerate(MIX)
    ]


def schedule(pool: list[list[Request]]):
    """The request order: cycle after cycle of the verb mix."""
    c = 0
    while True:
        for copies in pool:
            yield copies[c % COPIES]
        c += 1
