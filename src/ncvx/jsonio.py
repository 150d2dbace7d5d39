"""JSON wire formats for every value the CLI reads or writes.

Rationals cross the wire as exact strings "p/q" or "p"; bare JSON
numbers are rejected so floats can never contaminate a computation.
Emission is deterministic: sorted keys, fixed separators, canonical
row order straight from the library's canonical forms.

Input sugar accepted on top of the explicit forms:
  NCSet       {"closure": HPoly, "faces": [[active indices]...]}
              with 1-based indices into the closure's ineq rows
  SVMap       {"g_affine": {"G": matrix, "c": vector}, "cone": HPoly}
              meaning x -> Gx + c + cone (cone optional, rhs all zero)
  PLFunction  {"max_affine": [[a..., b]...], "domain": NCSet}
              meaning max of affine rows plus the domain indicator
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import ncset as ns
from . import plfunc as pl
from . import polyhedron as ph
from . import svmap as sv
from .errors import ParseError
from .ncset import NCSet
from .plfunc import PLFunction
from .polyhedron import HPoly, NormalConeRep
from .rationals import format_rational, parse_rational
from .svmap import SVMap

# the double description is exponential; keep wire inputs at desk scale
CONSTRAINT_CAP = 32


# ---------------------------------------------------------------------------
# scalars and vectors


def rational_from_json(v: Any) -> Fraction:
    if not isinstance(v, str):
        raise ParseError(f"rationals cross the wire as strings, got {v!r}")
    return parse_rational(v)


def value_to_json(v) -> str:
    return format_rational(v)


def vector_from_json(v: Any, dim: Optional[int] = None) -> tuple:
    if not isinstance(v, list):
        raise ParseError(f"vector must be a JSON array, got {v!r}")
    out = tuple(rational_from_json(c) for c in v)
    if dim is not None and len(out) != dim:
        raise ParseError(f"vector length {len(out)} does not match dim {dim}")
    return out


def vector_to_json(v: Optional[Sequence]) -> Optional[list]:
    if v is None:
        return None
    return [format_rational(c) for c in v]


def vector_from_text(text: str) -> tuple:
    """Comma-separated rationals, the CLI's --point syntax."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError(f"empty point text {text!r}")
    return tuple(parse_rational(p) for p in parts)


def matrix_from_json(v: Any, cols: Optional[int] = None) -> tuple:
    if not isinstance(v, list) or not v:
        raise ParseError("matrix must be a nonempty JSON array of rows")
    rows = tuple(vector_from_json(r) for r in v)
    width = cols if cols is not None else len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ParseError("matrix rows have inconsistent width")
    return rows


# ---------------------------------------------------------------------------
# polyhedra


def _rows_from_json(v: Any, dim: int, kind: str) -> tuple:
    if not isinstance(v, list):
        raise ParseError(f"{kind} must be a JSON array of rows")
    rows = []
    for entry in v:
        if not isinstance(entry, list) or len(entry) != dim + 1:
            raise ParseError(f"{kind} row needs {dim} coefficients plus a rhs")
        vals = [rational_from_json(c) for c in entry]
        rows.append((tuple(vals[:dim]), vals[dim]))
    return tuple(rows)


def _rows_to_json(rows) -> list:
    return [[format_rational(c) for c in a] + [format_rational(b)] for a, b in rows]


def _parse_dim(obj: dict, key: str = "dim") -> int:
    d = obj.get(key)
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ParseError(f"{key} must be a nonnegative integer, got {d!r}")
    return d


def hpoly_from_json(obj: Any) -> HPoly:
    if not isinstance(obj, dict):
        raise ParseError(f"polyhedron must be a JSON object, got {obj!r}")
    dim = _parse_dim(obj)
    ineq = _rows_from_json(obj.get("ineq", []), dim, "ineq")
    eq = _rows_from_json(obj.get("eq", []), dim, "eq")
    if len(ineq) + len(eq) > CONSTRAINT_CAP:
        raise ParseError(
            f"{len(ineq) + len(eq)} constraints exceed the cap {CONSTRAINT_CAP}"
        )
    return ph.hpoly(dim, ineq, eq)


def hpoly_to_json(p: HPoly) -> dict:
    return {"dim": p.dim, "ineq": _rows_to_json(p.ineq), "eq": _rows_to_json(p.eq)}


def normal_cone_to_json(c: NormalConeRep) -> dict:
    return {
        "dim": c.dim,
        "generators": [vector_to_json(g) for g in c.generators],
        "lineality": [vector_to_json(l) for l in c.lineality],
    }


# ---------------------------------------------------------------------------
# nearly convex sets


def ncset_from_json(obj: Any) -> NCSet:
    if not isinstance(obj, dict):
        raise ParseError(f"set must be a JSON object, got {obj!r}")
    if "closure" in obj:
        base = hpoly_from_json(obj["closure"])
        sets = obj.get("faces", [])
        if not isinstance(sets, list):
            raise ParseError("faces must be a JSON array of index arrays")
        active = []
        for entry in sets:
            if not isinstance(entry, list):
                raise ParseError("each face is a JSON array of 1-based indices")
            zero_based = []
            for i in entry:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise ParseError(f"face index must be an integer, got {i!r}")
                if not 1 <= i <= len(base.ineq):
                    raise ParseError(
                        f"face index {i} outside 1..{len(base.ineq)}"
                    )
                zero_based.append(i - 1)
            active.append(zero_based)
        return ns.from_closure_and_faces(base, active)
    dim = _parse_dim(obj)
    pieces = obj.get("pieces")
    if not isinstance(pieces, list):
        raise ParseError("set needs a pieces array (or closure/faces sugar)")
    bases = [hpoly_from_json(p) for p in pieces]
    for b in bases:
        if b.dim != dim:
            raise ParseError("piece dim does not match set dim")
    return ns.ncset(dim, bases)


def ncset_to_json(s: NCSet) -> dict:
    return {"dim": s.dim, "pieces": [hpoly_to_json(pc.base) for pc in s.pieces]}


# ---------------------------------------------------------------------------
# set-valued mappings


def svmap_from_json(obj: Any) -> SVMap:
    if not isinstance(obj, dict):
        raise ParseError(f"mapping must be a JSON object, got {obj!r}")
    if "g_affine" in obj:
        aff = obj["g_affine"]
        if not isinstance(aff, dict):
            raise ParseError("g_affine must be an object with G and c")
        g_mat = matrix_from_json(aff.get("G"))
        c = vector_from_json(aff.get("c"), len(g_mat))
        if "cone" in obj:
            cone = hpoly_from_json(obj["cone"])
            if cone.dim != len(g_mat):
                raise ParseError("cone dim does not match the rows of G")
            for _, b in cone.ineq + cone.eq:
                if b != 0:
                    raise ParseError("cone rows must have zero rhs")
            return sv.affine_plus_cone(g_mat, c, cone)
        return sv.affine_map(g_mat, c)
    n = _parse_dim(obj, "n")
    p = _parse_dim(obj, "p")
    graph = ncset_from_json(obj.get("graph"))
    if graph.dim != n + p:
        raise ParseError("graph dim must equal n + p")
    return sv.svmap(n, p, graph)


def svmap_to_json(f: SVMap) -> dict:
    return {"n": f.n, "p": f.p, "graph": ncset_to_json(f.graph)}


# ---------------------------------------------------------------------------
# piecewise linear functions


def plfunction_from_json(obj: Any) -> PLFunction:
    if not isinstance(obj, dict):
        raise ParseError(f"function must be a JSON object, got {obj!r}")
    if "max_affine" in obj:
        raw = obj["max_affine"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("max_affine must be a nonempty array of rows")
        first = raw[0]
        if not isinstance(first, list) or len(first) < 2:
            raise ParseError("max_affine rows are [a..., b] with at least one a")
        n = len(first) - 1
        rows = _rows_from_json(raw, n, "max_affine")
        domain = None
        if "domain" in obj:
            domain = ncset_from_json(obj["domain"])
            if domain.dim != n:
                raise ParseError("domain dim does not match max_affine arity")
        return pl.max_affine(n, rows, domain)
    n = _parse_dim(obj, "n")
    epi = ncset_from_json(obj.get("epi"))
    if epi.dim != n + 1:
        raise ParseError("epi dim must equal n + 1")
    return pl.plfunction(n, epi)


def plfunction_to_json(f: PLFunction) -> dict:
    return {"n": f.n, "epi": ncset_to_json(f.epi)}


# ---------------------------------------------------------------------------
# reports


def _deep(v: Any) -> Any:
    """Recursively turn Fractions into wire strings inside plain containers."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (tuple, list)):
        return [_deep(x) for x in v]
    return v


def qc_flags_to_json(flags) -> list:
    return [
        {
            "name": fl.name,
            "holds": fl.holds,
            "witness": vector_to_json(fl.witness),
            "certificate": _deep(fl.certificate),
        }
        for fl in flags
    ]


def duality_report_to_json(rep) -> dict:
    return {
        "scheme": rep.scheme,
        "V": value_to_json(rep.v_primal),
        "V_d": value_to_json(rep.v_dual),
        "V_d_formula": None
        if rep.v_dual_formula is None
        else value_to_json(rep.v_dual_formula),
        "gap": value_to_json(rep.gap),
        "qc": qc_flags_to_json(rep.qc_flags),
        "primal_witness": vector_to_json(rep.primal_witness),
        "dual_witness": vector_to_json(rep.dual_witness),
        "subdiff_nonempty": rep.subdiff_nonempty,
        "perturbation": plfunction_to_json(rep.perturbation),
        "mu": plfunction_to_json(rep.mu),
    }


def support_to_json(ev) -> dict:
    return {
        "value": value_to_json(ev.value),
        "maximizer": vector_to_json(ev.maximizer),
        "ray": vector_to_json(ev.ray),
    }


def split_witness_to_json(wit) -> Optional[dict]:
    if wit is None:
        return None
    return {
        "w1": vector_to_json(wit.w1),
        "w2": vector_to_json(wit.w2),
        "v": vector_to_json(wit.v),
        "parts": [value_to_json(p) for p in wit.parts],
    }


def suite_report_to_json(rep) -> dict:
    return {
        "theorem": rep.theorem,
        "count": rep.count,
        "passes": rep.passes,
        "failures": [{"seed": s, "detail": d} for s, d in rep.failures],
    }


# ---------------------------------------------------------------------------
# files and dumps


def dumps(obj: Any) -> str:
    """Deterministic emission: sorted keys, no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer past the limit on digits
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
