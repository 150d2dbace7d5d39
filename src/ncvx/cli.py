"""Command-line front end: parse JSON instances, dispatch one operation,
emit a single JSON document on stdout.

Exit codes: 0 when the operation succeeds and every asserted identity or
qualification holds, 1 when an identity is violated or a qualification
fails, 2 for usage and parse errors.  Diagnostics go to stderr; stdout
stays machine-readable.

A process loads only the layers its verb runs.  Every verb loads `jsonio`,
`ncset`, `svmap` and `plfunc` (with `polyhedron`, `lp` and `linalg` below
them); the set and map verbs load nothing more.  The handlers of the other
verbs import their layer themselves:

- `ovf`, `ncone` and `coderiv` load `variational`, and `ovf conjugate`
  also `conjugate`;
- `conj` and `support` load `conjugate` (which loads `variational`);
- `duality` loads `duality` (which loads `conjugate` and `variational`);
- `verify` loads `oracle` and with it every layer; numpy loads only when a
  suite scans a lattice.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import jsonio as js
from . import ncset as ns
from . import plfunc as pl
from . import svmap as sv
from .errors import NcvxError, ParseError, UsageError


def _load_set(path: str) -> ns.NCSet:
    return js.ncset_from_json(js.load_json_file(path))


def _load_map(path: str) -> sv.SVMap:
    return js.svmap_from_json(js.load_json_file(path))


def _load_fn(path: str) -> pl.PLFunction:
    return js.plfunction_from_json(js.load_json_file(path))


def _load_matrix(path: str) -> tuple:
    return js.matrix_from_json(js.load_json_file(path))


def _point(args, attr: str = "point") -> tuple:
    text = getattr(args, attr.replace("-", "_"), None)
    if text is None:
        raise UsageError(f"this verb needs --{attr}")
    return js.vector_from_text(text)


# ---------------------------------------------------------------------------
# set verbs


def _run_check(args):
    s = _load_set(args.set)
    ok, wit = ns.is_nearly_convex(s)
    doc = {"nearly_convex": ok, "witness": js.vector_to_json(wit)}
    return doc, 0 if ok else 1


def _run_ri(args):
    s = _load_set(args.set)
    ns.require_valid(s)
    r = ns.relative_interior(s)
    if r is None:
        return {"ri": {"dim": s.dim, "pieces": []}}, 0
    return {"ri": js.ncset_to_json(ns.ncset(s.dim, [r.base]))}, 0


def _run_closure(args):
    s = _load_set(args.set)
    ns.require_valid(s)
    hull = ns.closure(s)
    return {"closure": None if hull is None else js.hpoly_to_json(hull)}, 0


def _run_member(args):
    s = _load_set(args.set)
    x = _point(args)
    return {"member": ns.membership(s, x)}, 0


def _certified_set(doc, args, result: ns.NCSet) -> tuple[dict, int]:
    code = 0
    if args.certify:
        ok, wit = ns.is_nearly_convex(result)
        doc["certified"] = ok
        if not ok:
            doc["certificate_witness"] = js.vector_to_json(wit)
            code = 1
    return doc, code


def _run_image(args):
    s = _load_set(args.set)
    ns.require_valid(s)
    t = _load_matrix(args.matrix)
    result = ns.linear_image(s, t)
    return _certified_set({"result": js.ncset_to_json(result)}, args, result)


def _run_preimage(args):
    s = _load_set(args.set)
    ns.require_valid(s)
    t = _load_matrix(args.matrix)
    result, qc = ns.preimage(s, t)
    doc = {"result": js.ncset_to_json(result), "qc": qc}
    doc, code = _certified_set(doc, args, result)
    return doc, code if qc else 1


def _run_intersect(args):
    s1, s2 = _load_set(args.left), _load_set(args.right)
    ns.require_valid(s1)
    ns.require_valid(s2)
    result, qc = ns.intersect(s1, s2)
    doc = {"result": js.ncset_to_json(result), "qc": qc}
    doc, code = _certified_set(doc, args, result)
    return doc, code if qc else 1


def _run_product(args):
    s1, s2 = _load_set(args.left), _load_set(args.right)
    ns.require_valid(s1)
    ns.require_valid(s2)
    result = ns.product(s1, s2)
    return _certified_set({"result": js.ncset_to_json(result)}, args, result)


def _run_restrict(args):
    f = _load_map(args.map)
    omega = _load_set(args.set)
    restricted, qc = sv.restrict(f, omega)
    doc = {"map": js.svmap_to_json(restricted), "qc": qc}
    code = 0 if qc else 1
    if args.certify:
        doc["certified"] = sv.certify_restrict(f, omega, restricted)
        if not doc["certified"]:
            code = 1
    return doc, code


# ---------------------------------------------------------------------------
# mapping verbs


def _run_map(args):
    if args.map_op == "sum":
        f1, f2 = _load_map(args.left), _load_map(args.right)
        result, qc = sv.map_sum(f1, f2)
        doc = {"map": js.svmap_to_json(result), "qc": qc}
        code = 0 if qc else 1
        if args.certify:
            doc["certified"] = sv.certify_sum(f1, f2, result)
            if not doc["certified"]:
                code = 1
        return doc, code
    if args.map_op == "compose":
        inner, outer = _load_map(args.left), _load_map(args.right)
        result, qc = sv.compose(inner, outer)
        doc = {"map": js.svmap_to_json(result), "qc": qc}
        code = 0 if qc else 1
        if args.certify:
            doc["certified"] = sv.certify_compose(inner, outer, result)
            if not doc["certified"]:
                code = 1
        return doc, code
    if args.map_op == "inverse":
        f = _load_map(args.map)
        return {"map": js.svmap_to_json(sv.inverse(f))}, 0
    f = _load_map(args.map)  # eval
    values = sv.eval_at(f, _point(args))
    return {"values": js.ncset_to_json(values)}, 0


# ---------------------------------------------------------------------------
# optimal value function verbs


def _load_ovf(path: str):
    from . import variational as vr

    obj = js.load_json_file(path)
    if not isinstance(obj, dict) or "f" not in obj or "F" not in obj:
        raise ParseError("instance needs f (function) and F (mapping)")
    f = js.plfunction_from_json(obj["f"])
    fmap = js.svmap_from_json(obj["F"])
    return vr.build_ovf(f, fmap)


def _run_ovf(args):
    from . import variational as vr

    inst = _load_ovf(args.instance)
    if args.ovf_op == "eval":
        value = pl.eval_at(inst.mu, _point(args))
        doc = {"value": js.value_to_json(value), "qc": inst.qc}
        return doc, 0 if inst.qc else 1
    if args.ovf_op == "subdiff":
        sd = vr.ovf_subdifferential(inst, _point(args), _point(args, "solution"))
        return {"subdiff": js.hpoly_to_json(sd.set), "qc": inst.qc}, 0
    if args.ovf_op == "solutions":
        sols = vr.solution_map(inst, _point(args))
        doc = {"solutions": js.ncset_to_json(sols), "qc": inst.qc}
        return doc, 0 if inst.qc else 1
    from . import conjugate as cj

    value, wit = cj.ovf_conjugate(inst, _point(args, "dual"))  # conjugate
    doc = {
        "value": js.value_to_json(value),
        "witness": js.split_witness_to_json(wit),
        "qc": inst.qc,
    }
    return doc, 0


# ---------------------------------------------------------------------------
# conjugacy verbs


def _run_conj(args):
    from . import conjugate as cj

    if args.conj_op == "fn":
        f = _load_fn(args.function)
        star = cj.fenchel(f)
        doc = {"conjugate": js.plfunction_to_json(star)}
        if args.dual is not None:
            doc["value"] = js.value_to_json(cj.fenchel_value(f, _point(args, "dual")))
        return doc, 0
    if args.conj_op == "svm":
        f = _load_map(args.map)
        ev = cj.svm_conjugate(f, _point(args, "dual"))
        return {"support": js.support_to_json(ev)}, 0
    if args.conj_op == "sum":
        f1, f2 = _load_fn(args.left), _load_fn(args.right)
        value, wit = cj.conjugate_sum(f1, f2, _point(args, "dual"))
        doc = {"value": js.value_to_json(value), "witness": js.split_witness_to_json(wit)}
        return doc, 0
    g = _load_fn(args.function)  # chain
    a_mat = _load_matrix(args.matrix)
    value, v = cj.conjugate_chain(g, a_mat, _point(args, "dual"))
    return {"value": js.value_to_json(value), "attaining": js.vector_to_json(v)}, 0


def _run_support(args):
    from . import conjugate as cj

    s = _load_set(args.set)
    ev = cj.support(s, _point(args, "dual"))
    return {"support": js.support_to_json(ev)}, 0


def _run_ncone(args):
    from . import variational as vr

    s = _load_set(args.set)
    ns.require_valid(s)
    rep = vr.normal_cone(s, _point(args))
    return {"normal_cone": js.normal_cone_to_json(rep)}, 0


def _run_coderiv(args):
    from . import variational as vr

    f = _load_map(args.map)
    sv.require_valid_map(f)
    cone = vr.coderivative(f, _point(args), _point(args, "dual"))
    return {"coderivative": js.hpoly_to_json(cone)}, 0


# ---------------------------------------------------------------------------
# duality verbs


def _check_scheme(obj: dict, expected: str) -> None:
    declared = obj.get("scheme")
    if declared is not None and declared != expected:
        raise ParseError(f"instance declares scheme {declared!r}, verb expects {expected!r}")


def _run_duality(args):
    from . import duality as du

    obj = js.load_json_file(args.instance)
    if not isinstance(obj, dict):
        raise ParseError("duality instance must be a JSON object")
    scheme = args.duality_scheme
    _check_scheme(obj, scheme)
    if scheme == "general":
        f = js.plfunction_from_json(obj.get("f"))
        p = obj.get("p")
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ParseError("general scheme needs a positive integer p")
        rep = du.general_duality(f, p)
    elif scheme == "fenchel":
        g_fn = js.plfunction_from_json(obj.get("g"))
        h_fn = js.plfunction_from_json(obj.get("h"))
        a_mat = js.matrix_from_json(obj.get("A"))
        rep = du.fenchel_duality(g_fn, h_fn, a_mat)
    else:
        phi = js.plfunction_from_json(obj.get("phi"))
        theta = js.ncset_from_json(obj.get("theta"))
        g_raw = obj.get("G")
        if scheme == "lagrange" and isinstance(g_raw, dict) and "cone" in g_raw:
            aff = g_raw.get("g_affine")
            if not isinstance(aff, dict):
                raise ParseError("cone constraints need g_affine alongside cone")
            a_mat = js.matrix_from_json(aff.get("G"))
            c = js.vector_from_json(aff.get("c"), len(a_mat))
            k = pl.polycone(js.hpoly_from_json(g_raw["cone"]))
            rep = du.lagrange_cone_duality(phi, theta, a_mat, c, k)
        else:
            g = js.svmap_from_json(g_raw)
            if scheme == "lagrange":
                rep = du.lagrange_duality(phi, theta, g)
            else:
                rep = du.fenchel_lagrange_duality(phi, theta, g)
    return js.duality_report_to_json(rep), 0 if rep.all_qc() else 1


# ---------------------------------------------------------------------------
# theorem suites


def _run_verify(args):
    from . import oracle as orc

    rep = orc.theorem_suite(args.theorem, count=args.count, seed=args.seed)
    return js.suite_report_to_json(rep), 0 if not rep.failures else 1


# ---------------------------------------------------------------------------
# parser assembly


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ncvx",
        description="Exact calculus of nearly convex sets, mappings, and duality.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--certify", action="store_true", help="re-verify ri identities")
        return p

    p = add("check", _run_check, help="test near convexity of a set")
    p.add_argument("set")

    p = add("ri", _run_ri, help="relative interior of a valid set")
    p.add_argument("set")

    p = add("closure", _run_closure, help="closure of a valid set")
    p.add_argument("set")

    p = add("member", _run_member, help="point membership")
    p.add_argument("set")
    p.add_argument("--point", required=True)

    p = add("image", _run_image, help="linear image of a set")
    p.add_argument("set")
    p.add_argument("matrix")

    p = add("preimage", _run_preimage, help="linear preimage of a set")
    p.add_argument("set")
    p.add_argument("matrix")

    p = add("intersect", _run_intersect, help="intersection of two sets")
    p.add_argument("left")
    p.add_argument("right")

    p = add("product", _run_product, help="cartesian product of two sets")
    p.add_argument("left")
    p.add_argument("right")

    p = add("restrict", _run_restrict, help="restrict a mapping to a set")
    p.add_argument("map")
    p.add_argument("set")

    p = add("map", _run_map, help="mapping calculus")
    msub = p.add_subparsers(dest="map_op", required=True)
    q = msub.add_parser("sum", help="pointwise sum of two mappings")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--certify", action="store_true", help="re-verify ri identities")
    q = msub.add_parser("compose", help="outer after inner")
    q.add_argument("left", help="inner mapping")
    q.add_argument("right", help="outer mapping")
    q.add_argument("--certify", action="store_true", help="re-verify ri identities")
    q = msub.add_parser("inverse", help="graph transpose")
    q.add_argument("map")
    q = msub.add_parser("eval", help="value set at a point")
    q.add_argument("map")
    q.add_argument("--point", required=True)

    p = add("ovf", _run_ovf, help="optimal value function")
    osub = p.add_subparsers(dest="ovf_op", required=True)
    q = osub.add_parser("eval", help="mu at a point")
    q.add_argument("instance")
    q.add_argument("--point", required=True)
    q = osub.add_parser("subdiff", help="subdifferential of mu")
    q.add_argument("instance")
    q.add_argument("--point", required=True)
    q.add_argument("--solution", required=True, help="a minimizer at the point")
    q = osub.add_parser("solutions", help="argmin set at a point")
    q.add_argument("instance")
    q.add_argument("--point", required=True)
    q = osub.add_parser("conjugate", help="conjugate of mu")
    q.add_argument("instance")
    q.add_argument("--dual", required=True)

    p = add("conj", _run_conj, help="Fenchel conjugacy")
    csub = p.add_subparsers(dest="conj_op", required=True)
    q = csub.add_parser("fn", help="conjugate of a function")
    q.add_argument("function")
    q.add_argument("--dual")
    q = csub.add_parser("svm", help="conjugate of a set-valued mapping")
    q.add_argument("map")
    q.add_argument("--dual", required=True)
    q = csub.add_parser("sum", help="conjugate of a sum")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--dual", required=True)
    q = csub.add_parser("chain", help="conjugate of g after an affine map")
    q.add_argument("function")
    q.add_argument("matrix")
    q.add_argument("--dual", required=True)

    p = add("support", _run_support, help="support function evaluation")
    p.add_argument("set")
    p.add_argument("--dual", required=True)

    p = add("ncone", _run_ncone, help="normal cone at a point of the set")
    p.add_argument("set")
    p.add_argument("--point", required=True)

    p = add("coderiv", _run_coderiv, help="coderivative at a graph point")
    p.add_argument("map")
    p.add_argument("--point", required=True, help="graph point (x, y)")
    p.add_argument("--dual", required=True)

    p = add("duality", _run_duality, help="duality schemes")
    p.add_argument(
        "duality_scheme",
        choices=["general", "lagrange", "fenchel-lagrange", "fenchel"],
        metavar="scheme",
    )
    p.add_argument("instance")

    p = add("verify", _run_verify, help="run a randomized theorem suite")
    p.add_argument("theorem")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return top


# built once per process, at import: the tree holds no mutable default, and
# each parse_args call fills a fresh Namespace
_PARSER = _parser()


def _bind_vectors(argv: list) -> list:
    """Join --point, --dual and --solution to the token after them, so that
    argparse takes a vector with a leading minus (-1/2) as their value and
    not as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("--point", "--dual", "--solution"):
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_bind_vectors(argv))
    except SystemExit as exc:
        # argparse has already written the diagnostic
        return 2 if exc.code not in (0, None) else 0
    try:
        doc, code = args.run(args)
    except UsageError as exc:
        print(f"ncvx: {exc}", file=sys.stderr)
        return 2
    except NcvxError as exc:
        print(f"ncvx: {exc}", file=sys.stderr)
        print(js.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    print(js.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
