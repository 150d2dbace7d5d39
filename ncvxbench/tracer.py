"""Outside-in tracing of ncvx: wrap public functions, count and time them.

The tracer replaces chosen functions of the `ncvx` modules by wrappers
that keep a span stack, so each traced call gets its self time (its
duration minus the time of traced calls below it).  Nothing under
`src/ncvx` is edited; the wrappers are rebound at run time and removed
again by `uninstall`.

`from .lp import solve_lp` copies a function into the importing module,
so wrapping `ncvx.lp.solve_lp` alone would miss most calls.  `install`
therefore rebinds every module attribute that is the traced object, and
`uninstall` puts every original back.  Wrappers sit outside each
`lru_cache`; the original is kept for its `cache_info()`, which the
wrapper does not have.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
from time import perf_counter_ns

import ncvx

MODULE_LAYERS = ("ncset", "svmap", "plfunc", "conjugate", "duality", "variational")
POLY_FNS = (
    "canonical_form",
    "project_mixed",
    "to_vrep",
    "to_hrep",
    "subtract_cells",
    "decompose_mixed",
)
# The oracle's independent checking: its public oracles, plus the probe
# comparison loop and the Fourier-Motzkin feasibility test that the
# identity checkers run on every probe point.
ORACLE_CHECK = (
    "near_convexity_oracle",
    "grid_membership_oracle",
    "generator_support_oracle",
    "generator_conjugate_oracle",
    "_compare_preds",
    "_tiny_feasible",
)
ORACLE_GEN = ("random_ncset", "random_polytope")


def ncvx_modules() -> list:
    """Every module of the ncvx package, imported."""
    return [
        importlib.import_module(f"ncvx.{m.name}")
        for m in pkgutil.iter_modules(ncvx.__path__)
    ]


class Caches:
    """Every `lru_cache` across ncvx, found by looking for `cache_clear`
    rather than from a hand-kept list."""

    def __init__(self, modules):
        found = {}
        for mod in modules:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
        self.funcs = list(found.values())

    def clear(self) -> None:
        for fn in self.funcs:
            fn.cache_clear()

    def sizes(self) -> list:
        return [fn.cache_info().currsize for fn in self.funcs]


def _public_functions(mod) -> dict:
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == mod.__name__
    }


class _Stat:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Span-stack tracer over the functions the per-layer metrics need.

    Keys are `<module>.<function>`.  Counters that need a call's
    arguments or result (LP sizes, outcomes, output sizes) are kept in
    `counts`; cache misses come from `cache_info()` and are harvested
    before every cache clear, because `cache_clear` resets them.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        self.targets = {}  # key -> original function
        lp, poly = by_name["lp"], by_name["polyhedron"]
        for name in ("solve_lp", "strict_feasible"):
            self.targets[f"lp.{name}"] = getattr(lp, name)
        for name in POLY_FNS:
            self.targets[f"polyhedron.{name}"] = getattr(poly, name)
        for layer in MODULE_LAYERS + ("jsonio",):
            for name, fn in _public_functions(by_name[layer]).items():
                self.targets[f"{layer}.{name}"] = fn
        self.targets["cli.main"] = by_name["cli"].main
        for name in ORACLE_CHECK + ORACLE_GEN:
            self.targets[f"oracle.{name}"] = getattr(by_name["oracle"], name)
        self.cached = {
            key: fn for key, fn in self.targets.items() if hasattr(fn, "cache_info")
        }
        self.stats = {key: _Stat() for key in self.targets}
        self.counts = {}
        self.misses = {key: 0 for key in self.cached}
        self.hits = {key: 0 for key in self.cached}
        self.stack = []
        self.rebound = []  # (module, attribute, original)
        self.rebound_count = 0

    # -- counters ---------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def harvest(self) -> None:
        """Fold the lru statistics into the totals; call before clearing."""
        for key, fn in self.cached.items():
            info = fn.cache_info()
            self.misses[key] += info.misses
            self.hits[key] += info.hits

    def _solve_lp_done(self, args, kwargs, out, missed):
        if not missed:
            return
        system = args[1] if len(args) > 1 else kwargs["system"]
        self.add("lp.solve_lp.rows", len(system.weak) + len(system.eq))
        self.add("lp.solve_lp.cols", system.dim)
        if out.status != "optimal":
            self.add(f"lp.solve_lp.{out.status}")
        # attribute the solve to the nearest traced caller outside lp
        for frame in reversed(self.stack):
            if not frame[0].startswith("lp."):
                self.add(f"lp_solves_under.{frame[0]}")
                break

    def _post(self, key, args, kwargs, out):
        if key == "polyhedron.project_mixed":
            self.add(key + ".rows_out", len(out.weak) + len(out.strict) + len(out.eq))
        elif key == "polyhedron.to_vrep":
            self.add(key + ".generators_out", len(out.points) + len(out.rays))
        elif key == "polyhedron.subtract_cells":
            self.add(key + ".cells_out", len(out))
        elif key == "polyhedron.decompose_mixed":
            if not self.stack or self.stack[-1][0] != key:
                self.add(key + ".pieces_out", len(out))
        elif key == "jsonio.load_json_file":
            path = args[0] if args else kwargs["path"]
            self.add("jsonio.bytes_in", os.path.getsize(path))
        elif key == "jsonio.dumps":
            self.add("jsonio.bytes_out", len(out.encode("utf-8")))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, orig):
        stack, stat = self.stack, self.stats[key]
        watch_miss = key == "lp.solve_lp"
        post = self._post

        def traced(*args, **kwargs):
            if watch_miss:
                before = orig.cache_info().misses
            frame = [key, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                stat.calls += 1
                stat.self_ns += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if watch_miss:
                self._solve_lp_done(args, kwargs, out, orig.cache_info().misses > before)
            else:
                post(key, args, kwargs, out)
            return out

        traced.__wrapped__ = orig
        traced.ncvxbench_traced = True
        return traced

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.targets.items()}
        originals = {id(fn): fn for fn in self.targets.values()}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is originals[id(obj)]:
                    self.rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, orig in self.rebound:
            setattr(mod, attr, orig)
        self.rebound_count = len(self.rebound)
        self.rebound = []

    def leftovers(self) -> list:
        """Module attributes that are still wrappers; empty after a clean
        `uninstall`."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in self.modules
            for attr, obj in vars(mod).items()
            if getattr(obj, "ncvxbench_traced", False)
        ]

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures, named `<module>.<fn>.<what>`."""
        st = self.stats
        sec = lambda ns: ns / 1e9
        out = {}

        def cached_fn(key, what):
            calls = st[key].calls
            out[f"{key}.calls"] = calls
            if "solves" in what:
                out[f"{key}.solves"] = self.misses[key]
            if "hit_ratio" in what:
                looked = self.hits[key] + self.misses[key]
                out[f"{key}.hit_ratio"] = self.hits[key] / looked if looked else 0.0
            if "self_s" in what:
                out[f"{key}.self_s"] = sec(st[key].self_ns)

        for name in ("solve_lp", "strict_feasible"):
            cached_fn(f"lp.{name}", ("solves", "hit_ratio", "self_s"))
        for what in ("rows", "cols", "infeasible", "unbounded"):
            out[f"lp.solve_lp.{what}"] = self.counts.get(f"lp.solve_lp.{what}", 0)

        cf = "polyhedron.canonical_form"
        cached_fn(cf, ("solves", "self_s"))
        solves = self.misses[cf]
        under = self.counts.get(f"lp_solves_under.{cf}", 0)
        out[f"{cf}.lp_per_solve"] = under / solves if solves else 0.0
        for name, extra in (
            ("project_mixed", "rows_out"),
            ("to_vrep", "generators_out"),
            ("to_hrep", None),
            ("subtract_cells", "cells_out"),
        ):
            key = f"polyhedron.{name}"
            cached_fn(key, ("self_s",))
            if extra:
                out[f"{key}.{extra}"] = self.counts.get(f"{key}.{extra}", 0)
        dm = "polyhedron.decompose_mixed"
        cached_fn(dm, ("solves",))
        out[f"{dm}.pieces_out"] = self.counts.get(f"{dm}.pieces_out", 0)

        for layer in MODULE_LAYERS:
            keys = [k for k in st if k.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(st[k].calls for k in keys)
            out[f"{layer}.self_s"] = sec(sum(st[k].self_ns for k in keys))

        json_keys = [k for k in st if k.startswith("jsonio.")]
        parse = [k for k in json_keys if k.endswith("_from_json") or k.endswith("_from_text") or k == "jsonio.load_json_file"]
        emit = [k for k in json_keys if k.endswith("_to_json") or k == "jsonio.dumps"]
        out["jsonio.parse_s"] = sec(sum(st[k].self_ns for k in parse))
        out["jsonio.emit_s"] = sec(sum(st[k].self_ns for k in emit))
        out["jsonio.bytes_in"] = self.counts.get("jsonio.bytes_in", 0)
        out["jsonio.bytes_out"] = self.counts.get("jsonio.bytes_out", 0)
        out["cli.main.self_s"] = sec(st["cli.main"].self_ns)
        out["oracle.check_self_s"] = sec(sum(st[f"oracle.{n}"].self_ns for n in ORACLE_CHECK))
        out["oracle.gen_self_s"] = sec(sum(st[f"oracle.{n}"].self_ns for n in ORACLE_GEN))
        return out

    def traced_s(self) -> float:
        """Self time summed over every traced function."""
        return sum(s.self_ns for s in self.stats.values()) / 1e9
