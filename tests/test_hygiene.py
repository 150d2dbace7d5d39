"""Dead-code and assert guards for the library, using the stdlib `ast` only.

Rules over `src/ncvx`:

- every top-level function or class is referenced somewhere in `src/` or
  `tests/` outside its own definition;
- one that nothing in `src/ncvx` references is on the `TEST_ONLY` list,
  which may only shrink, so dead library code cannot hide behind its own
  unit tests;
- every module-level import binds a name the module uses;
- no module holds an `assert` statement;
- no more unbounded caches (`lru_cache(maxsize=None)`, `functools.cache`)
  than the 11 the library has now: a ratchet until they are bounded;
- no more call sites of the row and point scalers `_scaled`, `_int_row`
  and `_integer_point` outside `lp.MixedSystem`, which holds its rows as
  integers and is the one place Fraction rows are scaled, than
  `RESCALING` allows per module: a ratchet, so that per-call rescaling of
  rows a system already holds cannot creep back.

Two rules over imports, so that a cold call loads only what it runs: no
module imports numpy at module level (only the oracle's lattice scans use
it), and `cli` imports none of `oracle`, `duality`, `conjugate` and
`variational` at module level (their verb handlers do).

One rule over the command line: every verb path of the parser (`check`,
`map compose`, `conj chain`, `duality fenchel`, ...) is run by some golden
test in `tests/test_cli.py`.

A reference is any `Attribute` node spelling the name, and any `Name`
node spelling it that no enclosing function, lambda or comprehension binds
for itself: a parameter or local variable of the same name is no
reference.  Two definitions with the same name in different modules count
as one.
"""

import argparse
import ast
from pathlib import Path

from ncvx import cli

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ncvx"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope) -> set:
    """The names a function, lambda or comprehension binds for itself: its
    parameters or comprehension targets, and each name stored, imported,
    defined or caught in its own body, less those declared global."""
    if isinstance(scope, _COMPREHENSIONS):
        todo = [g.target for g in scope.generators]
        bound = set()
    else:
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        bound = {a.arg for a in params if a is not None}
        todo = scope.body if isinstance(scope.body, list) else [scope.body]
    todo, declared = list(todo), set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _names_used(nodes, shadowed=frozenset()) -> list:
    """Every identifier read through an Attribute below nodes, and through
    a Name that is not in shadowed or bound by an enclosing function,
    lambda or comprehension below nodes (_local_names).  Decorators,
    defaults and annotations are read in the enclosing scope."""
    out = []
    todo = [(node, shadowed) for node in nodes]
    while todo:
        node, hidden = todo.pop()
        if isinstance(node, _FUNCTIONS):
            outer = [node.args, *getattr(node, "decorator_list", ())]
            outer += [node.returns] if getattr(node, "returns", None) else []
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = hidden | _local_names(node)
            todo += [(n, hidden) for n in outer] + [(n, inner) for n in body]
            continue
        if isinstance(node, _COMPREHENSIONS):
            hidden = hidden | _local_names(node)
        elif isinstance(node, ast.Name) and node.id not in hidden:
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        todo += [(child, hidden) for child in ast.iter_child_nodes(node)]
    return out


def _library_modules() -> list:
    return sorted(LIBRARY.glob("*.py"))


# definitions that tests use as helpers or pin, with no caller in the
# library; a name leaves the list when it gains a caller or is deleted
TEST_ONLY = {
    "conjugate.biconjugate",
    "linalg.rank",
    "ncset.minkowski_sum",
    "ncset.set_equal",
    "oracle.registered_theorems",
    "plfunc.affine_function",
    "plfunc.const_function",
    "plfunc.from_epigraphical",
    "plfunc.indicator",
    "polyhedron.box",
    "polyhedron.vrep_contains",
    "svmap.const_map",
    "svmap.rge",
    "svmap.ri_graph",
}


def _unreferenced(folders, library_dir=LIBRARY) -> set:
    """module.name of each top-level definition in library_dir that no file
    below folders references outside the definition itself."""
    trees = {
        path: _parse(path)
        for folder in folders
        for path in sorted(folder.rglob("*.py"))
    }
    library = set(library_dir.glob("*.py"))
    defs = []  # (module, definition node)
    used: dict[str, int] = {}
    for path, tree in trees.items():
        for name in _names_used([tree]):
            used[name] = used.get(name, 0) + 1
        if path in library:
            defs += [
                (path.stem, node)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ]
    unreferenced = set()
    for module, node in defs:
        # references inside a definition's own body do not keep it alive
        inside = _names_used([node]).count(node.name)
        if used.get(node.name, 0) - inside <= 0:
            unreferenced.add(f"{module}.{node.name}")
    return unreferenced


def test_every_top_level_definition_is_referenced():
    assert _unreferenced([ROOT / "src", ROOT / "tests"]) == set()


def test_a_local_name_does_not_reference_a_definition(tmp_path):
    # parameters, local variables, comprehension targets, lambda parameters
    # and caught exceptions spelled like a definition do not keep it alive;
    # a call, an attribute, a default, a closure's read of a global, an
    # assignment under `global`, and a read in a scope that does not bind
    # the name, though a nested function does, all do
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "mod.py").write_text(
        """
def dead_param(): pass
def dead_local(): pass
def dead_comp(): pass
def dead_lambda(): pass
def dead_caught(): pass
def dead_global_target(): pass
def called(): pass
def by_attribute(): pass
def by_closure(): pass
def by_default(): pass
def shadowed_inside(): pass

def user(dead_param, flag=by_default):
    dead_local = [dead_comp for dead_comp in dead_param]
    f = lambda dead_lambda: dead_lambda
    try:
        called()
    except ValueError as dead_caught:
        return dead_caught, dead_local, f

    def inner():
        shadowed_inside = 1
        return by_closure(), shadowed_inside

    return inner, shadowed_inside

def setter():
    global dead_global_target
    dead_global_target = 1
"""
    )
    (tmp_path / "use.py").write_text("import lib.mod as m\nm.by_attribute\nm.user, m.setter\n")
    assert _unreferenced([tmp_path], lib) == {
        "mod.dead_param",
        "mod.dead_local",
        "mod.dead_comp",
        "mod.dead_lambda",
        "mod.dead_caught",
    }


def test_definitions_without_a_library_caller_are_listed():
    found = _unreferenced([LIBRARY])
    assert sorted(found - TEST_ONLY) == [], "give it a caller or delete it"
    assert sorted(TEST_ONLY - found) == [], "take it off TEST_ONLY"


def test_every_module_level_import_is_used():
    unused = []
    for path in _library_modules():
        tree = _parse(path)
        imports = [
            node
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        ]
        rest = [node for node in tree.body if node not in imports]
        names = set(_names_used(rest))
        # string annotations such as "PolyCone" name their type in a constant
        names |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for node in imports:
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in names:
                    unused.append(f"{path.stem}: {bound}")
    assert unused == []


def test_no_assert_in_certificate_checks():
    # `python -O` strips assert statements; certificates, invariants and
    # oracle checks must raise an NcvxError, which a theorem suite records
    # as a failure in every mode
    found = []
    for path in _library_modules():
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _import_time_names(tree: ast.Module) -> set:
    """Each dotted part of what the import statements outside function
    bodies name: `from .oracle import x` and `from . import oracle` both
    give `oracle`, `import numpy as np` gives `numpy`."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                found.update(f"{module}.{alias.name}".split("."))
        elif not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_heavy_layers_are_imported_where_they_are_used():
    numpy_at_import = [
        path.stem for path in _library_modules() if "numpy" in _import_time_names(_parse(path))
    ]
    assert numpy_at_import == [], "import numpy in the function that scans"
    # with numpy unbound at module level, an annotation cannot name it
    annotations = [
        node.annotation if isinstance(node, ast.arg) else node.returns
        for path in _library_modules()
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.arg, ast.FunctionDef))
    ]
    named = {
        n.id for a in annotations if a is not None for n in ast.walk(a) if isinstance(n, ast.Name)
    }
    assert named & {"np", "numpy"} == set()
    verb_layers = {"oracle", "duality", "conjugate", "variational"}
    found = _import_time_names(_parse(LIBRARY / "cli.py")) & verb_layers
    assert found == set(), "import it in the verb handler"


def _is_unbounded_cache(decorator) -> bool:
    """`cache`, `functools.cache`, or `lru_cache` called with maxsize None."""
    if isinstance(decorator, (ast.Name, ast.Attribute)):
        return getattr(decorator, "id", getattr(decorator, "attr", None)) == "cache"
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    if getattr(func, "id", getattr(func, "attr", None)) != "lru_cache":
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_unbounded_caches_do_not_grow():
    # each one holds every distinct argument for the life of the process;
    # the limit falls as they are bounded or scoped, and never rises
    found = [
        f"{path.name}:{node.lineno}"
        for path in _library_modules()
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_unbounded_cache, node.decorator_list))
    ]
    assert len(found) <= 11, found


# call sites of the scalers outside lp.MixedSystem, per module and name;
# a count may only fall, and is lowered when a call site goes.  lp scales
# each LP's cost vector; the others scale a point once for many checks.
SCALERS = {"_scaled", "_int_row", "_integer_point"}
RESCALING = {
    "lp._scaled": 1,
    "ncset._integer_point": 1,
    "plfunc._integer_point": 1,
    "polyhedron._integer_point": 1,
}


def test_rows_are_not_rescaled_per_call():
    found: dict[str, int] = {}
    for path in _library_modules():
        tree = _parse(path)
        kept = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and f"{path.stem}.{node.name}" == "lp.MixedSystem"
        ]
        inside = {id(n) for top in kept for n in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in SCALERS:
                key = f"{path.stem}.{name}"
                found[key] = found.get(key, 0) + 1
    over = {k: v for k, v in found.items() if v > RESCALING.get(k, 0)}
    assert over == {}, "read MixedSystem.rows, or scale the point once"
    assert found == RESCALING, "a call site went: lower its count"


def _verb_paths(parser, prefix=()) -> list:
    """Every verb path below parser: subcommand names, and the choices of
    a positional that has them (the duality schemes)."""
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out += _verb_paths(child, prefix + (name,)) or [prefix + (name,)]
        elif not action.option_strings and action.choices:
            out += [prefix + (choice,) for choice in action.choices]
    return out


def test_every_verb_is_run_by_a_golden_cli_test():
    tree = _parse(ROOT / "tests" / "test_cli.py")
    argvs = []  # the leading string arguments of each run(...) call
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "run"
        ):
            words = []
            for arg in node.args:
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    break
                if not arg.value.startswith("-"):
                    words.append(arg.value)
            argvs.append(tuple(words))
    paths = _verb_paths(cli._parser())
    assert len(paths) > 20
    missing = [
        " ".join(path)
        for path in paths
        if not any(argv[: len(path)] == path for argv in argvs)
    ]
    assert missing == []
