"""The modules follow the layers of the mathematics.

Each module of the package may import only the modules below it:

    exact_chain < operad_core < associahedra < coalgebra_operad
        < ox_construction,

`hochschild_lab` rests on `exact_chain` and `operad_core` alone, and
`cli_report` sits on top of everything.  The imports are read from the
source with `ast`, including imports inside functions.

Every other module keeps integer coefficients as `int`, so only the two
modules that divide may import `fractions`.

The span boundaries of the benchmark's tracer (`perfbench/tracing.py`)
name functions and methods of these modules; they must keep resolving.
Every top-level function and class is used by the source or is such a
boundary: code that only the tests run lives in the tests.

No module gains a module-global memo table beyond the declared ones,
either bound to a module-level name or held by a module-level instance of
a package class.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "operadlab"

CHAIN = ("exact_chain", "operad_core", "associahedra", "coalgebra_operad",
         "ox_construction")

#: module -> the package modules it may import
ALLOWED = {m: set(CHAIN[:i]) for i, m in enumerate(CHAIN)}
ALLOWED["hochschild_lab"] = {"exact_chain", "operad_core"}
ALLOWED["cli_report"] = set(ALLOWED) - {"cli_report"}


def package_imports(path: Path) -> set:
    """The package modules that the source file at `path` imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif node.module and node.module.split(".")[0] == "operadlab":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x, from operadlab import x
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "operadlab" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    got = package_imports(PACKAGE / f"{module}.py")
    assert got <= ALLOWED[module], \
        f"{module} imports {sorted(got - ALLOWED[module])} from above its layer"


def perfbench_boundaries():
    """The tracer's (span name, module, attribute path) triples, read from
    its source without installing it or registering it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


def test_perfbench_boundaries_resolve():
    boundaries = perfbench_boundaries()
    assert boundaries
    for name, module, path in boundaries:
        obj = importlib.import_module("operadlab." + module)
        *owners, attr = path.split(".")
        for part in owners:
            obj = getattr(obj, part)
        # a method is replaced on its own class, so it must be defined there
        found = vars(obj).get(attr) if owners else getattr(obj, attr, None)
        assert callable(found), (name, path)


#: the 𝒢 -> ℬ∞ maps, which no report runs yet; ROADMAP.md item 1 puts
#: them in the report
UNUSED_BY_SOURCE = {"holie_map", "holie_vanishing", "to_B"}


def read_names(node) -> set:
    """The names that a statement reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_used_by_the_source():
    statements = [(path.stem, node, read_names(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    traced = {(module, path.split(".")[0])
              for _, module, path in perfbench_boundaries()}
    # a definition counts as used when another top-level statement reads it
    unused = [f"{module}.{node.name}" for module, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and (module, node.name) not in traced
              and node.name not in UNUSED_BY_SOURCE
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert unused == []


#: the module that divides: every division goes through `exact_chain.exact_div`
DIVIDING = {"exact_chain"}


def test_only_the_dividing_modules_import_fractions():
    got = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                got.add(path.stem)
    assert got <= DIVIDING, sorted(got - DIVIDING)


#: the module-global memo tables that are left, until ROADMAP.md item 13
#: moves them into one run context; a new table belongs on an object
MODULE_MEMOS = {"associahedra._complexes", "associahedra._mu",
                "ox_construction._b_relations", "ox_construction.phi1_tree",
                "ox_construction.phi_rank"}


def is_cache(node) -> bool:
    """Whether an expression is `functools.cache`, `cache`, `lru_cache`,
    or a call of one (`lru_cache(maxsize=None)`, `cache(f)`)."""
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def module_memos(path: Path) -> set:
    """The module-level names of a source file bound to an empty dict or to
    a cache, and its functools-cached functions."""
    out = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and (
                isinstance(node.value, ast.Dict) and not node.value.keys
                or is_cache(node.value)):
            targets = getattr(node, "targets", None) or [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.FunctionDef) and any(
                map(is_cache, node.decorator_list)):
            out.add(node.name)
    return {f"{path.stem}.{name}" for name in out}


#: the memo tables held by module-level objects, until ROADMAP.md item 13
#: moves them into the same run context
INSTANCE_MEMOS = {"ox_construction.diff._values",
                  "ox_construction.A_CONTEXT._deletions"}


def instance_memos(module: str) -> set:
    """The dict attributes of the module-level instances of package classes
    in an imported module, as module.name.attribute."""
    out = set()
    namespace = vars(importlib.import_module(f"operadlab.{module}"))
    for name, obj in namespace.items():
        cls = type(obj)
        if isinstance(obj, type) or \
                not cls.__module__.startswith("operadlab."):
            continue
        attrs = dict(getattr(obj, "__dict__", {}))
        attrs.update((slot, getattr(obj, slot)) for owner in cls.__mro__
                     for slot in getattr(owner, "__slots__", ())
                     if hasattr(obj, slot))
        out.update(f"{module}.{name}.{attr}" for attr, value in attrs.items()
                   if isinstance(value, dict))
    return out


def test_no_new_module_global_memo():
    got = set().union(*map(module_memos, PACKAGE.glob("*.py")))
    assert got == MODULE_MEMOS
    held = set().union(*map(instance_memos, ALLOWED))
    assert held == INSTANCE_MEMOS
