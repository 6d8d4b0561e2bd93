"""Every top-level function and class in src/dgcf is used outside tests/.

Code that only tests call belongs in tests/ (an oracle goes to helpers.py).
A name counts as used when package code other than its own definition,
scripts/ or perfbench/ refers to it: as a name, an attribute of a dgcf
module, an import, or a string that is exactly the name (perfbench's TARGETS
table). And every dgcf name that perfbench imports or reads exists.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgcf"

# Definitions allowed to have only tests as callers, with the reason.
EXEMPT: dict[str, str] = {}


def is_package(module: str | None, level: int) -> bool:
    return level > 0 or (module or "").split(".")[0] == "dgcf"


def package_bindings(tree: ast.Module) -> dict[str, str]:
    """Each name an import in tree binds to dgcf or to a name in it, with the
    dotted path it stands for: `from dgcf import train` binds train to
    dgcf.train, `import dgcf.cli` binds dgcf to dgcf. A relative import's
    path starts with its dots."""
    bound = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and is_package(sub.module, sub.level):
            base = "." * sub.level + (sub.module + "." if sub.module else "")
            bound |= {a.asname or a.name: base + a.name for a in sub.names}
        elif isinstance(sub, ast.Import):
            bound |= {a.asname or a.name.split(".")[0]: a.name if a.asname else "dgcf"
                      for a in sub.names if is_package(a.name, 0)}
    return bound


def references(tree: ast.Module) -> list[set[str]]:
    """Per top-level node of tree, the names it refers to. An attribute counts
    only on a name bound to dgcf or a name in it (may be a function;
    harmless), so `metrics.recall_at_k` is not a use of a function
    recall_at_k."""
    modules = set(package_bindings(tree))
    out = []
    for node in tree.body:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id in modules:
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom) and is_package(sub.module, sub.level):
                found |= {a.name for a in sub.names}
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
        out.append(found)
    return out


def test_src_has_no_test_only_code():
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside = outside.union(*references(ast.parse(path.read_text(encoding="utf-8"))))
    nodes, definitions = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, refs in zip(tree.body, references(tree)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"dgcf.{path.stem}.{node.name}", node.name, len(nodes)))
            nodes.append(refs)
    unused = [qualname for qualname, name, own in definitions
              if name not in outside.union(*nodes[:own], *nodes[own + 1:])]
    assert unused == sorted(EXEMPT), "only tests use these; move them to tests/"


def resolves(path: str) -> bool:
    """Whether the dotted path is a module or an attribute of one."""
    try:
        importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return bool(module) and resolves(module) and hasattr(sys.modules[module], attr)
    return True


def test_perfbench_reads_only_names_that_exist():
    # every `from dgcf... import name` and `<dgcf module>.attr` in perfbench:
    # a refactor that breaks one fails here, not in the benchmark run.
    # TARGETS' strings are not checked: a missing one is skipped on purpose
    missing = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = package_bindings(tree)
        names = set(bound.values()) | {
            f"{bound[sub.value.id]}.{sub.attr}" for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            and sub.value.id in bound}
        missing += [f"{path.name}: {name}" for name in sorted(names) if not resolves(name)]
    assert missing == []


def scipy_imports(tree: ast.Module) -> set[str]:
    """The scipy modules that import statements anywhere in tree name, in
    functions and under TYPE_CHECKING too: `import scipy.sparse as sp` and
    `from scipy import sparse` both name scipy.sparse."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            names |= {a.name for a in sub.names}
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0 and sub.module:
            names |= {sub.module} | {f"{sub.module}.{a.name}" for a in sub.names}
    return {name for name in names if name.split(".")[0] == "scipy"}


def test_only_training_imports_scipy_packages():
    # no path of the package needs scipy.sparse's package init, which took a
    # cold process 120-200 ms on a 2-core host: graph.sparse_kernel loads the
    # compiled kernels from their extension module. Only training needs
    # scipy.special
    found = {path.name: scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}

    def importers(package: str) -> list[str]:
        return [f"{file}: {name}" for file, names in found.items() for name in sorted(names)
                if name == package or name.startswith(package + ".")]

    assert importers("scipy.sparse") == []
    assert {entry.split(":")[0] for entry in importers("scipy.special")} == {"train.py"}
