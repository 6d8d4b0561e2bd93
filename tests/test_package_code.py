"""Every top-level function and class in src/dgcf is used outside tests/.

Code that only tests call belongs in tests/ (an oracle goes to helpers.py).
A name counts as used when package code other than its own definition,
scripts/ or perfbench/ refers to it: as a name, an attribute of a dgcf
module, an import, or a string that is exactly the name (perfbench's TARGETS
table).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgcf"

# Definitions allowed to have only tests as callers, with the reason.
EXEMPT = {
    "dgcf.baselines.lightgcn_forward": "perfbench/spans.py imports dgcf.baselines without a "
                                       "guard, so the module stays until the benchmark changes",
}


def is_package(module: str | None, level: int) -> bool:
    return level > 0 or (module or "").split(".")[0] == "dgcf"


def references(tree: ast.Module) -> list[set[str]]:
    """Per top-level node of tree, the names it refers to. An attribute counts
    only on a name bound to a dgcf module, so `metrics.recall_at_k` is not a
    use of a function recall_at_k."""
    modules = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and is_package(sub.module, sub.level):
            modules |= {a.asname or a.name for a in sub.names}  # may be modules; harmless
        elif isinstance(sub, ast.Import):
            modules |= {a.asname for a in sub.names if a.asname and is_package(a.name, 0)}
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
