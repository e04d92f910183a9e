"""No module under ``src/blsces`` imports a name it does not use.

No linter runs in CI, so this parses each module and compares the names
its imports bind with the names it reads.  A name listed in the
module's ``__all__`` counts as read: the package re-exports it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blsces"

# Imports kept only because perfbench/tracing.py binds them by name; each
# says so where it is imported.
KEPT = {
    ("groups/encoding.py", "check_g2"),
    ("zk/protocol.py", "build_statement"),
    ("zk/statement.py", "encode_claim_message"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert unused <= KEPT, f"unused imports: {sorted(unused - KEPT)}"
    assert KEPT <= unused, f"used now, so no longer kept: {sorted(KEPT - unused)}"
