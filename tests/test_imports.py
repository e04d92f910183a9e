"""No module under ``src/blsces`` imports a name it does not use, and
every module is imported.

No linter runs in CI, so this parses each module and compares the names
its imports bind with the names it reads.  A name listed in the
module's ``__all__`` counts as read: the package re-exports it.  A
module that no other module imports, and that is neither the package
nor the console script's, is dead code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blsces"

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


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(tree: ast.Module) -> set[str]:
    """The dotted names a module's imports name: each ``import a.b``, and
    for ``from a.b import c`` both a.b and a.b.c, which is a module when
    c is one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def console_script_modules() -> set[str]:
    """The modules ``[project.scripts]`` in pyproject.toml points at."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {line.split("=", 1)[1].strip().strip('"').split(":")[0] for line in section.splitlines() if "=" in line}


def test_every_module_is_imported():
    modules = {module_name(path): path for path in sorted(SRC.rglob("*.py"))}
    imported = set()
    for name, path in modules.items():
        imported |= imported_modules(ast.parse(path.read_text(), str(path))) - {name}
    roots = {"blsces"} | console_script_modules()
    assert roots <= set(modules), roots
    orphans = set(modules) - imported - roots
    assert not orphans, f"modules nothing imports: {sorted(orphans)}"
