"""The package's modules import one another without a cycle, and nothing
outside the standard library; each public name is declared in one module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vvmf3"


def _import_graph() -> dict[str, set[str]]:
    """Module -> sibling modules it imports, function-local imports included."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_import_graph_is_acyclic() -> None:
    graph = _import_graph()
    assert {"reps", "valuation", "cli"} <= graph.keys()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle: {' -> '.join(path + (module,))}"
        if module in done:
            return
        for dep in sorted(graph.get(module, ())):
            visit(dep, path + (module,))
        done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_package_imports_only_the_standard_library() -> None:
    imported = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert {"fractions", "math"} <= imported.keys()
    outside = {m: f for m, f in imported.items() if m not in sys.stdlib_module_names}
    assert not outside, f"imports outside the standard library: {outside}"


def test_each_public_name_is_declared_in_one_module() -> None:
    declared: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                for name in ast.literal_eval(node.value):
                    declared.setdefault(name, []).append(path.stem)
    assert {"verify_formula", "ubd_criterion"} <= declared.keys()
    twice = {name: modules for name, modules in declared.items() if len(modules) > 1}
    assert not twice, f"names in more than one module's __all__: {twice}"
