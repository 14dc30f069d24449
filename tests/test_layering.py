"""The package's modules import one another without a cycle."""

import ast
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
