"""Import rules of the package, read from its source without importing it.

No module imports another rica module's underscore (private) name, no
module imports scipy, which is a test-only dependency, and no module keeps
global state: no `logging` import, no module-level dict, list or set.
There is one fit path: `minimize_contrast` is called only by
`evaluation.fit_unmixing`, and a `BenchmarkConfig` is built only by
`cli._bench_config`.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rica").glob("*.py"))
MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"module-level {type(node.value).__name__.lower()} "
             f"{ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)}"
             for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, MUTABLE)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.level or modules[0].split(".")[0] == "rica":
                found += [f"private name {alias.name}" for alias in node.names
                          if _private(alias.name)]
                found += [f"private module {node.module}" for part in modules[0].split(".")
                          if _private(part)]
        else:
            continue
        found += [f"{m.split('.')[0]} import {m}" for m in modules
                  if m.split(".")[0] in ("scipy", "logging")]
    return [f"{path.name}:{v}" for v in found]


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "optimizer.py", "evaluation.py"}


def test_no_private_cross_module_or_scipy_imports():
    assert [v for path in SOURCES for v in _violations(path)] == []


def test_the_check_sees_both_kinds_of_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .optimizer import _fd_gradient\nimport scipy.linalg\n"
                   "from scipy import linalg\nfrom . import __version__\nimport logging\n"
                   "COUNTS: dict[str, int] = {}\nSEEN = []\nNAMES = ('a', 'b')\n"
                   "def f():\n    local = {}\n")
    assert _violations(bad) == ["bad.py:module-level dict COUNTS", "bad.py:module-level list SEEN",
                                "bad.py:private name _fd_gradient",
                                "bad.py:scipy import scipy.linalg", "bad.py:scipy import scipy",
                                "bad.py:logging import logging"]


def _fit_sites(path: Path) -> list[str]:
    """Each call of `minimize_contrast` or `BenchmarkConfig`, as 'module.function:name'."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("minimize_contrast", "BenchmarkConfig"):
                    sites.append(f"{path.stem}.{scope or '<module>'}:{name}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return sites


def test_one_fit_path():
    sites = [site for path in SOURCES for site in _fit_sites(path)]
    assert sorted(sites) == ["cli._bench_config:BenchmarkConfig",
                             "evaluation.fit_unmixing:minimize_contrast"]


def test_the_fit_path_check_sees_a_second_fit_and_a_stray_config(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def fit(whitened, config):\n"
                   "    return optimizer.minimize_contrast(whitened, config)\n"
                   "def trial(config):\n"
                   "    return BenchmarkConfig(labels=('c', 'c'), m=config.m)\n"
                   "DEFAULT = BenchmarkConfig(labels='rand')\n")
    assert _fit_sites(bad) == ["bad.fit:minimize_contrast", "bad.trial:BenchmarkConfig",
                               "bad.<module>:BenchmarkConfig"]
