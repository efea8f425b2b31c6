"""Import rules of the package, read from its source without importing it.

No module imports another rica module's underscore (private) name, no
module imports scipy, which is a test-only dependency, and no module keeps
global state: no `logging` import, no module-level dict, list or set.
The lower layers import few rica modules: `random_features` none, and
`contrast_engine` only `errors` and `random_features`.
There is one fit path: `minimize_contrast` is called only by
`evaluation.fit_unmixing`, and a `BenchmarkConfig` is built only by
`cli._bench_config`. Every command-line option of `cli` is read as
`args.<dest>`.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rica").glob("*.py"))
MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
# the rica modules each lower layer may import
LAYERS = {"random_features": set(), "contrast_engine": {"errors", "random_features"}}


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


def _layer_violations(path: Path, allowed: set[str]) -> list[str]:
    """Each rica module a source file imports, by relative or absolute name, beyond `allowed`."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            imported |= {parts[1] for parts in names if parts[0] == "rica" and len(parts) > 1}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "rica":
                    continue
                parts = parts[1:]
            # `from . import x` and `from rica import x` name the modules themselves
            imported |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
    return [f"{path.name}:imports {module}" for module in sorted(imported - allowed)]


def test_lower_layers_import_only_what_they_may():
    layers = [path for path in SOURCES if path.stem in LAYERS]
    assert sorted(path.stem for path in layers) == sorted(LAYERS)
    assert [v for path in layers for v in _layer_violations(path, LAYERS[path.stem])] == []


def test_the_layer_check_sees_every_form_of_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nfrom .errors import SampleMismatch\n"
                   "from .data_model import Dataset\nfrom . import optimizer\n"
                   "import rica.cli\nfrom rica.evaluation import fit_unmixing\n"
                   "from rica import audio\n")
    assert _layer_violations(bad, LAYERS["contrast_engine"]) == [
        "bad.py:imports audio", "bad.py:imports cli", "bad.py:imports data_model",
        "bad.py:imports evaluation", "bad.py:imports optimizer"]


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


def _unread_options(path: Path) -> list[str]:
    """Each `add_argument` option (but --version) whose dest is never read as `args.<dest>`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    unread = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and node.args):
            continue
        option = node.args[0].value
        dest = next((kw.value.value for kw in node.keywords if kw.arg == "dest"),
                    option.lstrip("-").replace("-", "_"))
        if option != "--version" and dest not in read:
            unread.append(option)
    return unread


def test_every_cli_option_is_read():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert _unread_options(cli) == []


def test_the_option_check_sees_an_unread_option(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def build(p):\n"
                   "    p.add_argument('--version', action='version')\n"
                   "    p.add_argument('--in', dest='infile')\n"
                   "    p.add_argument('--out-model')\n"
                   "    p.add_argument('--list', action='store_true')\n"
                   "def run(args):\n"
                   "    return args.infile, args.out_model\n")
    assert _unread_options(bad) == ["--list"]
