"""The runtime is numpy-only and lean: no module pulls in a test-only package or imports a name it never uses."""

import ast
import importlib.util
import os
import subprocess
import sys

import moltext
import moltext.data


def test_every_module_imports_without_test_only_packages():
    package = os.path.dirname(moltext.__file__)
    modules = sorted(f"moltext.{name[:-3]}" for name in os.listdir(package) if name.endswith(".py"))
    script = (
        f"import importlib, sys\n"
        f"for name in {modules!r}:\n"
        f"    importlib.import_module(name)\n"
        f"print(sorted({{'scipy', 'pytest', 'hypothesis'}} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(package)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert len(modules) > 10 and "moltext.cli" in modules
    assert done.stdout.strip() == "[]"


def test_no_module_imports_a_name_it_never_uses():
    # an import whose first line carries "# noqa: F401" is a deliberate re-export
    package = os.path.dirname(moltext.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{node.lineno}: {bound}")
    assert unused == []


def _python_files(*dirs):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for top in dirs:
        for folder, _, names in os.walk(os.path.join(root, top)):
            yield from (os.path.join(folder, name) for name in sorted(names) if name.endswith(".py"))


def test_every_definition_is_named_somewhere_else():
    # a name counts wherever it is read, imported, or spelled as a string (perfbench patches by name)
    defined, named = {}, set()
    for path in _python_files("src", "tests", "demos", "perfbench"):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if os.sep + os.path.join("src", "moltext") + os.sep in path:
                    defined.setdefault(node.name, f"{os.path.basename(path)}:{node.lineno}")
                continue
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None)
            named.add(name)
    dead = [f"{where}: {name}" for name, where in sorted(defined.items())
            if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []


def test_the_benchmark_tracer_patches_and_restores_every_name_it_wraps():
    # perfbench records spans by replacing moltext names in place; a src change that deletes or renames one
    # of them makes entering the tracer raise here, not only in the benchmark's own smoke run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = moltext.data.parse_smiles
    with tracing.installed(tracing.Recorder()) as recorder:
        assert moltext.data.parse_smiles is not before
        moltext.data.parse_smiles("CC")
    assert moltext.data.parse_smiles is before
    assert recorder.summary()["chem.parse"]["calls"] == 1
