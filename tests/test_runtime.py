"""The runtime is numpy-only: no moltext module pulls in a test-only package."""

import os
import subprocess
import sys

import moltext


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
