"""Smoke test: the demos that print the Debye polynomials, the degeneracy
polynomials, the zero-temperature energies and the high-temperature series
run to completion, and every name a demo, tool or perfbench script takes
from the library exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_special_functions.py", "02_mode_degeneracies.py",
                                    "03_zero_temperature.py",
                                    "04_high_temperature_classical.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _imported_names(path):
    """Dotted name of everything a script takes from casimir_spheres.

    ``from casimir_spheres[.mod] import name`` gives ``casimir_spheres[.mod].name``;
    ``alias.attr`` gives ``<that name>.attr`` when ``alias`` was bound by such an
    import or by ``import casimir_spheres[.mod] as alias``.
    """
    tree = ast.parse(path.read_text(), str(path))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "casimir_spheres":
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "casimir_spheres":
                    names.add(a.name)
                    # `import a.b` binds a; `import a.b as c` binds a.b
                    root = a.name.split(".")[0]
                    aliases[a.asname or root] = a.name if a.asname else root
    names.update(aliases.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.add(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(names)


def _resolve(dotted):
    """The object a dotted name denotes, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part) if hasattr(obj, part) else \
            importlib.import_module(".".join(parts[:i]))
    return obj


SCRIPTS = sorted(p.relative_to(ROOT).as_posix() for d in ("demos", "tools", "perfbench")
                 for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_resolve(script):
    # Demos 05 and 06 take seconds each and are not run here, so a name the
    # library drops would break them silently; perfbench imports private modules.
    for dotted in _imported_names(ROOT / script):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            pytest.fail(f"{script}: {dotted} does not resolve")
