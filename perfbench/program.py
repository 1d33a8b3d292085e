"""Locate and import the program under test from the checkout's ``src``.

The benchmark never uses an installed copy: the checkout it sits in is
the code being measured.  Without that source it stops with an error.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("hypergraph", "construction", "geometry", "arithmetic", "cli")


class Program:
    """The program's modules, imported from ``src``."""

    def __init__(self):
        init = SRC / "chromarect" / "__init__.py"
        if not init.is_file():
            raise SystemExit(f"perfbench: program source not found: {init}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        package = importlib.import_module("chromarect")
        if Path(package.__file__).resolve() != init.resolve():
            raise SystemExit(f"perfbench: imported {package.__file__}, not {init}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"chromarect.{name}"))

    def package_modules(self) -> list:
        """Every loaded ``chromarect`` module, for patching all names."""
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "chromarect" or name.startswith("chromarect."))
        ]

    def fingerprint(self) -> str:
        """sha256 over the program's source files, to key determinism records."""
        h = hashlib.sha256()
        for path in sorted((SRC / "chromarect").rglob("*.py")):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()
