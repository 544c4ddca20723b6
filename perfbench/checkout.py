"""Locate the checkout this benchmark lives in and import rationd from its
source tree, never from an installed copy."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")


def load_rationd() -> None:
    """Put ``src/`` first on the import path and import rationd from it.

    Exits with a message (status 1) when the checkout holds no rationd
    source, so a stray installed copy can never be measured by mistake.
    """
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "rationd")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no rationd source under {src}")
    sys.path.insert(0, src)
    import rationd

    if os.path.dirname(os.path.abspath(rationd.__file__)) != package:
        raise SystemExit(f"perfbench: imported rationd from {rationd.__file__}, expected {package}")
