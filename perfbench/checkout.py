"""Locations inside the checkout the benchmark runs from."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def has_sources() -> bool:
    return (SRC / "holring" / "__init__.py").is_file()


def use_checkout_sources():
    """Import holring from this checkout's src/, never from an installed copy."""
    if not has_sources():
        raise SystemExit(f"perfbench: no holring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import holring

    if Path(holring.__file__).resolve().parent != SRC / "holring":
        raise SystemExit(f"perfbench: holring imported from {holring.__file__}, not {SRC}")
