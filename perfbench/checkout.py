"""Where the benchmark runs: the checkout root and its ``repro``.

The benchmark imports ``repro`` only from ``src/`` of the checkout
that holds it, never from an installed copy, so a checkout without
``src/repro`` cannot be measured by accident against other code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives here (ignored by git).
OUTPUT = os.path.join(ROOT, ".perfbench")


def has_repro() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_repro():
    """Import ``repro`` from this checkout; ImportError otherwise."""
    if not has_repro():
        raise ImportError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(location) != SRC:
        raise ImportError(f"repro was imported from {location}, "
                          f"not from {SRC}")
    return repro


def child_environment() -> dict:
    """The environment of the processes a run starts: this checkout's
    ``src`` first on the path, and no ``REPRO_*`` switches (fault
    plans, tracing) inherited from the caller."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env
