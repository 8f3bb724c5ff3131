"""Entry point: ``python3 benchmarks/ledger/__main__.py`` (what
``BENCHMARK.json`` names) or ``python -m benchmarks.ledger``.

Puts the checkout's ``src/`` and root on ``sys.path`` itself, so the
command needs no ``PYTHONPATH`` and names no path outside this directory.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit(
            f"benchmarks.ledger: no lock service to measure under "
            f"{os.path.join(_ROOT, 'src')}"
        )
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    from benchmarks.ledger.cli import main

    sys.exit(main())
