"""Entry point: ``python3 benchmarks/nfbench/__main__.py`` (what
``BENCHMARK.json`` runs) or ``PYTHONPATH=src python -m benchmarks.nfbench``.

Both put the repository root and ``src/`` on ``sys.path`` themselves, so
the command needs no environment; run as a script, the benchmark's own
directory is taken off the path again so its module names cannot shadow
the standard library's.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path[:] = [entry for entry in sys.path
               if os.path.abspath(entry or os.getcwd()) != _HERE]
for entry in (os.path.join(_ROOT, "src"), _ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.nfbench.cli import main  # noqa: E402 (path set up above)

if __name__ == "__main__":
    sys.exit(main())
