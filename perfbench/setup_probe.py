"""Set-up work of one CLI user, timed from outside by ``run.py``.

    python3 perfbench/setup_probe.py PROBLEM.json [PROBLEM.json ...]

Starts cold, imports ``monoweb.cli`` from the checkout's ``src/`` and loads
every problem file given; exits 0 when all of them load.
"""

import os
import sys

# the BLAS thread settings come from run.py's environment
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from monoweb import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.load_problem(path)
