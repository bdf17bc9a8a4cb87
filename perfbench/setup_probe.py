"""Set-up probe: start the interpreter, import idfilt, parse the spec files
given on stdin (separated by NUL characters), and exit.  run.py times this
process from launch to exit.  It imports none of the benchmark's modules,
so that only idfilt's own set-up is timed.

    python3 perfbench/setup_probe.py <idfilt source dir> <workload> < specs
"""

import sys

sys.path.insert(0, sys.argv[1])
import idfilt  # noqa: E402,F401
from idfilt.specfile import parse_spec  # noqa: E402

if sys.argv[2] == "verify_corpus":  # the workload whose ops are verify suites
    import idfilt.verify  # noqa: F401
for text in sys.stdin.read().split("\0"):
    if text:
        parse_spec(text)
