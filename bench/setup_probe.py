"""Time one fresh interpreter's set-up: importing dwpcheck from SRC and
loading the given spec files. Prints the seconds as the only output line.

Usage: python3 setup_probe.py SRC SPEC [SPEC ...]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dwpcheck.specfile import load_spec  # noqa: E402

for path in sys.argv[2:]:
    load_spec(path)
print(repr(time.perf_counter() - start))
