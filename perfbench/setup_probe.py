"""Prints the CPU seconds this fresh process spends importing skregion and loading a .dist file.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py <file.dist>

CPU time rather than wall time: on a shared host the wall time of a fraction
of a second mostly measures how long the process waited for a processor.
"""

import sys
import time

c0 = time.process_time()
import skregion  # noqa: E402,F401
from skregion.cli import load_distribution  # noqa: E402

load_distribution(sys.argv[1])
print(repr(time.process_time() - c0))
