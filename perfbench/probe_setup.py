"""Print the set-up time of one workload, measured in this fresh interpreter.

Usage: ``python3 perfbench/probe_setup.py <workload> <seed>``.  ``run.py``
starts it a few times so that ``setup_s`` includes the import cost every
time, not only in its own first set-up.
"""

import sys

import harness

if __name__ == "__main__":
    print(repr(harness.setup(sys.argv[1], int(sys.argv[2]))[2]))
