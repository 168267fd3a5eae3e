"""Print the set-up time of one workload, in reference seconds, measured in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

import sys

from run import timed_setup

if __name__ == "__main__":
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(timed_setup(name, seed, smoke)[1])
