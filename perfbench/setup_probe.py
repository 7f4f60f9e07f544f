"""One set-up measurement in a fresh interpreter.

Usage: python perfbench/setup_probe.py WORKLOAD SEED

Imports ``iobspectra`` from the checkout's ``src``, runs the workload's
first operation once, and prints the CLOCK_MONOTONIC time at which that
warm-up ended.  The parent subtracts the time it started this process.
"""

import os
import sys
import time

import run

prog = run.load_program(os.getcwd())
workload = run.WORKLOADS[sys.argv[1]]
workload.run(prog, workload.make_input(int(sys.argv[2]), 0))
print(repr(time.monotonic()))
