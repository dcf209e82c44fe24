"""Host-time benchmark for the MAVBench reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
flies one benchmark run and prints its metrics as the last line of
standard output; see ``perfbench/README.md``.
"""
