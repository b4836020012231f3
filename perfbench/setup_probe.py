"""One set-up as a user pays it, in a fresh interpreter: import balclust,
read the instance file through balclust.io and build the PointSet and
oracle. Prints the seconds taken and the number of points read.

It runs on one CPU: numpy's import starts a BLAS thread pool sized to the
CPUs it may use, and on two CPUs that start-up took about 0.07 s of a
0.2 s set-up and made it jump from run to run, whatever balclust does.

Usage: python3 setup_probe.py <src directory> <points.csv>
"""

import os
import sys
import time

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import balclust  # noqa: E402
import balclust.io  # noqa: E402

points = balclust.io.read_points_csv(sys.argv[2])
oracle = balclust.EuclideanOracle(points)
took = time.perf_counter() - start
print(repr(took), oracle.n)
