"""Fixed reference work that tracks how fast the machine runs right now.

    python3 bench/reference.py STAMP

run.py runs this script right before every untraced command and divides
the command's times by the reference's: ``setup_s`` by the time until this
script has imported numpy and scipy (written to STAMP as a monotonic
clock reading), ``wall_s`` by the time until it exits.  On a machine shared
with other tenants the speed of the same code drifts by tens of percent
within seconds; the adjacent reference cancels most of that drift.  The
work mixes imports, interpreted Python and small numpy kernels, like the
CLI does, and never touches ergodykit, so a change to the program cannot
move it.
"""

import sys
import time

import numpy as np
import scipy.optimize  # noqa: F401  (import time is part of the reference)
import scipy.sparse  # noqa: F401

with open(sys.argv[1], "w") as fh:
    fh.write(repr(time.monotonic()))

total = 0
for i in range(400_000):
    total += i * i % 7
a = np.random.default_rng(0).random((200, 200))
for _ in range(20):
    a = np.sort(a, axis=1) @ a.T / 200.0
print(total, float(a.sum()))
