"""Pin BLAS to one thread before numpy or scipy load.

Every matrix here is at most 10x10, so BLAS worker threads only add
wake-up latency; on a loaded 2-CPU host that latency turns each
`scipy.linalg.expm` call of `table2` into milliseconds and pushes it past
criterion 01's wall gate.  `perfbench/run.py` pins its runs the same way.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
