"""Pin BLAS to one thread before numpy is first imported.

With two OpenBLAS threads on a busy core, one d = 12 dense propagation
took about 0.5 s instead of 0.01 s.  An explicit setting in the
environment still wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
