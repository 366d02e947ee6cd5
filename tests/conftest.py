import os

# One BLAS thread, as perfbench/run.py pins it. A fit's last bits depend on
# the BLAS thread count, so every figure the suite prints is then the same
# on any machine, and the acceptance Monte-Carlo cells, one process per CPU,
# do not compete for the CPUs with each other's BLAS threads. Read when
# numpy loads its BLAS, so it must come before the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tvshape import SyntheticSpec, generate


@pytest.fixture(scope="session")
def recon_signal():
    """The 3-harmonic reconstruction test signal with its ground truth."""
    return generate(SyntheticSpec("tv_reconstruction"))


@pytest.fixture()
def rng():
    # function-scoped: every test draws the same stream regardless of order
    return np.random.default_rng(20240811)
