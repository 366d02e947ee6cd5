import os

# One BLAS thread, as perfbench/run.py and the bench's process pool pin it.
# A fit's last bits depend on the BLAS thread count, so every figure the
# suite computes in its own process is then the same on any machine, and
# equals what a bench cell computes in a pool process, which the bench
# tests compare. Read when numpy loads its BLAS, so it must come before the
# first numpy import.
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
