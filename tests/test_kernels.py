import numpy as np
import pytest

import sparseattn
from sparseattn import _kernels


def test_backend_is_numpy():
    assert sparseattn.backend() == "numpy"


def test_entmax15_handles_empty_rows():
    Z = np.zeros((3, 4))
    valid = np.zeros((3, 4), dtype=bool)
    valid[0] = True
    P = _kernels.entmax15_masked_rows(Z, valid)
    assert P[0].sum() == pytest.approx(1.0)
    assert not P[1:].any()

