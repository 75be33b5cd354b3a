"""Property tests over randomly drawn configurations (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from opvib.selfonn import OperationalLayer, OperationalLayerConfig
from opvib.tensor import ShapeError, Tensor


@settings(max_examples=60, deadline=None)
@given(
    in_ch=st.integers(1, 3), out_ch=st.integers(1, 3), kernel=st.integers(1, 9),
    q=st.integers(1, 3), stride=st.integers(1, 4), padding=st.integers(0, 4),
    transposed=st.booleans(), length=st.integers(1, 40),
)
def test_output_length_matches_forward(in_ch, out_ch, kernel, q, stride, padding,
                                       transposed, length):
    # a layer either produces output_length samples or, when that is < 1, refuses the input
    cfg = OperationalLayerConfig(in_ch, out_ch, kernel=kernel, q=q, stride=stride,
                                 padding=padding, transposed=transposed)
    layer = OperationalLayer(cfg, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (in_ch, length)).astype(np.float32))
    expected = layer.output_length(length)
    if expected < 1:
        with pytest.raises(ShapeError):
            layer(x)
    else:
        assert layer(x).data.shape == (out_ch, expected)
