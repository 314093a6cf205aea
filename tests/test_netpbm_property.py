"""Property test of the NetPBM decoder: whatever the bytes, ``load_image``
returns a (3, H, W) float image in [0, 1] or raises ``FormatError``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mmfuse.data import load_image  # noqa: E402
from mmfuse.errors import FormatError  # noqa: E402

PROPERTY = settings(max_examples=600, deadline=None, database=None, derandomize=True)

separators = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"\n#\n"])


@st.composite
def netpbm_bytes(draw):
    """A well-formed P5 or P6 file with a small raster and any maxval up to
    255, then up to three mutations: a byte overwritten, inserted or
    deleted, or the tail cut."""
    channels = draw(st.sampled_from([1, 3]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = width * height * channels
    data = bytearray(b"P6" if channels == 3 else b"P5")
    for value in (width, height, draw(st.integers(1, 255))):
        data += draw(separators) + str(value).encode()
    data += draw(st.sampled_from([b" ", b"\n", b"\t", b"\r"]))
    data += draw(st.binary(min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3))):
        kind, at = draw(st.integers(0, 3)), draw(st.integers(0, len(data)))
        if kind == 0 and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == 1:
            data.insert(at, draw(st.integers(0, 255)))
        elif kind == 2:
            del data[at:at + 1]
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    return tmp_path_factory.mktemp("netpbm") / "image.pnm"


@PROPERTY
@given(data=netpbm_bytes() | st.binary(max_size=64))
def test_load_image_decodes_or_raises_format_error(image_path, data):
    image_path.write_bytes(data)
    try:
        img = load_image(image_path)
    except FormatError:
        return
    assert img.dtype == np.float64 and img.ndim == 3 and img.shape[0] == 3
    assert img.shape[1] >= 1 and img.shape[2] >= 1
    assert np.all((img >= 0.0) & (img <= 1.0))
