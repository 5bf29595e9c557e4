"""Unit tests for device buffers and sandbox/swap mechanics."""

import numpy as np
import pytest

from repro.errors import BufferError_
from repro.kernel.buffers import Buffer, MemorySpace, frozen_array


class TestConstruction:
    def test_defaults(self):
        buf = Buffer("b", np.zeros(8, dtype=np.float32))
        assert buf.space is MemorySpace.GLOBAL
        assert buf.writable
        assert buf.nbytes == 32
        assert buf.shape == (8,)
        assert buf.dtype == np.float32

    def test_requires_ndarray(self):
        with pytest.raises(BufferError_):
            Buffer("b", [1, 2, 3])  # type: ignore[arg-type]

    def test_texture_must_be_readonly(self):
        with pytest.raises(BufferError_):
            Buffer("b", np.zeros(4), space=MemorySpace.TEXTURE, writable=True)

    def test_constant_must_be_readonly(self):
        with pytest.raises(BufferError_):
            Buffer("b", np.zeros(4), space=MemorySpace.CONSTANT, writable=True)


class TestPlacement:
    def test_replaced_shares_data(self):
        data = np.arange(4, dtype=np.float32)
        buf = Buffer("b", data)
        moved = buf.replaced(space=MemorySpace.TEXTURE, writable=False)
        assert moved.space is MemorySpace.TEXTURE
        assert moved.data is data

    def test_replaced_keeps_fields_by_default(self):
        buf = Buffer("b", np.zeros(4))
        copy = buf.replaced()
        assert copy.space is buf.space
        assert copy.writable == buf.writable

    def test_read_only_alias_leaves_the_source_writable(self):
        data = np.zeros(4, dtype=np.float32)
        buf = Buffer("b", data)
        alias = buf.replaced(space=MemorySpace.TEXTURE, writable=False)
        assert not alias.writable and buf.writable
        buf.data[0] = 1.0
        assert alias.data[0] == 1.0
        assert not frozen_array(alias.data)

    def test_writable_alias_of_a_frozen_buffer_is_refused(self):
        buf = Buffer("b", np.zeros(4), writable=False)
        assert buf.replaced(space=MemorySpace.TEXTURE).data is buf.data
        with pytest.raises(BufferError_):
            buf.replaced(writable=True)


class TestSandbox:
    def test_sandbox_copy_is_independent(self):
        buf = Buffer("out", np.zeros(4, dtype=np.float32))
        sandbox = buf.sandbox_copy()
        sandbox.data[:] = 7.0
        assert (buf.data == 0.0).all()
        assert sandbox.name.startswith("out.")

    def test_sandbox_of_readonly_rejected(self):
        buf = Buffer("in", np.zeros(4), writable=False)
        with pytest.raises(BufferError_):
            buf.sandbox_copy()


class TestSwap:
    def test_swap_installs_contents(self):
        final = Buffer("out", np.zeros(4, dtype=np.float32))
        private = Buffer("priv", np.full(4, 3.0, dtype=np.float32))
        final.swap_contents(private)
        assert (final.data == 3.0).all()

    def test_swap_shape_mismatch(self):
        final = Buffer("out", np.zeros(4, dtype=np.float32))
        private = Buffer("priv", np.zeros(5, dtype=np.float32))
        with pytest.raises(BufferError_):
            final.swap_contents(private)

    def test_swap_dtype_mismatch(self):
        final = Buffer("out", np.zeros(4, dtype=np.float32))
        private = Buffer("priv", np.zeros(4, dtype=np.int32))
        with pytest.raises(BufferError_):
            final.swap_contents(private)

    def test_swap_into_readonly_rejected(self):
        final = Buffer("out", np.zeros(4, dtype=np.float32), writable=False)
        private = Buffer("priv", np.zeros(4, dtype=np.float32))
        with pytest.raises(BufferError_):
            final.swap_contents(private)
