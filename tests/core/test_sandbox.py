"""Unit tests for sandbox / private-output management."""

import pytest

from repro.core.sandbox import SandboxAllocator
from repro.errors import SandboxError
from repro.kernel.launch import LaunchConfig
from tests.conftest import axpy_signature, make_axpy_args


@pytest.fixture
def launch(config):
    return LaunchConfig.create(axpy_signature(), make_axpy_args(8, config), 8)


class TestAllocator:
    def test_sandbox_args_replace_outputs(self, launch):
        allocator = SandboxAllocator()
        outputs = launch.output_buffers()
        args = allocator.sandbox_args(launch, outputs, label="s")
        assert args["y"] is not launch.args["y"]
        assert args["x"] is launch.args["x"]
        assert allocator.live_copies == 1
        assert allocator.allocated_bytes == launch.args["y"].nbytes

    def test_private_outputs(self, launch):
        allocator = SandboxAllocator()
        outputs = launch.output_buffers()
        privates = allocator.private_outputs(launch, outputs, label="p")
        assert set(privates) == {"y"}
        assert privates["y"].data is not launch.args["y"].data

    def test_swap_in(self, launch):
        allocator = SandboxAllocator()
        outputs = launch.output_buffers()
        privates = allocator.private_outputs(launch, outputs, label="p")
        privates["y"].data[:] = 9.0
        allocator.swap_in(outputs, privates)
        assert (launch.args["y"].data == 9.0).all()

    def test_swap_in_missing_output(self, launch):
        allocator = SandboxAllocator()
        with pytest.raises(SandboxError, match="no private copy"):
            allocator.swap_in(launch.output_buffers(), {})

    def test_release_all(self, launch):
        allocator = SandboxAllocator()
        allocator.sandbox_args(launch, launch.output_buffers(), label="s")
        allocator.release_all()
        assert allocator.live_copies == 0
        # Accounting of total allocation persists for reporting.
        assert allocator.allocated_bytes > 0
