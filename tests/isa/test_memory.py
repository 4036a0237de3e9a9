"""Unit tests for physical memory and the frame allocator."""

import os
import select

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.errors import PhysicalMemoryError
from repro.isa.memory import PAGE_SIZE, FrameAllocator, PhysicalMemory


class TestPhysicalMemory:
    def test_initial_memory_is_zeroed(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        assert mem.read_bytes(0, mem.size) == b"\x00" * mem.size

    def test_byte_roundtrip(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_byte(10, 0xAB)
        assert mem.read_byte(10) == 0xAB

    def test_byte_write_truncates_to_8_bits(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_byte(0, 0x1FF)
        assert mem.read_byte(0) == 0xFF

    def test_word_is_little_endian(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_word(0, 0x11223344)
        assert mem.read_bytes(0, 4) == b"\x44\x33\x22\x11"
        assert mem.read_word(0) == 0x11223344

    def test_word_write_truncates_to_32_bits(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_word(4, 0x1_0000_0001)
        assert mem.read_word(4) == 1

    def test_bulk_roundtrip(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_bytes(100, b"hello world")
        assert mem.read_bytes(100, 11) == b"hello world"

    def test_fill(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.fill(8, 4, 0x7F)
        assert mem.read_bytes(6, 8) == b"\x00\x00\x7f\x7f\x7f\x7f\x00\x00"

    @pytest.mark.parametrize("paddr", [-1, PAGE_SIZE, PAGE_SIZE - 3])
    def test_out_of_range_word_raises(self, paddr):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysicalMemoryError):
            mem.read_word(paddr)

    def test_out_of_range_bulk_raises(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysicalMemoryError):
            mem.write_bytes(PAGE_SIZE - 2, b"abc")

    @pytest.mark.parametrize("size", [0, -256, 100])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(ValueError):
            PhysicalMemory(size)

    @given(
        paddr=st.integers(min_value=0, max_value=PAGE_SIZE - 4),
        value=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_word_roundtrip_property(self, paddr, value):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_word(paddr, value)
        assert mem.read_word(paddr) == value

    @given(data=st.binary(min_size=0, max_size=64), paddr=st.integers(0, PAGE_SIZE - 64))
    def test_bulk_roundtrip_property(self, data, paddr):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_bytes(paddr, data)
        assert mem.read_bytes(paddr, len(data)) == data

    def test_forked_child_writes_stay_in_the_child(self):
        """Guest RAM is copy-on-write across fork: a pool worker's guest
        writes must never reach its parent's machine."""
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write_bytes(PAGE_SIZE, b"parent")
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                mem.write_bytes(PAGE_SIZE, b"child!")
                mem.write_byte(3 * PAGE_SIZE, 0x5A)
                os.write(write_fd, mem.read_bytes(PAGE_SIZE, 6))
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], 30)
            seen = os.read(read_fd, 6) if ready else b""
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert seen == b"child!"
        assert mem.read_bytes(PAGE_SIZE, 6) == b"parent"
        assert mem.read_byte(3 * PAGE_SIZE) == 0


class TestFrameAllocator:
    def test_alloc_yields_distinct_frames_lowest_first(self):
        mem = PhysicalMemory(8 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        frames = alloc.alloc_many(8)
        assert frames == list(range(8))

    def test_reserved_low_frames_never_allocated(self):
        mem = PhysicalMemory(8 * PAGE_SIZE)
        alloc = FrameAllocator(mem, reserved_low=2 * PAGE_SIZE)
        assert alloc.total_frames == 6
        assert min(alloc.alloc_many(6)) == 2

    def test_exhaustion_raises(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        alloc.alloc_many(2)
        with pytest.raises(MemoryError):
            alloc.alloc()

    def test_freed_frame_is_reused_and_zeroed(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        frame = alloc.alloc()
        mem.write_bytes(frame * PAGE_SIZE, b"\xff" * PAGE_SIZE)
        alloc.free(frame)
        again = alloc.alloc_many(2)
        assert frame in again
        assert mem.read_bytes(frame * PAGE_SIZE, PAGE_SIZE) == b"\x00" * PAGE_SIZE

    def test_double_free_detected(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(ValueError):
            alloc.free(frame)

    def test_unaligned_reservation_rejected(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(ValueError):
            FrameAllocator(mem, reserved_low=100)
