"""Unit tests for virtual address spaces, permissions, and VADs."""

import pytest

from repro.guestos.addrspace import (
    PERM_R,
    PERM_RW,
    PERM_RWX,
    PERM_RX,
    PERM_W,
    PERM_X,
    AddressSpace,
    perm_str,
)
from repro.isa.cpu import AccessKind
from repro.isa.errors import PageFault
from repro.isa.memory import PAGE_SIZE, FrameAllocator, PhysicalMemory


@pytest.fixture
def allocator():
    return FrameAllocator(PhysicalMemory(64 * PAGE_SIZE))


@pytest.fixture
def aspace(allocator):
    return AddressSpace(asid=0x1234, allocator=allocator)


class TestMapping:
    def test_map_and_translate(self, aspace):
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "data")
        paddr = aspace.translate(0x1000 + 5, AccessKind.READ)
        assert paddr % PAGE_SIZE == 5

    def test_unmapped_faults(self, aspace):
        with pytest.raises(PageFault):
            aspace.translate(0x9000, AccessKind.READ)

    def test_offsets_preserved_across_pages(self, aspace):
        aspace.map_region(0x1000, 3 * PAGE_SIZE, PERM_RW, "data")
        for off in (0, PAGE_SIZE + 1, 3 * PAGE_SIZE - 1):
            assert aspace.translate(0x1000 + off, AccessKind.READ) % PAGE_SIZE == off % PAGE_SIZE

    def test_size_rounds_up_to_pages(self, aspace):
        area = aspace.map_region(0x1000, 10, PERM_RW, "tiny")
        assert area.size == PAGE_SIZE
        assert aspace.is_mapped(0x1000 + PAGE_SIZE - 1)

    def test_unaligned_base_rejected(self, aspace):
        with pytest.raises(ValueError):
            aspace.map_region(0x1001, PAGE_SIZE, PERM_RW, "x")

    def test_overlap_rejected(self, aspace):
        aspace.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW, "a")
        with pytest.raises(ValueError):
            aspace.map_region(0x1000 + PAGE_SIZE, PAGE_SIZE, PERM_RW, "b")

    def test_two_spaces_get_distinct_frames(self, allocator):
        a = AddressSpace(1, allocator)
        b = AddressSpace(2, allocator)
        a.map_region(0x1000, PAGE_SIZE, PERM_RW, "a")
        b.map_region(0x1000, PAGE_SIZE, PERM_RW, "b")
        pa = a.translate(0x1000, AccessKind.READ)
        pb = b.translate(0x1000, AccessKind.READ)
        assert pa != pb


class TestPermissions:
    @pytest.mark.parametrize(
        "perms,access,ok",
        [
            (PERM_R, AccessKind.READ, True),
            (PERM_R, AccessKind.WRITE, False),
            (PERM_R, AccessKind.FETCH, False),
            (PERM_RW, AccessKind.WRITE, True),
            (PERM_RX, AccessKind.FETCH, True),
            (PERM_RX, AccessKind.WRITE, False),
            (PERM_RWX, AccessKind.FETCH, True),
            (PERM_W, AccessKind.READ, False),
            (PERM_X, AccessKind.FETCH, True),
        ],
    )
    def test_access_checks(self, aspace, perms, access, ok):
        aspace.map_region(0x1000, PAGE_SIZE, perms, "region")
        if ok:
            aspace.translate(0x1000, access)
        else:
            with pytest.raises(PageFault):
                aspace.translate(0x1000, access)

    def test_protect_changes_page_perms(self, aspace):
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "region")
        aspace.protect_region(0x1000, PAGE_SIZE, PERM_RX)
        aspace.translate(0x1000, AccessKind.FETCH)
        with pytest.raises(PageFault):
            aspace.translate(0x1000, AccessKind.WRITE)

    def test_protect_unmapped_faults(self, aspace):
        with pytest.raises(PageFault):
            aspace.protect_region(0x5000, PAGE_SIZE, PERM_RW)

    def test_vad_accumulates_executable_bit(self, aspace):
        # malfind relies on VADs remembering a region was ever made +x
        aspace.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW, "payload")
        aspace.protect_region(0x1000, PAGE_SIZE, PERM_RX)
        area = aspace.area_at(0x1000)
        assert area.perms & PERM_X

    def test_perm_str(self):
        assert perm_str(PERM_RWX) == "rwx"
        assert perm_str(PERM_R) == "r--"
        assert perm_str(0) == "---"


class TestUnmapAndTeardown:
    def test_unmap_frees_frames(self, allocator):
        aspace = AddressSpace(1, allocator)
        before = allocator.free_frames
        aspace.map_region(0x1000, 4 * PAGE_SIZE, PERM_RW, "region")
        aspace.unmap_region(0x1000)
        assert allocator.free_frames == before
        assert not aspace.is_mapped(0x1000)

    def test_unmap_requires_region_start(self, aspace):
        aspace.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW, "region")
        with pytest.raises(PageFault):
            aspace.unmap_region(0x1000 + PAGE_SIZE)

    def test_shared_frames_not_freed_on_unmap(self, allocator):
        owner = AddressSpace(1, allocator)
        owner.map_region(0x1000, PAGE_SIZE, PERM_RW, "owner")
        frame = owner.translate(0x1000, AccessKind.READ) // PAGE_SIZE
        other = AddressSpace(2, allocator)
        other.map_shared(0x2000, [frame], PERM_R, "shared", module="m")
        free_before = allocator.free_frames
        other.unmap_region(0x2000)
        assert allocator.free_frames == free_before  # frame still owned

    def test_release_all(self, allocator):
        aspace = AddressSpace(1, allocator)
        before = allocator.free_frames
        aspace.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW, "a")
        aspace.map_region(0x3000, PAGE_SIZE, PERM_RW, "b")
        aspace.release_all()
        assert allocator.free_frames == before
        assert aspace.areas == []


class TestSharedMappings:
    def test_shared_mapping_aliases_same_physical(self, allocator):
        owner = AddressSpace(1, allocator)
        owner.map_region(0x1000, PAGE_SIZE, PERM_RW, "owner")
        frame = owner.translate(0x1000, AccessKind.READ) // PAGE_SIZE
        other = AddressSpace(2, allocator)
        other.map_shared(0xF000, [frame], PERM_R, "alias", module="m")
        assert other.translate(0xF003, AccessKind.READ) == owner.translate(
            0x1003, AccessKind.READ
        )

    def test_shared_area_is_not_private(self, allocator):
        aspace = AddressSpace(1, allocator)
        aspace.map_shared(0xF000, [5], PERM_RX, "k32", module="kernel32.dll")
        area = aspace.area_at(0xF000)
        assert not area.private and area.module == "kernel32.dll"


class TestQueries:
    def test_area_at(self, aspace):
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "one")
        assert aspace.area_at(0x1000).name == "one"
        assert aspace.area_at(0x2000) is None

    def test_find_free_skips_mapped(self, aspace):
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "a")
        free = aspace.find_free(PAGE_SIZE, 0x1000, 0x4000)
        assert free == 0x1000 + PAGE_SIZE

    def test_find_free_exhaustion(self, aspace):
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "a")
        with pytest.raises(MemoryError):
            aspace.find_free(PAGE_SIZE, 0x1000, 0x1000 + PAGE_SIZE)

    def test_areas_sorted_by_start(self, aspace):
        aspace.map_region(0x3000, PAGE_SIZE, PERM_RW, "later")
        aspace.map_region(0x1000, PAGE_SIZE, PERM_RW, "earlier")
        assert [a.name for a in aspace.areas] == ["earlier", "later"]

    def test_translate_range_spans_pages(self, aspace):
        aspace.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW, "r")
        paddrs = aspace.translate_range(0x1000 + PAGE_SIZE - 2, 4, AccessKind.READ)
        assert len(paddrs) == 4

