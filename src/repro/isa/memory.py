"""Physical memory and the physical frame allocator.

Whole-system DIFT operates on *physical* memory: a byte injected into a
victim process occupies the same physical location no matter which virtual
mapping touches it, so shadow (taint) state keyed on physical addresses
survives cross-address-space copies for free.  This module provides the
flat physical memory every address space maps into.

The page size is deliberately small (:data:`PAGE_SIZE` = 256 bytes) so that
guests with a few KiB of code still span many pages, keeping the paging
machinery honest without inflating emulation cost.
"""

from __future__ import annotations

import mmap
import struct
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.faults.errors import GuestResourceExhausted
from repro.isa.errors import PhysicalMemoryError

PAGE_SIZE = 256
PAGE_SHIFT = 8
assert PAGE_SIZE == 1 << PAGE_SHIFT

_U32 = struct.Struct("<I")


def contiguous_runs(paddrs: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Decompose a per-byte physical address tuple into ``(start, length)``
    runs of consecutive addresses.

    The MMU emits per-byte ``paddrs`` tuples because virtually-contiguous
    ranges may map to scattered frames -- but within each 256-byte guest
    page the bytes *are* physically consecutive, so a multi-page transfer
    decomposes into at most one run per touched guest page.  Bulk
    consumers (kernel copies, NIC DMA, shadow-tag range ops) iterate
    these runs instead of the bytes.
    """
    i, n = 0, len(paddrs)
    while i < n:
        start = paddrs[i]
        j = i + 1
        expect = start + 1
        while j < n and paddrs[j] == expect:
            j += 1
            expect += 1
        yield start, j - i
        i = j


class PhysicalMemory:
    """A flat, byte-addressable physical memory of fixed size.

    All multi-byte accesses are little-endian.  Accesses outside the
    installed range raise :class:`PhysicalMemoryError` -- the emulator
    never lets guest-originated addresses reach here unchecked, so such an
    error indicates a harness bug.

    **Code versioning.**  Pages that hold translated basic blocks
    (:mod:`repro.isa.translate`) are *watched*: every write landing in a
    watched page bumps its code-version counter, which is part of the
    translation cache key -- so self-modifying and injected code
    (process hollowing, reflective DLL loads, AtomBombing writes) can
    never execute a stale translation.  Unwatched pages pay one dict
    membership test per write; versions are monotonic for the lifetime
    of the memory, surviving cache drops and frame recycling (frame
    reallocation zeroes the page through :meth:`fill`, which itself
    bumps the version).

    **Lazy commit.**  The buffer is a private anonymous mapping, so
    host pages the guest never touches are never resident: a machine
    costs the RAM its guest used, not its configured size, however long
    the cyclic collector takes to free it.  ``MAP_PRIVATE`` keeps it
    copy-on-write across ``os.fork``: a forked worker's guest writes
    never reach its parent's memory (a default anonymous mapping is
    shared).  The mapping holds no file descriptor and is unmapped when
    the memory object is freed.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"memory size must be a positive multiple of {PAGE_SIZE}")
        self._buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.size = size
        #: page number -> write-version counter, for watched pages only.
        self._code_versions: Dict[int, int] = {}

    # -- code-version tracking (translation-cache invalidation) -----------------

    def watch_code_page(self, page: int) -> None:
        """Start bumping *page*'s code version on every write into it.

        Idempotent; called by the block translator when it caches a
        block decoded from *page*.  Watched pages are never unwatched --
        the version must stay monotonic so a stale
        ``(page, version)``-keyed block can never validate again.
        """
        self._code_versions.setdefault(page, 0)

    def code_version(self, page: int) -> int:
        """Current write-version of *page* (0 while unwatched/untouched)."""
        return self._code_versions.get(page, 0)

    def _advance_code_versions(self, paddr: int, n: int) -> None:
        """Bump the version of every watched page overlapping the write."""
        cv = self._code_versions
        for page in range(paddr >> PAGE_SHIFT, (paddr + n - 1 >> PAGE_SHIFT) + 1):
            if page in cv:
                cv[page] += 1

    # -- byte / word primitives -------------------------------------------------

    def read_byte(self, paddr: int) -> int:
        """Return the byte at *paddr*."""
        self._check(paddr, 1)
        return self._buf[paddr]

    def write_byte(self, paddr: int, value: int) -> None:
        """Store the low 8 bits of *value* at *paddr*."""
        self._check(paddr, 1)
        self._buf[paddr] = value & 0xFF
        cv = self._code_versions
        if cv:
            page = paddr >> PAGE_SHIFT
            if page in cv:
                cv[page] += 1

    def read_word(self, paddr: int) -> int:
        """Return the little-endian 32-bit word at *paddr*."""
        self._check(paddr, 4)
        return _U32.unpack_from(self._buf, paddr)[0]

    def write_word(self, paddr: int, value: int) -> None:
        """Store *value* as a little-endian 32-bit word at *paddr*."""
        self._check(paddr, 4)
        _U32.pack_into(self._buf, paddr, value & 0xFFFFFFFF)
        cv = self._code_versions
        if cv:
            page = paddr >> PAGE_SHIFT
            if page in cv:
                cv[page] += 1
            last = (paddr + 3) >> PAGE_SHIFT
            if last != page and last in cv:
                cv[last] += 1

    # -- bulk accessors ---------------------------------------------------------

    def read_bytes(self, paddr: int, n: int) -> bytes:
        """Return *n* bytes starting at *paddr*."""
        self._check(paddr, n)
        return bytes(self._buf[paddr : paddr + n])

    def write_bytes(self, paddr: int, data: bytes) -> None:
        """Store *data* starting at *paddr*."""
        self._check(paddr, len(data))
        self._buf[paddr : paddr + len(data)] = data
        if self._code_versions and data:
            self._advance_code_versions(paddr, len(data))

    def fill(self, paddr: int, n: int, value: int = 0) -> None:
        """Set *n* bytes starting at *paddr* to *value*."""
        self._check(paddr, n)
        self._buf[paddr : paddr + n] = bytes([value & 0xFF]) * n
        if self._code_versions and n:
            self._advance_code_versions(paddr, n)

    def _check(self, paddr: int, n: int) -> None:
        if paddr < 0 or n < 0 or paddr + n > self.size:
            raise PhysicalMemoryError(paddr, self.size)


class FrameAllocator:
    """Allocates physical page frames from a :class:`PhysicalMemory`.

    Frames are handed out lowest-address-first and may be returned for
    reuse (process exit, ``NtFreeVirtualMemory``).  Freed frames are zeroed
    on reallocation so stale data never leaks between processes -- matching
    real kernels and keeping taint experiments deterministic.
    """

    def __init__(self, memory: PhysicalMemory, reserved_low: int = 0) -> None:
        """Create an allocator over *memory*.

        *reserved_low* bytes at the bottom of physical memory are never
        allocated (the emulator parks kernel-owned structures there).
        """
        if reserved_low % PAGE_SIZE:
            raise ValueError("reserved_low must be page-aligned")
        self._memory = memory
        first = reserved_low >> PAGE_SHIFT
        last = memory.size >> PAGE_SHIFT
        self._free: List[int] = list(range(first, last))
        self._free.reverse()  # pop() yields lowest frame number first
        self.total_frames = last - first
        #: Optional hook invoked with each freed frame number.  The
        #: emulator points this at its plugin dispatch so taint engines
        #: can drop shadow state for recycled physical pages.
        self.on_free = None

    @property
    def free_frames(self) -> int:
        """Number of frames currently available."""
        return len(self._free)

    def alloc(self) -> int:
        """Allocate one frame; return its frame number (paddr >> PAGE_SHIFT)."""
        if not self._free:
            raise GuestResourceExhausted("physical frames", "no frames free")
        frame = self._free.pop()
        self._memory.fill(frame << PAGE_SHIFT, PAGE_SIZE, 0)
        return frame

    def alloc_many(self, n: int) -> List[int]:
        """Allocate *n* frames (not necessarily contiguous)."""
        if n > len(self._free):
            raise GuestResourceExhausted(
                "physical frames", f"requested {n}, only {len(self._free)} free"
            )
        return [self.alloc() for _ in range(n)]

    def free(self, frame: int) -> None:
        """Return *frame* to the pool."""
        if frame in self._free:
            raise ValueError(f"double free of frame {frame}")
        self._free.append(frame)
        if self.on_free is not None:
            self.on_free(frame)
