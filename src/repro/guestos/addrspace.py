"""Per-process virtual address spaces (page tables + VADs).

An :class:`AddressSpace` implements the CPU's MMU protocol and doubles as
the bookkeeping Volatility-style tools inspect: every mapped region is
described by a :class:`VirtualArea` (the analog of a Windows VAD), so the
``malfind`` baseline can scan for suspicious private+executable areas the
same way the real plugin walks the VAD tree.

The address space id (:attr:`AddressSpace.asid`) is the architectural
process identity -- the paper's CR3.  It is what FAROS uses for *process*
tags, because it cannot be spoofed from inside the guest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.errors import GuestResourceExhausted
from repro.isa.cpu import AccessKind
from repro.isa.errors import PageFault
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, FrameAllocator

PERM_R = 1
PERM_W = 2
PERM_X = 4
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X
PERM_RWX = PERM_R | PERM_W | PERM_X

_ACCESS_NEEDS = {
    AccessKind.READ: PERM_R,
    AccessKind.WRITE: PERM_W,
    AccessKind.FETCH: PERM_X,
}


def perm_str(perms: int) -> str:
    """Render a permission mask like ``"rw-"``."""
    return (
        ("r" if perms & PERM_R else "-")
        + ("w" if perms & PERM_W else "-")
        + ("x" if perms & PERM_X else "-")
    )


@dataclass
class VirtualArea:
    """One contiguous mapped region -- the analog of a Windows VAD.

    :ivar private: True for process-private anonymous memory (the kind
        ``malfind`` scrutinises); False for shared mappings such as the
        kernel module.
    :ivar module: name of the backing module for image/DLL mappings,
        ``None`` for anonymous memory.  ``malfind`` treats executable
        anonymous memory as suspicious precisely because this is None.
    """

    start: int
    size: int
    perms: int
    name: str
    private: bool = True
    module: Optional[str] = None

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def __repr__(self) -> str:
        return (
            f"VirtualArea({self.start:#x}-{self.end:#x} {perm_str(self.perms)} "
            f"{self.name!r}{' module=' + self.module if self.module else ''})"
        )


@dataclass
class _PageEntry:
    frame: int
    perms: int
    owned: bool  # True if this address space owns (and must free) the frame


class AddressSpace:
    """A paged virtual address space over shared physical memory."""

    def __init__(self, asid: int, allocator: FrameAllocator) -> None:
        #: Architectural id of this address space (the paper's CR3 value).
        self.asid = asid
        self._allocator = allocator
        self._pages: Dict[int, _PageEntry] = {}
        self.areas: List[VirtualArea] = []

    # -- MMU protocol -------------------------------------------------------------

    def translate(self, vaddr: int, access: AccessKind) -> int:
        """Translate *vaddr* or raise :class:`PageFault`."""
        entry = self._pages.get(vaddr >> PAGE_SHIFT)
        if entry is None:
            raise PageFault(vaddr, access.value, "unmapped")
        if not entry.perms & _ACCESS_NEEDS[access]:
            raise PageFault(
                vaddr, access.value, f"permission denied ({perm_str(entry.perms)})"
            )
        return (entry.frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def translate_range(self, vaddr: int, n: int, access: AccessKind) -> Tuple[int, ...]:
        """Translate each byte of an *n*-byte buffer (kernel copy helper),
        one guest page at a time: a fault names the buffer's first byte
        on the faulting page."""
        paddrs: List[int] = []
        pos, end = vaddr, vaddr + n
        while pos < end:
            run = min(end - pos, PAGE_SIZE - (pos & (PAGE_SIZE - 1)))
            paddr = self.translate(pos, access)
            paddrs += range(paddr, paddr + run)
            pos += run
        return tuple(paddrs)

    # -- mapping operations ---------------------------------------------------------

    def map_region(self, vaddr: int, size: int, perms: int, name: str) -> VirtualArea:
        """Allocate fresh frames and map them at *vaddr*; returns the VAD."""
        self._check_region(vaddr, size)
        n_pages = _pages_for(size)
        for i, frame in enumerate(self._allocator.alloc_many(n_pages)):
            self._pages[(vaddr >> PAGE_SHIFT) + i] = _PageEntry(frame, perms, owned=True)
        area = VirtualArea(vaddr, n_pages * PAGE_SIZE, perms, name)
        self._insert_area(area)
        return area

    def map_shared(
        self, vaddr: int, frames: List[int], perms: int, name: str, module: Optional[str]
    ) -> VirtualArea:
        """Map existing *frames* (owned elsewhere) at *vaddr* -- shared memory."""
        self._check_region(vaddr, len(frames) * PAGE_SIZE)
        for i, frame in enumerate(frames):
            self._pages[(vaddr >> PAGE_SHIFT) + i] = _PageEntry(frame, perms, owned=False)
        area = VirtualArea(
            vaddr, len(frames) * PAGE_SIZE, perms, name, private=False, module=module
        )
        self._insert_area(area)
        return area

    def unmap_region(self, vaddr: int) -> VirtualArea:
        """Unmap the area starting at *vaddr*; frees owned frames.

        This is what ``NtUnmapViewOfSection`` bottoms out in during
        process hollowing.
        """
        area = self.area_at(vaddr)
        if area is None or area.start != vaddr:
            raise PageFault(vaddr, "unmap", "no area starts here")
        for vpn in range(area.start >> PAGE_SHIFT, area.end >> PAGE_SHIFT):
            entry = self._pages.pop(vpn)
            if entry.owned:
                self._allocator.free(entry.frame)
        self.areas.remove(area)
        return area

    def protect_region(self, vaddr: int, size: int, perms: int) -> None:
        """Change permissions for all pages overlapping [vaddr, vaddr+size).

        The VAD record keeps the *union* of page permissions so that a
        region made executable anywhere shows as executable to forensic
        scans (how ``malfind`` sees VirtualProtect'd payload pages).
        """
        first = vaddr >> PAGE_SHIFT
        last = (vaddr + max(size, 1) - 1) >> PAGE_SHIFT
        touched = False
        for vpn in range(first, last + 1):
            entry = self._pages.get(vpn)
            if entry is not None:
                entry.perms = perms
                touched = True
        if not touched:
            raise PageFault(vaddr, "protect", "unmapped")
        for area in self.areas:
            if area.start < (last + 1) << PAGE_SHIFT and area.end > vaddr:
                area.perms |= perms

    def release_all(self) -> None:
        """Free every owned frame (process teardown)."""
        for entry in self._pages.values():
            if entry.owned:
                self._allocator.free(entry.frame)
        self._pages.clear()
        self.areas.clear()

    # -- queries ----------------------------------------------------------------------

    def area_at(self, vaddr: int) -> Optional[VirtualArea]:
        """Return the VAD containing *vaddr*, if any."""
        for area in self.areas:
            if area.contains(vaddr):
                return area
        return None

    def is_mapped(self, vaddr: int) -> bool:
        return (vaddr >> PAGE_SHIFT) in self._pages

    def find_free(self, size: int, lo: int, hi: int) -> int:
        """Find the lowest free region of *size* bytes within [lo, hi)."""
        n_pages = _pages_for(size)
        vpn = lo >> PAGE_SHIFT
        end_vpn = hi >> PAGE_SHIFT
        while vpn + n_pages <= end_vpn:
            if all((vpn + i) not in self._pages for i in range(n_pages)):
                return vpn << PAGE_SHIFT
            vpn += 1
        raise GuestResourceExhausted(
            "address space", f"no free region of {size} bytes in [{lo:#x}, {hi:#x})"
        )

    # -- internals ----------------------------------------------------------------------

    def _check_region(self, vaddr: int, size: int) -> None:
        if vaddr % PAGE_SIZE:
            raise ValueError(f"region base {vaddr:#x} not page-aligned")
        if size <= 0:
            raise ValueError("region size must be positive")
        for i in range(_pages_for(size)):
            if (vaddr >> PAGE_SHIFT) + i in self._pages:
                raise ValueError(f"overlapping mapping at {vaddr + i * PAGE_SIZE:#x}")

    def _insert_area(self, area: VirtualArea) -> None:
        self.areas.append(area)
        self.areas.sort(key=lambda a: a.start)


def _pages_for(size: int) -> int:
    return (size + PAGE_SIZE - 1) >> PAGE_SHIFT
