"""Tag types, the 3-byte ``prov_tag`` encoding, and the tag hash maps.

The paper represents a tag in three bytes (Fig. 6): one byte of tag
*type* and two bytes of *index* into the hash map for that type
(Fig. 5).  The maps translate compact indices into rich payloads:

* **netflow** -- source/destination IP and port (the 4-tuple);
* **process** -- the CR3 value identifying a process architecturally;
* **file**    -- file name plus an access-version counter;
* **export-table** -- no payload ("its corresponding tag does not
  contain additional information", §V-A), so no hash map and a single
  index 0.

Because indices are 16 bits, each map holds at most 65 536 entries.  The
paper's §VI-D notes an attacker could try to exhaust tag memory; we make
that failure mode explicit with :class:`TagSpaceExhausted`, and the E12
evasion bench measures how fast an adversary can approach the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import enum

MAX_TAG_INDEX = 0xFFFF


class TagType(enum.IntEnum):
    """The first byte of a ``prov_tag``."""

    NETFLOW = 1
    PROCESS = 2
    FILE = 3
    EXPORT_TABLE = 4


class TagSpaceExhausted(Exception):
    """A tag hash map overflowed its 16-bit index space."""

    def __init__(self, tag_type: TagType) -> None:
        super().__init__(f"{tag_type.name} tag map exhausted ({MAX_TAG_INDEX + 1} entries)")
        self.tag_type = tag_type


class Tag(NamedTuple):
    """One provenance tag: a (type, index) pair -- the ``prov_tag``.

    A tuple type, so hashing and comparing tags -- every interner probe
    and provenance-list membership test does both -- runs in C.
    """

    type: TagType
    index: int

    def encode(self) -> bytes:
        """The paper's 3-byte on-disk/in-memory representation."""
        return bytes([self.type]) + self.index.to_bytes(2, "little")

    @classmethod
    def decode(cls, raw: bytes) -> "Tag":
        if len(raw) != 3:
            raise ValueError(f"prov_tag must be 3 bytes, got {len(raw)}")
        return cls(TagType(raw[0]), int.from_bytes(raw[1:3], "little"))


@dataclass(frozen=True)
class NetflowTag:
    """Payload of a netflow tag: the connection 4-tuple."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    def __str__(self) -> str:
        return (
            f"{{src ip,port: {self.src_ip}:{self.src_port}, "
            f"dest ip.port: {self.dst_ip}:{self.dst_port}}}"
        )


@dataclass(frozen=True)
class FileTag:
    """Payload of a file tag: name + how-many-accesses version."""

    name: str
    version: int

    def __str__(self) -> str:
        return f"{{file: {self.name}, v{self.version}}}"


class _IndexMap:
    """One interned payload->index map with the 16-bit capacity limit."""

    def __init__(self, tag_type: TagType) -> None:
        self.tag_type = tag_type
        self._by_payload: Dict[object, int] = {}
        self._by_index: Dict[int, object] = {}

    def intern(self, payload: object) -> int:
        index = self._by_payload.get(payload)
        if index is not None:
            return index
        index = len(self._by_payload)
        if index > MAX_TAG_INDEX:
            raise TagSpaceExhausted(self.tag_type)
        self._by_payload[payload] = index
        self._by_index[index] = payload
        return index

    def payload(self, index: int) -> object:
        return self._by_index[index]

    def __len__(self) -> int:
        return len(self._by_payload)


class TagStore:
    """The three tag hash maps plus the singleton export-table tag.

    Payloads are interned, so the same netflow 4-tuple (or CR3, or file
    version) always yields an *equal* :class:`Tag`, and provenance lists
    can be compared and deduplicated with plain equality.  Tags are
    compared by value: each constructor call returns a fresh ``Tag``
    (only the anonymous export-table tag is one shared object), so two
    calls of :meth:`process_tag` for one CR3 give equal, not identical,
    tags.
    """

    def __init__(self) -> None:
        self._netflow = _IndexMap(TagType.NETFLOW)
        self._process = _IndexMap(TagType.PROCESS)
        self._file = _IndexMap(TagType.FILE)
        self._export_tag = Tag(TagType.EXPORT_TABLE, 0)
        # The paper's stated future work (§V-A): "we plan to augment this
        # tag with information about function name, which will require the
        # addition of a corresponding hash map."  Index 0 stays the
        # anonymous export-table tag; named entries start at 1.
        self._export = _IndexMap(TagType.EXPORT_TABLE)
        self._export.intern(None)  # reserve index 0 for the anonymous tag
        #: Optional display names for process tags (CR3 -> process name),
        #: filled in by OS introspection for human-readable reports.
        self.process_names: Dict[int, str] = {}

    # -- constructors ----------------------------------------------------------

    def netflow_tag(self, src_ip: str, src_port: int, dst_ip: str, dst_port: int) -> Tag:
        payload = NetflowTag(src_ip, src_port, dst_ip, dst_port)
        return Tag(TagType.NETFLOW, self._netflow.intern(payload))

    def process_tag(self, cr3: int) -> Tag:
        return Tag(TagType.PROCESS, self._process.intern(cr3))

    def file_tag(self, name: str, version: int) -> Tag:
        return Tag(TagType.FILE, self._file.intern(FileTag(name, version)))

    def export_table_tag(self, function_name: Optional[str] = None) -> Tag:
        """The export-table tag; with *function_name*, the augmented
        per-function variant (the §V-A future-work hash map)."""
        if function_name is None:
            return self._export_tag
        return Tag(TagType.EXPORT_TABLE, self._export.intern(function_name))

    # -- lookups ------------------------------------------------------------------

    def netflow_payload(self, tag: Tag) -> NetflowTag:
        assert tag.type is TagType.NETFLOW
        return self._netflow.payload(tag.index)  # type: ignore[return-value]

    def process_cr3(self, tag: Tag) -> int:
        assert tag.type is TagType.PROCESS
        return self._process.payload(tag.index)  # type: ignore[return-value]

    def file_payload(self, tag: Tag) -> FileTag:
        assert tag.type is TagType.FILE
        return self._file.payload(tag.index)  # type: ignore[return-value]

    def export_function(self, tag: Tag) -> Optional[str]:
        """The function name of an augmented export-table tag, if any."""
        assert tag.type is TagType.EXPORT_TABLE
        return self._export.payload(tag.index)  # type: ignore[return-value]

    def describe(self, tag: Tag) -> str:
        """Human-readable rendering used in FAROS reports (Table II)."""
        if tag.type is TagType.NETFLOW:
            return f"NetFlow: {self.netflow_payload(tag)}"
        if tag.type is TagType.PROCESS:
            cr3 = self.process_cr3(tag)
            name = self.process_names.get(cr3)
            return f"Process: {name}" if name else f"Process: cr3={cr3:#x}"
        if tag.type is TagType.FILE:
            return f"File: {self.file_payload(tag)}"
        function = self.export_function(tag)
        return f"ExportTable({function})" if function else "ExportTable"

    # -- statistics (E12) --------------------------------------------------------------

    def sizes(self) -> Dict[str, int]:
        """Current entry counts per map (tag-memory pressure metric).

        ``export`` excludes the reserved anonymous entry, so it counts
        only augmented (named) export tags.
        """
        return {
            "netflow": len(self._netflow),
            "process": len(self._process),
            "file": len(self._file),
            "export": len(self._export) - 1,
        }
