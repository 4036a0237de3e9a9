"""Unit + property tests for tags, prov_tag encoding, and the tag maps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.taint.tags import (
    MAX_TAG_INDEX,
    NetflowTag,
    Tag,
    TagSpaceExhausted,
    TagStore,
    TagType,
)


class TestProvTagEncoding:
    def test_three_bytes(self):
        assert len(Tag(TagType.NETFLOW, 7).encode()) == 3

    def test_layout_type_then_index_le(self):
        raw = Tag(TagType.FILE, 0x1234).encode()
        assert raw[0] == TagType.FILE
        assert raw[1:] == b"\x34\x12"

    @given(
        tag_type=st.sampled_from(list(TagType)),
        index=st.integers(0, MAX_TAG_INDEX),
    )
    def test_roundtrip(self, tag_type, index):
        tag = Tag(tag_type, index)
        assert Tag.decode(tag.encode()) == tag

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Tag.decode(b"\x01\x00")


class TestTagValue:
    """Reports and digests print tags, and every provenance list hashes
    them: a tag's repr, hash and equality are those of its pair."""

    def test_repr_names_both_fields(self):
        assert repr(Tag(TagType.NETFLOW, 7)) == "Tag(type=<TagType.NETFLOW: 1>, index=7)"

    def test_hash_and_equality_follow_the_pair(self):
        tag = Tag(TagType.PROCESS, 3)
        assert hash(tag) == hash((TagType.PROCESS, 3))
        assert tag == Tag(TagType.PROCESS, 3)
        assert tag != Tag(TagType.PROCESS, 4) and tag != Tag(TagType.FILE, 3)


class TestTagStore:
    def test_netflow_interning(self):
        store = TagStore()
        a = store.netflow_tag("1.2.3.4", 80, "5.6.7.8", 1000)
        b = store.netflow_tag("1.2.3.4", 80, "5.6.7.8", 1000)
        c = store.netflow_tag("1.2.3.4", 81, "5.6.7.8", 1000)
        assert a is not None and a == b
        assert a != c

    def test_netflow_payload_roundtrip(self):
        store = TagStore()
        tag = store.netflow_tag("169.254.26.161", 4444, "169.254.57.168", 49162)
        payload = store.netflow_payload(tag)
        assert payload == NetflowTag("169.254.26.161", 4444, "169.254.57.168", 49162)

    def test_process_tag_carries_cr3(self):
        store = TagStore()
        tag = store.process_tag(0x1640)
        assert store.process_cr3(tag) == 0x1640

    def test_file_tag_versions_distinct(self):
        store = TagStore()
        v1 = store.file_tag("a.txt", 1)
        v2 = store.file_tag("a.txt", 2)
        assert v1 != v2
        assert store.file_payload(v2).version == 2

    def test_export_table_tag_is_singleton(self):
        store = TagStore()
        assert store.export_table_tag() == store.export_table_tag()
        assert store.export_table_tag().type is TagType.EXPORT_TABLE

    def test_distinct_types_never_collide(self):
        store = TagStore()
        n = store.netflow_tag("1.1.1.1", 1, "2.2.2.2", 2)
        p = store.process_tag(0x1000)
        f = store.file_tag("x", 1)
        e = store.export_table_tag()
        assert len({n, p, f, e}) == 4

    def test_exhaustion_raises(self):
        store = TagStore()
        for i in range(MAX_TAG_INDEX + 1):
            store.process_tag(i)
        with pytest.raises(TagSpaceExhausted):
            store.process_tag(MAX_TAG_INDEX + 1)

    def test_sizes(self):
        store = TagStore()
        store.process_tag(1)
        store.process_tag(2)
        store.file_tag("a", 1)
        assert store.sizes() == {"netflow": 0, "process": 2, "file": 1, "export": 0}

    def test_augmented_export_tags(self):
        store = TagStore()
        anon = store.export_table_tag()
        named = store.export_table_tag("LoadLibraryA")
        again = store.export_table_tag("LoadLibraryA")
        other = store.export_table_tag("VirtualAlloc")
        assert anon.index == 0 and named.index != 0
        assert named == again and named != other
        assert store.export_function(named) == "LoadLibraryA"
        assert store.export_function(anon) is None
        assert store.describe(named) == "ExportTable(LoadLibraryA)"
        assert store.sizes()["export"] == 2

    def test_describe_paper_netflow_format(self):
        store = TagStore()
        tag = store.netflow_tag("169.254.26.161", 4444, "169.254.57.168", 49162)
        text = store.describe(tag)
        assert "169.254.26.161:4444" in text and text.startswith("NetFlow:")

    def test_describe_process_uses_osi_name(self):
        store = TagStore()
        tag = store.process_tag(0x1640)
        store.process_names[0x1640] = "notepad.exe"
        assert store.describe(tag) == "Process: notepad.exe"

    def test_describe_process_without_name_shows_cr3(self):
        store = TagStore()
        tag = store.process_tag(0x1640)
        assert "cr3=0x1640" in store.describe(tag)
