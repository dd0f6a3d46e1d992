"""Every README command's output, byte for byte, against the committed manifest."""

from byte_manifest import digests, format_manifest, produce, read_manifest


def test_outputs_match_the_byte_manifest(tmp_path):
    produce(tmp_path)
    got, want = digests(tmp_path), read_manifest()
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    # The full table, so a deliberate change can be checked against the diff.
    assert not moved, f"outputs moved: {moved}\n{format_manifest(got)}"
