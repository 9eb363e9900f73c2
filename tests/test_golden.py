"""The golden-output tool's quick set is byte-for-byte reproducible."""

import golden


def test_quick_set_is_byte_identical_across_runs(tmp_path):
    first = golden.write_golden(tmp_path / "a")
    second = golden.write_golden(tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert not any(p.name.startswith("selfcheck-full") for p in first)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    # every method's denoise output and bench cell, and the transform dumps
    names = {p.name for p in first}
    for method in golden.METHODS:
        assert f"denoise-{method}-pad300.csv" in names
        assert f"bench-{method}-w2.json" in names
    assert "transform-bumps4096.sig.csv" in names
