import pytest

from symnorm import util


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        util.atomic_write_bytes(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []
