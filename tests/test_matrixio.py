import re

import numpy as np
import pytest

from sqrtminvol.errors import InvalidInputError
from sqrtminvol.matrixio import read_matrix, write_matrix


def test_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(23)
    M = rng.normal(size=(7, 3)) * np.exp(rng.normal(size=(7, 3)) * 8)
    path = tmp_path / "m.txt"
    write_matrix(path, M)
    np.testing.assert_array_equal(read_matrix(path), M)


def test_identity_text_layout(tmp_path):
    path = tmp_path / "eye.txt"
    write_matrix(path, np.eye(2))
    assert path.read_text() == "2 2\n1 0\n0 1\n"


def test_rewrite_is_deterministic(tmp_path):
    M = np.random.default_rng(4).random((3, 5))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(a, M)
    write_matrix(b, M)
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_reports_path(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(InvalidInputError, match="nope.txt"):
        read_matrix(missing)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n1 0\n0 1\n", ":1: expected 'rows cols', got '2'"),
        ("", ": empty file"),
        ("2 1.5\n1 0\n", ":1: expected integer 'rows cols'"),
        ("0 2\n", ":1: non-positive dimensions 0x2"),
    ],
    ids=["one-field", "empty", "non-integer", "non-positive"],
)
def test_bad_header_is_named(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(path) + message)}$"):
        read_matrix(path)


# A blank line before the bad row still counts: the error names the file's line.
@pytest.mark.parametrize(
    "text, line",
    [("2 2\n1 0\n0\n", 3), ("2 2\n1 2\n\n3 4 5\n", 4)],
    ids=["plain", "after-blank"],
)
def test_short_row_reports_its_line(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=rf":{line}: expected 2 values"):
        read_matrix(path)


@pytest.mark.parametrize(
    "text, line", [("1 2\n1 x\n", 2), ("2 2\n\n1 2\n3 x\n", 4)], ids=["plain", "after-blank"]
)
def test_non_numeric_token_rejected(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=rf":{line}: could not convert"):
        read_matrix(path)


def test_missing_rows_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 0\n0 1\n")
    with pytest.raises(InvalidInputError):
        read_matrix(path)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n\n1 inf\n")
    with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(path))}:4: non-finite"):
        read_matrix(path)


@pytest.mark.parametrize("line", [1, 3])
def test_byte_that_is_not_ascii_names_file_and_line(tmp_path, line):
    lines = [b"2 2", b"1 2", b"3 4"]
    lines[line - 1] += b" \xe9"
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = f"{path}:{line}: byte 0xe9 is not ascii text"
    with pytest.raises(InvalidInputError, match=rf"^{re.escape(message)}$"):
        read_matrix(path)


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(InvalidInputError):
        write_matrix(tmp_path / "m.txt", np.array([[np.nan, 1.0]]))
