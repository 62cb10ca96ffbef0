"""File format round trips and malformed-input handling."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsradapt import SeparatedMatrix, Shape, materialize
from lsradapt.io import (
    MAGIC,
    MemoryCapError,
    read_matrix,
    read_separated,
    write_matrix_binary,
    write_matrix_text,
    write_separated,
)

from oracles import stacked


def tricky_matrix():
    return np.array([[0.1, -1.0 / 3.0, 1e-308],
                     [1e300, -0.0, 123456789.123456789]])


def read_peak_bytes(path, error):
    """Peak traced allocation while ``read_matrix(path)`` raises ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            read_matrix(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        M = tricky_matrix()
        path = tmp_path / "m.lsrb"
        write_matrix_binary(path, M)
        back = read_matrix(path)
        assert back.tobytes() == M.tobytes()

    def test_magic_present(self, tmp_path):
        path = tmp_path / "m.lsrb"
        write_matrix_binary(path, np.eye(2))
        assert path.read_bytes()[:4] == MAGIC

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.lsrb"
        write_matrix_binary(path, np.eye(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_file_size_checked_before_reading(self, tmp_path):
        # a 1x1 header followed by 2 MiB: refused from the stat, unread
        path = tmp_path / "m.lsrb"
        write_matrix_binary(path, np.eye(1))
        with open(path, "ab") as fh:
            fh.write(bytes(2**21))
        assert read_peak_bytes(path, ValueError) < 2**20

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.lsrb"
        write_matrix_binary(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_matrix(path)


class TestTextFormat:
    def test_roundtrip_value_exact(self, tmp_path):
        M = tricky_matrix()
        path = tmp_path / "m.txt"
        write_matrix_text(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)

    def test_writer_matches_per_value_repr(self, tmp_path):
        M = tricky_matrix()
        path = tmp_path / "m.txt"
        write_matrix_text(path, M)
        want = "2 3\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in M)
        assert path.read_bytes() == want.encode("ascii")

    def test_header_shape(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_text(path, np.zeros((3, 5)))
        assert path.read_text().splitlines()[0] == "3 5"

    def test_random_roundtrip(self, tmp_path):
        g = np.random.default_rng(90)
        M = g.normal(size=(7, 4)) * 10.0 ** g.integers(-30, 30, size=(7, 4))
        path = tmp_path / "m.txt"
        write_matrix_text(path, M)
        assert np.array_equal(read_matrix(path), M)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "nope.txt")

    def test_header_checked_against_file_size_before_allocating(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("4096 4096\n1 2\n")
        assert path.stat().st_size == 14
        assert read_peak_bytes(path, ValueError) < 2**20

    def test_tightest_file_still_reads(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3 4")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_trailing_blank_lines_still_read(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3 4\n\n  \n\t\n")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("tail", ["5 6\n", "\n\n7", "\n" * 70000 + "x"],
                             ids=["extra-row", "after-blank-lines",
                                  "past-one-chunk"])
    def test_rows_past_the_header_rejected(self, tmp_path, tail):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3 4\n" + tail)
        with pytest.raises(ValueError) as info:
            read_matrix(path)
        assert str(path) in str(info.value)
        assert "past the 2 declared rows" in str(info.value)

    def test_long_tail_is_not_read_at_once(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n1\n" + " " * 2**22 + "x")
        assert read_peak_bytes(path, ValueError) < 2**20


@pytest.mark.parametrize("writer", [write_matrix_text, write_matrix_binary])
def test_memory_cap_checked_before_allocating(tmp_path, monkeypatch, writer):
    # a well-formed 400x400 file needs 1.22 MiB, over a 1 MiB cap
    path = tmp_path / "m"
    writer(path, np.zeros((400, 400)))
    monkeypatch.setenv("LSR_MEM_CAP_MB", "1")
    assert read_peak_bytes(path, MemoryCapError) < 2**20
    monkeypatch.setenv("LSR_MEM_CAP_MB", "2")
    assert np.array_equal(read_matrix(path), np.zeros((400, 400)))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        g = np.random.default_rng(91)
        S = SeparatedMatrix(Shape(6, 6), *stacked(
            [(float(g.normal()), [g.normal(size=(2, 3)),
                                  g.normal(size=(3, 2))])
             for _ in range(3)]))
        manifest = write_separated(S, tmp_path / "out", name="probe")
        back = read_separated(manifest)
        assert back.shape == S.shape
        assert len(back.terms) == 3
        for t1, t2 in zip(back.terms, S.terms):
            assert t1.weight == t2.weight
            for f1, f2 in zip(t1.factors, t2.factors):
                assert f1.tobytes() == f2.tobytes()
        assert np.array_equal(materialize(back), materialize(S))

    def test_empty_terms(self, tmp_path):
        S = SeparatedMatrix(Shape(4, 5))
        back = read_separated(write_separated(S, tmp_path, name="empty"))
        assert back.shape == Shape(4, 5)
        assert back.terms == ()

    @pytest.mark.parametrize("name", ["../up", "a/b", "a\\b", " lead",
                                      "trail ", "two\nlines", "cr\r",
                                      "caf\u00e9", "nul\x00"])
    def test_name_the_reader_refuses_is_refused_first(self, tmp_path, name):
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.eye(2)])]))
        with pytest.raises(ValueError, match="printable ASCII"):
            write_separated(S, tmp_path / "out", name=name)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["probe", "a b", "..", "x.y-z_1", ""])
    def test_accepted_name_reads_back(self, tmp_path, name):
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(2.0, [np.eye(2), np.ones((2, 2))])]))
        back = read_separated(write_separated(S, tmp_path, name=name))
        assert np.array_equal(materialize(back), materialize(S))
        assert sorted(p.parent for p in tmp_path.iterdir()) == [tmp_path] * 3

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "x.manifest"
        path.write_text("not a manifest\n")
        with pytest.raises(ValueError):
            read_separated(path)

    @pytest.mark.parametrize("link, inside", [
        ("probe_t001_f0.lsrb", False), ("probe.manifest", False),
        ("probe_t000_f1.lsrb", True)], ids=["factor", "manifest", "inside"])
    def test_symlinked_target_is_refused_before_any_write(self, tmp_path,
                                                          link, inside):
        out = tmp_path / "out"
        out.mkdir()
        victim = (out if inside else tmp_path) / "victim.txt"
        victim.write_bytes(b"not a factor\n")
        (out / link).symlink_to(victim)
        S = SeparatedMatrix(Shape(4, 4), *stacked(
            [(1.0, [np.eye(2), np.ones((2, 2))])] * 2))
        with pytest.raises(ValueError,
                           match=f"{link} is a symbolic link, not written"):
            write_separated(S, out, name="probe")
        assert victim.read_bytes() == b"not a factor\n"
        assert sorted(p.name for p in out.iterdir()) \
            == sorted({link, victim.name} if inside else {link})

    @pytest.mark.skipif(not hasattr(os, "O_NOFOLLOW"),
                        reason="the OS has no O_NOFOLLOW")
    def test_link_made_after_the_check_is_not_followed(self, tmp_path,
                                                       monkeypatch):
        # a link the check does not see (as if made after it) fails to open
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not a factor\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "probe_t000_f1.lsrb").symlink_to(victim)
        monkeypatch.setattr(Path, "is_symlink", lambda self: False)
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.ones((2, 2))])]))
        with pytest.raises(OSError):
            write_separated(S, out, name="probe")
        assert victim.read_bytes() == b"not a factor\n"


def _manifest_lines(tmp_path):
    g = np.random.default_rng(92)
    S = SeparatedMatrix(Shape(6, 6), *stacked(
        [(float(g.normal()), [g.normal(size=(2, 3)), g.normal(size=(3, 2))])
         for _ in range(2)]))
    path = write_separated(S, tmp_path, name="probe")
    return path, path.read_text().splitlines()


def _replace_last(key, new):
    """Replace the last line whose first word is key by the lines new."""
    def edit(lines):
        i = max(j for j, ln in enumerate(lines) if ln.split()[0] == key)
        return lines[:i] + new + lines[i + 1:]
    return edit


def _cut_after_last_term(lines):
    i = max(j for j, ln in enumerate(lines) if ln.startswith("term "))
    return lines[:i + 1]


def _negative_count_no_terms(lines):
    return lines[:2] + ["terms -3"]


def _swap_last_factors(lines):
    """Term 1 becomes 3x2 (x) 2x3 next to term 0's 2x3 (x) 3x2."""
    return lines[:-2] + [lines[-1], lines[-2]]


@pytest.mark.parametrize("edit", [
    _replace_last("terms", []), _replace_last("terms", ["terms"]),
    _replace_last("term", []), _replace_last("term", ["term"]),
    _replace_last("weight", []), _replace_last("weight", ["weight"]),
    _replace_last("shape", []), _cut_after_last_term,
    lambda lines: lines + ["garbage line"],
    _replace_last("weight", ["weight nan"]),
    _replace_last("weight", ["weight inf"]),
    _negative_count_no_terms, _replace_last("term", ["term 7"]),
    _swap_last_factors,
    _replace_last("shape", ["shape 6 7"]),
    _replace_last("shape", ["shape six 6"]),
    _replace_last("terms", ["terms two"]),
    _replace_last("weight", ["weight heavy"]),
], ids=["terms-missing", "terms-bare", "term-missing", "term-bare",
        "weight-missing", "weight-bare", "shape-missing", "cut-after-term",
        "trailing-line", "weight-nan", "weight-inf", "terms-negative",
        "term-wrong-index", "factors-swapped", "shape-wrong", "shape-text",
        "terms-text", "weight-text"])
def test_truncated_manifest_is_value_error(tmp_path, edit):
    path, lines = _manifest_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError) as info:
        read_separated(path)
    assert str(path) in str(info.value)


def _term_1_factors(*shapes):
    """Term 1's factors replaced by all-ones factor files of the shapes."""
    def edit(path, lines):
        i = lines.index("term 1") + 2
        new = []
        for j, shape in enumerate(shapes):
            rel = f"new_f{j}.lsrb"
            write_matrix_binary(path.parent / rel, np.ones(shape))
            new.append(f"factor {rel}")
        return lines[:i] + new
    return edit


@pytest.mark.parametrize("edit", [
    lambda path, lines: _swap_last_factors(lines),
    _term_1_factors((6, 1), (1, 6)), _term_1_factors((6, 6)),
    lambda path, lines: lines + [lines[-1]],
], ids=["factors-swapped", "mixed-shapes", "mixed-counts", "extra-factor"])
def test_term_unlike_term_0_is_refused_by_index(tmp_path, edit):
    # read by position, an extra factor would be dropped without a word
    path, lines = _manifest_lines(tmp_path)
    path.write_text("\n".join(edit(path, lines)) + "\n")
    with pytest.raises(ValueError, match="term 1 has factor shapes") as info:
        read_separated(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "dotdot"])
def test_factor_path_outside_manifest_dir_rejected(tmp_path, absolute):
    path, lines = _manifest_lines(tmp_path / "m")
    i = next(j for j, ln in enumerate(lines) if ln.startswith("factor "))
    factor = path.parent / lines[i].split()[1]
    outside = tmp_path / "other" / "f1.lsrb"
    outside.parent.mkdir()
    outside.write_bytes(factor.read_bytes())
    rel = str(outside) if absolute else "../other/f1.lsrb"
    lines[i] = f"factor {rel}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="leaves the manifest directory"):
        read_separated(path)


def _link_first_factor(path, lines, target_dir):
    """Move the manifest's first factor file into target_dir and leave a
    symlink to it in its place."""
    rel = next(ln for ln in lines if ln.startswith("factor ")).split()[1]
    factor = path.parent / rel
    target_dir.mkdir()
    factor.symlink_to(factor.rename(target_dir / rel))


def test_factor_symlinked_outside_manifest_dir_rejected(tmp_path):
    path, lines = _manifest_lines(tmp_path / "m")
    _link_first_factor(path, lines, tmp_path / "other")
    with pytest.raises(ValueError, match="leaves the manifest directory"):
        read_separated(path)


def test_factor_symlinked_inside_manifest_dir_accepted(tmp_path):
    path, lines = _manifest_lines(tmp_path / "m")
    want = materialize(read_separated(path))
    _link_first_factor(path, lines, tmp_path / "m" / "store")
    assert np.array_equal(materialize(read_separated(path)), want)


@pytest.mark.parametrize("link_to", ["inside", "outside"])
def test_factor_under_a_symlinked_directory(tmp_path, link_to):
    path, lines = _manifest_lines(tmp_path / "m")
    want = materialize(read_separated(path))
    i = next(j for j, ln in enumerate(lines) if ln.startswith("factor "))
    rel = lines[i].split()[1]
    store = tmp_path / ("m" if link_to == "inside" else "other") / "store"
    store.mkdir(parents=True)
    (path.parent / rel).rename(store / rel)
    (path.parent / "link").symlink_to(store)
    lines[i] = f"factor ./link//{rel}"
    path.write_text("\n".join(lines) + "\n")
    if link_to == "inside":
        assert np.array_equal(materialize(read_separated(path)), want)
    else:
        with pytest.raises(ValueError, match="leaves the manifest directory"):
            read_separated(path)


def test_factor_path_through_dotdot_inside_accepted(tmp_path):
    path, lines = _manifest_lines(tmp_path / "m")
    want = materialize(read_separated(path))
    (path.parent / "sub").mkdir()
    lines = [f"factor sub/../{ln.split()[1]}" if ln.startswith("factor ")
             else ln for ln in lines]
    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(materialize(read_separated(path)), want)


def test_oversized_factor_keeps_memory_cap_error(tmp_path, monkeypatch):
    path, _ = _manifest_lines(tmp_path)
    monkeypatch.setenv("LSR_MEM_CAP_MB", "0")
    with pytest.raises(MemoryCapError) as info:
        read_separated(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "probe_t000_f0.lsrb" in str(info.value)


def _assert_names(info, *paths):
    """The refusal is a plain ValueError (not a UnicodeDecodeError, whose
    message ignores a rewrite) that names every path given."""
    assert type(info.value) is ValueError
    for path in paths:
        assert str(path) in str(info.value)


def test_non_ascii_text_matrix_names_the_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"2 2\n1 \xff\n3 4\n")
    with pytest.raises(ValueError) as info:
        read_matrix(path)
    _assert_names(info, path)
    assert "0xff" in str(info.value)


def test_non_ascii_factor_file_names_factor_and_manifest(tmp_path):
    path, lines = _manifest_lines(tmp_path)
    factor = path.parent / lines[-1].split()[1]
    factor.write_bytes(b"\xff\xfe 2 2\n")
    with pytest.raises(ValueError) as info:
        read_separated(path)
    _assert_names(info, path, factor)
    assert str(info.value).startswith(f"{path}: ")


def test_non_ascii_manifest_names_the_manifest(tmp_path):
    path, lines = _manifest_lines(tmp_path)
    path.write_bytes(("\n".join(lines[:2]) + "\n").encode("ascii")
                     + b"terms \xff2\n")
    with pytest.raises(ValueError) as info:
        read_separated(path)
    _assert_names(info, path)
    assert str(info.value).startswith(f"{path}: ")


def test_missing_factor_file_names_factor_and_manifest(tmp_path):
    path, lines = _manifest_lines(tmp_path)
    (path.parent / lines[-1].split()[1]).unlink()
    with pytest.raises(ValueError) as info:
        read_separated(path)
    _assert_names(info, path, lines[-1].split()[1])
