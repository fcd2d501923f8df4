"""The sweep CSV writer: ``cli._write_csv`` writes finished lines in
blocks, ``cli._csv_line`` formats a row of values into one, and the bytes
must equal those of ``csv.writer`` for every kind of value the sweeps
emit.  The sweeps' row paths build each reported ``Fraction`` once and
no other."""

import csv
import io
import sys
from fractions import Fraction

import pytest

from synergy import bounds, cli, combinatorics

HEADER = ("K", "replication", "cache_fraction", "dof", "gap", "note")

# One row of each kind the sweeps emit: ints, floats (plain, exponent
# forms, signed zero and the non-finite spellings), exact ``n/d``
# strings, empty strings and None.
KINDS = (
    (2, 1, "1/2", 0.6666666666666666, "", None),
    (256, 255, "255/256", 1e-05, 1.2345678901234567e-300, ""),
    (-3, 0, "0/1", 1e16, 2.5e-07, None),
    (7, 3, "3/7", -0.0, 123456789.0, "49/20"),
    (10**30, 1, "1/1", float("inf"), float("nan"), float("-inf")),
    (None, None, "", 3.0, 0.1, 1e22),
)


def _rows(count):
    return [KINDS[i % len(KINDS)] for i in range(count)]


def _lines(count):
    return map(cli._csv_line, _rows(count))


def _csv_writer_text(rows):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


COUNTS = (0, 1, 255, 256, 257, 511, 512, 513)


@pytest.mark.parametrize("row", KINDS)
def test_line_equals_csv_writer_for_every_value_kind(row):
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(row)
    assert cli._csv_line(row) + "\r\n" == buffer.getvalue()


@pytest.mark.parametrize("count", COUNTS)
def test_file_bytes_equal_csv_writer(tmp_path, count):
    rows = _rows(count)
    ours, theirs = tmp_path / "block.csv", tmp_path / "csv.csv"
    cli._write_csv(HEADER, _lines(count), str(ours))
    with open(theirs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    assert ours.read_bytes() == theirs.read_bytes()
    assert ours.read_bytes() == _csv_writer_text(rows).encode()


@pytest.mark.parametrize("count", COUNTS)
def test_stdout_text_equals_csv_writer(capsys, count):
    rows = _rows(count)
    cli._write_csv(HEADER, _lines(count), None)
    ours = capsys.readouterr().out
    writer = csv.writer(sys.stdout)
    writer.writerow(HEADER)
    writer.writerows(rows)
    assert ours == capsys.readouterr().out == _csv_writer_text(rows)


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("count", COUNTS)
def test_writes_whole_lines_in_blocks(monkeypatch, count):
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli._write_csv(HEADER, _lines(count), None)
    lines = count + 1  # the header is a line of the first block
    assert len(recorder.writes) == -(-lines // cli._CSV_BLOCK)
    assert 1 < cli._CSV_BLOCK <= 512
    for text in recorder.writes:
        assert text.endswith("\r\n")
        assert text.count("\r\n") <= cli._CSV_BLOCK
    assert "".join(recorder.writes) == _csv_writer_text(_rows(count))


# At --kmax 32 each sweep has 31 * 32 / 2 = 496 cells.  The gap sweep
# builds one Fraction per cell (the value of its OuterBound) and the
# certificate's max_gap; the dof sweep builds two per row (the
# SynergyReport's cache_fraction and single_stream_time) and harmonic(n)
# for n in [1, 32].  Any other Fraction in a row path raises the count.
@pytest.mark.parametrize("mode, built", [("gap", 496 + 1), ("dof", 2 * 496 + 32)])
def test_sweep_row_paths_build_only_the_reported_fractions(monkeypatch, tmp_path, mode, built):
    for module in (bounds, combinatorics):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    count = 0
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original(cls, *args, **kwargs)

    argv = ["sweep", "--mode", mode, "--kmax", "32", "--output", str(tmp_path / f"{mode}.csv")]
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        assert cli.main(argv) == 0
    assert count == built
    assert Fraction(2, 4) == Fraction(1, 2) and count == built  # the constructor is restored
