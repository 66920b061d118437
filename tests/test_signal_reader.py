"""cli.read_signal_file (numpy's CSV reader) against the csv.reader +
float() route it replaced, kept here as the reference."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfilt import cli
from fracfilt.errors import ValidationError


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def reference_read(path):
    """The csv.reader + float() reader, as it was before numpy parsed the
    file."""
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        for rec in csv.reader(fh):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            if not rows and not _is_number(rec[0]):
                continue  # header
            rows.append(rec)
    if not rows:
        raise ValidationError(f"{path}: no samples found")
    width = len(rows[0])
    if width not in (2, 3) or any(len(r) != width for r in rows):
        raise ValidationError(f"{path}: expected uniform rows of 2 or 3 columns")
    try:
        x = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        valid = np.array([int(float(r[2])) for r in rows]) if width == 3 else None
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric sample: {exc}") from None
    return x, values, valid


BODY = "0.0,1.5\n0.1,-2.25\n0.2,3e-310\n0.30000000000000004,1e300\n"

ACCEPTED = {
    "header": "x,value\n" + BODY,
    "no header": BODY,
    "two header rows": "# exported by a logger\nx,value\n" + BODY,
    "blank lines": "x,value\n\n0.0,1.5\n   \n0.1,2.5\n\t\n0.2,3.5\n\n",
    "separator-only lines": "x,value\n,,\n0.0,1.5\n , \n0.1,2.5\n,\n0.2,3.5\n,,,\n",
    "quoted empty cells": 'x,value\n"",""\n0.0,1.5\n0.1,2.5\n',
    "crlf": ("x,value\n" + BODY).replace("\n", "\r\n"),
    "no final newline": "x,value\n0.0,1.5\n0.1,2.5",
    "three columns": "x,value,valid\n0.0,1.5,1\n0.1,nan,0\n0.2,2.5,1.0\n0.3,3.5,-0\n",
    "quoted cells": '"x","value"\n"0.0","1.5"\n0.1,"2.5"\n"0.2",3.5\n',
    "padded cells": "x , value\n 0.0 , 1.5 \n\t0.1,\t2.5\n",
    "special floats": "x,value\n0.0,nan\n0.1,-inf\n0.2,+1e3\n0.3,Infinity\n0.4,-NaN\n",
    "exact digits": "x,value\n0.1,0.30000000000000004\n0.2,2.2250738585072014e-308\n"
                    "0.3,4.9e-324\n0.4,1.7976931348623157e+308\n",
}

REJECTED = {
    "ragged rows": "x,value\n0.0,1.5\n0.1,2.5,1\n",
    "one column": "x\n0.0\n0.1\n",
    "four columns": "a,b,c,d\n0,1,2,3\n1,2,3,4\n",
    "non-numeric cell": "x,value\n0.0,1.5\n0.1,abc\n",
    "non-numeric first cell after the data": "x,value\n0.0,1.5\nend,2.5\n",
    "empty file": "",
    "blank file": "\n \n,,\n",
    "header only": "x,value\n",
    "nan in the valid column": "x,value,valid\n0.0,1.5,1\n0.1,2.5,nan\n",
}


def _write(tmp_path, text):
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return str(path)


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepted_files_match_the_reference(tmp_path, name):
    path = _write(tmp_path, ACCEPTED[name])
    got = cli.read_signal_file(path)
    ref = reference_read(path)
    for g, r in zip(got, ref):
        if r is None:
            assert g is None
        else:
            assert g.dtype == r.dtype
            assert np.array_equal(g, r, equal_nan=True)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_files_raise_validation_errors(tmp_path, name):
    path = _write(tmp_path, REJECTED[name])
    with pytest.raises(ValidationError):
        reference_read(path)
    with pytest.raises(ValidationError):
        cli.read_signal_file(path)


def test_digit_grouping_underscores_are_refused(tmp_path, capsys):
    """float() reads '1_0' as 10.0; numpy's parser does not, and the CLI
    now exits 1 where the csv route accepted the file."""
    path = _write(tmp_path, "x,value\n0.0,1_0\n0.1,2.0\n0.2,3.0\n")
    assert reference_read(path)[1][0] == 10.0
    with pytest.raises(ValidationError):
        cli.read_signal_file(path)
    code = cli.main(["filter", "--family", "gl", "--nu", "1", "-i", path,
                     "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert "1_0" in capsys.readouterr().err


def test_infinite_valid_flag_exits_one(tmp_path, capsys):
    """int(float('-inf')) raised a bare OverflowError in the csv route, a
    traceback out of the CLI; now it is a validation error."""
    path = _write(tmp_path, "x,value,valid\n0.0,1.5,1\n0.1,2.5,-inf\n0.2,3.5,1\n")
    with pytest.raises(OverflowError):
        reference_read(path)
    code = cli.main(["filter", "--family", "gl", "--nu", "1", "-i", path,
                     "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert "valid flag" in capsys.readouterr().err


def test_byte_order_mark_exits_one(tmp_path, capsys):
    """A UTF-8 byte order mark is not ASCII; it is a validation error, not
    a UnicodeDecodeError traceback."""
    path = str(tmp_path / "bom.csv")
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbfx,value\n0,1\n1,2\n2,3\n")
    with pytest.raises(ValidationError, match="not ASCII"):
        cli.read_signal_file(path)
    code = cli.main(["filter", "--family", "gl", "--nu", "1", "-i", path,
                     "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("fracfilt: error:")


def numpy_is_header(line):
    """Header test by numpy's reader on the one line, as the reader once
    made it for every leading row."""
    try:
        float(np.loadtxt([line], dtype=str, delimiter=",", ndmin=2, comments=None,
                         quotechar='"')[0, 0])
    except ValueError:
        return True
    return False


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet='"",,,1.5e-+ \t\x00\x0bxn', min_size=1, max_size=12),
       st.booleans())
@example('"1.5",2', True)
@example('"1.5', True)
@example('"1""5",2', True)
@example('"1"5,2', True)
@example(' "1",2', True)
@example('""",1', True)
@example('"1,5",2', True)
@example('"-inf" ,0', True)
def test_header_test_cuts_the_first_cell_as_numpy_does(body, newline):
    line = body + "\n" if newline else body
    assert cli._is_header(line) == numpy_is_header(line)


def _count_loadtxt(monkeypatch):
    calls = []
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.np, "loadtxt", counting)
    return calls


def test_many_non_numeric_rows_need_no_parse_per_row(tmp_path, monkeypatch, capsys):
    """Every row of this file is a header; deciding so takes no numpy
    parse at all, where it once took one per row (21.7 s at 2e4 rows)."""
    path = _write(tmp_path, "".join(f"np.float64({k}),np.float64({k})\n"
                                    for k in range(20000)))
    calls = _count_loadtxt(monkeypatch)
    code = cli.main(["filter", "--family", "gram", "--N", "4", "--nu", "0.5",
                     "-i", path, "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert "no samples found" in capsys.readouterr().err
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["header", "no header", "two header rows", "quoted cells"])
def test_a_readable_file_is_parsed_once(tmp_path, monkeypatch, name):
    path = _write(tmp_path, ACCEPTED[name])
    calls = _count_loadtxt(monkeypatch)
    cli.read_signal_file(path)
    assert len(calls) == 1


# the cli-window benchmark designs: (family, N, extra flags)
WINDOW_DESIGNS = [
    ("gram", 4, []),
    ("gram", 16, []),
    ("hahn", 16, ["--alpha", "0.5", "--beta", "0.5"]),
]


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("family, N, extra", WINDOW_DESIGNS)
def test_filter_output_is_byte_identical_to_the_reference_reader(
        tmp_path, monkeypatch, family, N, extra, causal):
    x = np.arange(1500) * 1e-3
    values = x * x + 1e-3 * np.random.default_rng(11).standard_normal(x.size)
    src = tmp_path / "in.csv"
    with open(src, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, values))
    argv = ["filter", "--family", family, "--nu", "0.5", "--N", str(N), *extra,
            *(["--causal"] if causal else []), "-i", str(src)]
    assert cli.main(argv + ["-o", str(tmp_path / "new.csv")]) == 0
    monkeypatch.setattr(cli, "read_signal_file", reference_read)
    assert cli.main(argv + ["-o", str(tmp_path / "ref.csv")]) == 0
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
