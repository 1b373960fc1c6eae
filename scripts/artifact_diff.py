#!/usr/bin/env python3
"""Compare two output trees file by file, numbers by size of difference.

    python3 scripts/artifact_diff.py OLD NEW

prints one line per file found in either tree, in sorted order: either
``identical  path``, or ``path  max abs A  max rel R at FIELD`` over the
float fields it holds, or what makes it unequal.  Float fields are the columns of
a CSV whose every entry reads as a float, the float leaves of a ``.json``
file, and the decimal numbers (with a point or an exponent) in any other
text file.  The relative difference of a CSV column is its largest
absolute difference over the largest magnitude in either column, so a
near-zero entry is measured on the scale of its column; that of a JSON
leaf or a number in text is |a - b| / max(|a|, |b|), and it is ranked only
if max(|a|, |b|) is at least 1e-9 of the largest magnitude in the file, so
that a rounding move of a near-zero residual does not hide the real
moves.  The smaller numbers that moved are counted on the line instead, as
``(N smaller moved)``.  A nan differs from any number by inf, absolute
and relative, is always ranked, and equals another nan.  Every other field
must be equal: a CSV header, a non-numeric column, a JSON key, string,
bool or integer, the text around the numbers.  Exits 1 if a file is
missing from either tree or a non-float field differs, and 2 on a usage
error.
"""
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

# a decimal number with a point or an exponent; an integer is matched whole
# (and compared as text) so that its digits are not read as a float
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+)")


#: a JSON leaf or a number in text below this fraction of the file's largest is not ranked
SMALL = 1e-9


class Mismatch(Exception):
    """A non-float field differs: the trees do not hold the same artifacts."""


def _gap(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y)
    return math.inf if math.isnan(d) else d


def _group_diff(a: list, b: list) -> tuple[float, float]:
    """(absolute, relative) difference of two equal-length runs of floats."""
    d = max(map(_gap, a, b), default=0.0)
    if d == 0.0:
        return 0.0, 0.0
    scale = max(abs(x) for x in a + b if not math.isnan(x))
    return d, d / scale if scale else math.inf  # scale 0: a nan met zeros


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_groups(old: str, new: str):
    ro, rn = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not ro or not rn or ro[0] != rn[0]:
        raise Mismatch("CSV headers differ")
    if len(ro) != len(rn) or any(len(a) != len(b) for a, b in zip(ro, rn)):
        raise Mismatch("CSV shapes differ")
    for col in range(len(ro[0])):
        a = [_as_float(row[col]) for row in ro[1:]]
        b = [_as_float(row[col]) for row in rn[1:]]
        if None in a or None in b:
            if [row[col] for row in ro] != [row[col] for row in rn]:
                raise Mismatch(f"non-numeric column {ro[0][col]!r} differs")
        else:
            yield ro[0][col], a, b


def _json_groups(a, b, where="$"):
    if isinstance(a, float) and isinstance(b, float):
        yield where, [a], [b]
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Mismatch(f"keys of {where} differ")
        for key in a:
            yield from _json_groups(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"lengths of {where} differ")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_groups(x, y, f"{where}[{i}]")
    elif type(a) is not type(b) or a != b:
        raise Mismatch(f"{where} differs: {a!r} != {b!r}")


def _text_groups(old: str, new: str):
    if _NUMBER.split(old) != _NUMBER.split(new):
        raise Mismatch("text differs")
    for k, (a, b) in enumerate(zip(_NUMBER.findall(old), _NUMBER.findall(new))):
        if any(c in a + b for c in ".eE"):
            yield f"number {k}", [float(a)], [float(b)]
        elif a != b:
            raise Mismatch(f"integer {a} != {b}")


def compare(old: Path, new: Path) -> tuple[float, float, str, int]:
    """Max absolute and relative difference of the float fields of two files,
    the field of the largest relative one, and how many numbers below
    ``SMALL`` of the file's largest magnitude moved (none in a CSV).

    Raises Mismatch if any other field differs.
    """
    a, b = old.read_text(), new.read_text()
    if old.suffix == ".csv":
        groups = list(_csv_groups(a, b))
    elif old.suffix == ".json":
        groups = list(_json_groups(json.loads(a), json.loads(b)))
    else:
        groups = list(_text_groups(a, b))
    floor = 0.0
    if old.suffix != ".csv":
        floor = SMALL * max((abs(v) for _, x, y in groups for v in x + y if math.isfinite(v)),
                            default=0.0)
    dabs, drel, where, small = 0.0, 0.0, "", 0
    for field, x, y in groups:
        d = _group_diff(x, y)
        dabs = max(dabs, d[0])
        if all(abs(v) < floor for v in x + y):  # a nan is never small
            small += d[0] > 0.0
        elif d[1] > drel:
            drel, where = d[1], field
    return dabs, drel, where, small


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = map(Path, args)
    status = 0
    for rel in sorted(_files(old) | _files(new)):
        po, pn = old / rel, new / rel
        if not (po.is_file() and pn.is_file()):
            print(f"{rel}  missing in {old if not po.is_file() else new}")
            status = 1
        elif po.read_bytes() == pn.read_bytes():
            print(f"identical  {rel}")
        else:
            try:
                dabs, drel, where, small = compare(po, pn)
            except Mismatch as exc:
                print(f"{rel}  unequal: {exc}")
                status = 1
            else:
                print(f"{rel}  max abs {dabs:.3e}  max rel {drel:.3e} at {where or '-'}"
                      + (f"  ({small} smaller moved)" if small else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
