"""The CSV formatter of every artifact, on the standard library alone.

Every CSV the package writes goes through :func:`write_csv`.  A trajectory
record is ``"%.12g," % t`` followed, for each node x, by the cell
``"%.12g" % x + ",%.15g\\r\\n"``, whose ``%.15g`` the value fills: the
bytes of ``np.savetxt`` with these formats.

The module imports only ``sys`` and ``array``, so it also runs as a child
writer, ``python -S _csvout.py PATH``.  The child reads from stdin an
int64 header ``(n_records, grid_m)`` and then the raw native float64
values of ``times`` (n_records), ``x`` (grid_m) and ``fields``
(n_records x grid_m, row-major), and writes the ``t,x,value`` CSV of that
trajectory to PATH.  ``array('d').tolist()`` gives the same Python floats
as ``ndarray.tolist()``, so the file has the same bytes as the in-process
writer's.  An empty stdin writes no file and exits 0; a short feed or an
unwritable PATH prints one line to stderr and exits 1.
"""
import sys
from array import array

#: the tail of a coordinate cell that one value fills
VALUE = ",%.15g\r\n"


def write_csv(path, header: str, groups) -> str:
    """One CSV file: header row, then one ``%`` per ``(lead, cells, values)`` group.

    A group's rows are ``lead + cell`` for each of ``cells``, CRLF-ended row
    tails that hold the ``%`` formats ``values`` fill.  Callers format each
    repeated coordinate once, with ``%.12g``, into a lead or a cell, which
    gives the same bytes as ``np.savetxt``; one group is in memory at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for lead, cells, values in groups:
            fh.write((lead + lead.join(cells)) % tuple(values))
    return path


def cells(coords, tail: str) -> list:
    """``"%.12g" % c + tail`` for each float of ``coords``."""
    return [("%.12g" % c) + tail for c in coords]


def write_trajectory(path, times, x, rows) -> str:
    """``t,x,value`` CSV of ``rows[r][i]`` at ``(times[r], x[i])``, one record per ``%``."""
    row_cells = cells(x, VALUE)
    return write_csv(path, "t,x,value",
                     (("%.12g," % t, row_cells, row) for t, row in zip(times, rows)))


def _read(stream, n: int) -> list:
    values = array("d")
    values.fromfile(stream, n)
    return values.tolist()


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python -S _csvout.py PATH < header and float64 values", file=sys.stderr)
        return 2
    stream = sys.stdin.buffer
    head = stream.read(16)
    if not head:
        return 0
    try:
        n, m = array("q", head)
        times, x, values = _read(stream, n), _read(stream, m), _read(stream, n * m)
        write_trajectory(argv[1], times, x, (values[r * m:(r + 1) * m] for r in range(n)))
    except (EOFError, ValueError) as exc:
        print(f"short feed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
