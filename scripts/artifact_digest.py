#!/usr/bin/env python3
"""SHA-256 of every file under one or more output directories.

    python3 scripts/artifact_digest.py DIR...

prints ``sha256  relative/path`` for each file, in sorted order, with the
path relative to the DIR it was found under.  Two builds write
byte-identical artifacts when the listings of their output trees are
equal, e.g. ``diff <(artifact_digest.py old) <(artifact_digest.py new)``.
"""
import hashlib
import sys
from pathlib import Path


def digests(root) -> list[str]:
    """``sha256  relative/path`` for each file under ``root``, sorted by path."""
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv=None) -> int:
    roots = sys.argv[1:] if argv is None else argv
    if not roots:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        lines = [line for root in roots for line in digests(root)]
    except NotADirectoryError as exc:
        print(exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
