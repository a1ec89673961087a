"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator


@contextmanager
def open_atomic(path: str | Path) -> Iterator[IO[str]]:
    """A text file to write in place of ``path``.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` with :func:`os.replace` when the block ends. If the block
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, data: Any) -> None:
    """Write ``data`` as 2-space JSON and a newline via :func:`open_atomic`."""
    with open_atomic(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
