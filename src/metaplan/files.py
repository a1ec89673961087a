"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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
