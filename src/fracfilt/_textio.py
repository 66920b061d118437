"""Text output shared by the writers: a destination is a path or an open
text stream."""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def _open_text(destination):
    """Yield a writable text stream for ``destination``.

    A path is opened as ASCII and closed on exit; anything with a
    ``write`` method is used as it is and left open for the caller.
    """
    if hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, "w", encoding="ascii") as stream:
            yield stream
