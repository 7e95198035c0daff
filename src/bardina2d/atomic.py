"""Output files that appear whole or not at all.

Every file is written to a sibling, `path` + PARTIAL, and renamed onto
`path` with os.replace, which replaces the target in one step, only once
the block that writes it has ended normally.  If the block raises (an
error, a KeyboardInterrupt), the siblings are removed and every `path`
keeps what it held before.  A killed process leaves at most stale
siblings, which the next write to the same path truncates.  The guarantee
covers a crash, an exception or an interrupt of the writing process;
durability across power loss (fsync) is not attempted.

`replacing(path)` writes one file.  `committing()` stages several, written
in any order, and renames them together, in the order they were staged,
when its block ends: an interrupt can then fall only between those renames.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

PARTIAL = ".partial"


@contextmanager
def committing():
    """Yield `stage(path) -> sibling path` for the block to write to; when
    the block ends normally rename every staged sibling onto its path, in
    staging order, and when it raises remove them all."""
    staged = []

    def stage(path):
        partial = os.fspath(path) + PARTIAL
        staged.append((partial, path))
        return partial

    try:
        yield stage
    except BaseException:
        for partial, _ in staged:
            try:
                os.remove(partial)
            except FileNotFoundError:
                pass
        raise
    for partial, path in staged:
        os.replace(partial, path)


@contextmanager
def replacing(path, mode="w"):
    """Open the sibling of `path` for writing in `mode` ("w": UTF-8 text
    with newlines as written, "wb": bytes) and commit it onto `path` when
    the block ends without an exception."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    with committing() as stage:
        with open(stage(path), mode, **text) as fh:
            yield fh
