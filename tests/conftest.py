import collections
import os
import sys
import time
from pathlib import Path

import pytest

from akisub import cohort

# allow `import oracles` from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def digests(monkeypatch):
    """`file_sha256`'s kept digests, empty at the start of the test."""
    monkeypatch.setattr(cohort, "_digests", {})
    return cohort._digests


@pytest.fixture
def aged(monkeypatch):
    """`file_sha256` reads a clock far enough ahead that every file is older than the
    racy margin, so every digest whose file holds still is kept."""
    monkeypatch.setattr(cohort, "time_ns", lambda: time.time_ns() + 10 * cohort.RACY_MARGIN_NS)


@pytest.fixture
def rewrite_in_place():
    """`rewrite(path, data)` writes `data` over the start of the file at `path`, in
    its inode, and puts its mtime back. It first waits until a file changed now gets a
    later ctime than `path` has, since file timestamps are coarser than the clock: the
    rewrite is then one that a stat sees only in the ctime."""
    def rewrite(path: Path, data: bytes) -> None:
        before = path.stat()
        probe = path.with_name(path.name + ".probe")
        deadline = time.monotonic() + 10
        while True:
            probe.write_bytes(b"")
            if probe.stat().st_ctime_ns > before.st_ctime_ns:
                break
            assert time.monotonic() < deadline, "file ctimes did not move in 10 s"
        probe.unlink()
        with open(path, "r+b") as fh:
            fh.write(data)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))

    return rewrite


@pytest.fixture
def hash_reads(monkeypatch):
    """The bytes `file_sha256` reads from here on, by file name."""
    reads = collections.Counter()

    class Counted:
        def __init__(self, fh, name):
            self.fh, self.name = fh, name

        def read(self, size=-1):
            data = self.fh.read(size)
            reads[self.name] += len(data)
            return data

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def counting(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        counted = mode == "rb" and isinstance(file, (str, os.PathLike))  # not a pipe
        return Counted(fh, Path(file).name) if counted else fh

    monkeypatch.setattr(cohort, "open", counting, raising=False)
    return reads
