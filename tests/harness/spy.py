"""A counting store backend for I/O-census tests."""

from __future__ import annotations

import collections
import os

from repro.catalog import LocalFSBackend


class SpyBackend(LocalFSBackend):
    """The local backend, counting calls by the store section (first
    path component under the root) they land in: mutating primitives
    in :attr:`calls`, file reads, existence probes and directory
    listings in :attr:`reads`.  Every object file read is recorded too.
    A guard that counts calls instead of reading a clock."""

    def __init__(self, root):
        super().__init__(root)
        self.spy_root = str(root)
        self.calls = collections.Counter()
        self.reads = collections.Counter()
        self.object_reads = []

    def _section(self, path):
        return os.path.relpath(path, self.spy_root).split(os.sep, 1)[0]

    def _note(self, op, path):
        self.calls[(op, self._section(path))] += 1

    def read_bytes(self, path):
        if path.endswith(".bin"):
            self.object_reads.append(os.path.basename(path))
        self.reads[("read_bytes", self._section(path))] += 1
        return super().read_bytes(path)

    def exists(self, path):
        self.reads[("exists", self._section(path))] += 1
        return super().exists(path)

    def listdir(self, path):
        self.reads[("listdir", self._section(path))] += 1
        return super().listdir(path)

    def write_bytes(self, path, data):
        self._note("write_bytes", path)
        return super().write_bytes(path, data)

    def write_stream(self, path):
        self._note("write_stream", path)
        return super().write_stream(path)

    def touch(self, path, when):
        self._note("touch", path)
        return super().touch(path, when)

    def remove(self, path):
        self._note("remove", path)
        return super().remove(path)

    def lock(self, path):
        self._note("lock", path)
        return super().lock(path)

    def in_section(self, section):
        return {op: n for (op, where), n in self.calls.items() if where == section}
