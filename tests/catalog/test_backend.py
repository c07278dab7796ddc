"""The store backend contract.

The store speaks to disk only through its backend; these tests pin what
:class:`LocalFSBackend` guarantees (atomic blob writes, appends,
namespace queries, locks), that ``CatalogStore`` uses a backend instance
it is given, and that the layout stays plain files.
"""

import json
import os

import pytest

from repro.catalog import CatalogStore, LocalFSBackend
from tests.harness.entries import make_entry


@pytest.fixture
def backend(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root, exist_ok=True)
    return LocalFSBackend(root)


class TestBackendContract:
    def test_write_read_roundtrip(self, backend):
        path = os.path.join(backend.root, "dir", "blob.bin")
        backend.makedirs(os.path.dirname(path))
        backend.write_bytes(path, b"hello")
        assert backend.read_bytes(path) == b"hello"
        with backend.open_read(path) as handle:
            assert handle.read(2) == b"he"
        assert backend.size(path) == 5
        assert backend.exists(path)

    def test_overwrite_replaces(self, backend):
        path = os.path.join(backend.root, "blob.bin")
        backend.write_bytes(path, b"first")
        backend.write_bytes(path, b"second and longer")
        assert backend.read_bytes(path) == b"second and longer"

    def test_append_creates_and_extends(self, backend):
        path = os.path.join(backend.root, "log.jsonl")
        backend.append_bytes(path, b"a\n")
        backend.append_bytes(path, b"b\n")
        assert backend.read_bytes(path) == b"a\nb\n"

    def test_write_stream_lands_atomically(self, backend):
        path = os.path.join(backend.root, "big.npz")
        with backend.write_stream(path) as handle:
            handle.write(b"chunk1")
            handle.write(b"chunk2")
        assert backend.read_bytes(path) == b"chunk1chunk2"

    def test_failed_write_stream_keeps_the_old_blob(self, backend):
        path = os.path.join(backend.root, "big.npz")
        backend.write_bytes(path, b"old")
        with pytest.raises(RuntimeError):
            with backend.write_stream(path) as handle:
                handle.write(b"half")
                raise RuntimeError("writer died mid-stream")
        assert backend.read_bytes(path) == b"old"
        assert backend.listdir(backend.root) == ["big.npz"]  # no temp left

    def test_remove_and_missing_errors(self, backend):
        path = os.path.join(backend.root, "gone.bin")
        backend.write_bytes(path, b"x")
        backend.remove(path)
        assert not backend.exists(path)
        with pytest.raises(FileNotFoundError):
            backend.remove(path)
        with pytest.raises(FileNotFoundError):
            backend.read_bytes(path)
        with pytest.raises(OSError):
            backend.size(path)

    def test_namespace_queries(self, backend):
        inner = os.path.join(backend.root, "objects", "ab")
        backend.makedirs(inner)
        backend.write_bytes(os.path.join(inner, "x.bin"), b"1")
        backend.write_bytes(os.path.join(inner, "y.bin"), b"2")
        assert backend.isdir(os.path.join(backend.root, "objects"))
        assert backend.isdir(inner)
        assert not backend.isdir(os.path.join(inner, "x.bin"))
        assert sorted(backend.listdir(inner)) == ["x.bin", "y.bin"]
        assert backend.listdir(os.path.join(backend.root, "objects")) == ["ab"]

    def test_lock_is_reentrant_context(self, backend):
        lock_path = os.path.join(backend.root, "some", ".lock")
        with backend.lock(lock_path):
            with backend.lock(lock_path):
                pass  # same-thread re-entry must not deadlock

    def test_disk_bytes_positive_after_writes(self, backend):
        backend.write_bytes(os.path.join(backend.root, "a.bin"), b"x" * 100)
        assert backend.disk_bytes() >= 100


class TestBackendSeam:
    def test_instance_passthrough(self, tmp_path):
        backend = LocalFSBackend(str(tmp_path / "cat"))
        assert CatalogStore(backend.root, backend=backend).backend is backend

    def test_a_backend_name_is_refused(self, tmp_path):
        with pytest.raises(TypeError, match="'local'"):
            CatalogStore(str(tmp_path / "cat"), backend="local")

    def test_local_layout_is_plain_files(self, tmp_path):
        """One real file per object, readable without the store."""
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_object("fp1", {"name": "t"}, {"c": make_entry({"v"})})
        path = store._object_path("fp1")
        assert os.path.isfile(path)
        with open(path, "rb") as handle:
            assert handle.read() == store.backend.read_bytes(path)
        manifest = os.path.join(os.path.dirname(path), "manifest.json")
        with open(manifest) as handle:
            json.load(handle)  # a real JSON file on disk
