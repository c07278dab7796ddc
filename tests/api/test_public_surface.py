"""The public surface is what ``__all__`` says it is — and nothing that
was deleted is still importable."""

import importlib

import pytest

PUBLIC_PACKAGES = ("repro", "repro.api", "repro.kernels")


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_legacy_pipeline_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".pipeline", package="repro")
