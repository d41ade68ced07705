import germeval_mtl


def test_every_exported_name_resolves():
    missing = [name for name in germeval_mtl.__all__ if not hasattr(germeval_mtl, name)]
    assert not missing, f"__all__ names that the package does not define: {missing}"
