"""The package's top-level namespace."""

from types import ModuleType

import cpibounds


def test_star_import_binds_no_module():
    # ``from cpibounds import *`` must not bind, say, the module ``kb``
    # over the name a knowledge base usually has
    names = cpibounds.__all__
    assert [name for name in names if isinstance(getattr(cpibounds, name), ModuleType)] == []
    assert "kb" not in cpibounds.__all__ and hasattr(cpibounds, "kb")
