"""Every exported name resolves, so a deleted function leaves no stale export."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["susy_ces", "susy_ces.oracle",
                                    "susy_ces.scattering", "susy_ces.verify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
