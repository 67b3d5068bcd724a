import pytest

import noonbell

REMOVED = ("ch_value", "chsh_value", "bell_wigner_values", "j_value", "q_single_b", "NoonParams")


@pytest.mark.parametrize("name", noonbell.__all__)
def test_exported_name_resolves(name):
    assert hasattr(noonbell, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported(name):
    assert name not in noonbell.__all__
    for module in (noonbell, noonbell.correlators, noonbell.inequalities):
        assert not hasattr(module, name)
