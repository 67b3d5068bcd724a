import pytest

import noonbell

REMOVED = (
    "ch_value",
    "chsh_value",
    "bell_wigner_values",
    "j_value",
    "q_single_b",
    "NoonParams",
    "FockVector",
    "FockOperator",
    "product_state",
)


@pytest.mark.parametrize("name", noonbell.__all__)
def test_exported_name_resolves(name):
    assert hasattr(noonbell, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported(name):
    assert name not in noonbell.__all__
    for module in (noonbell, noonbell.correlators, noonbell.inequalities, noonbell.fock):
        assert not hasattr(module, name)


def test_runs_without_scipy():
    """scipy is a test dependency only: the library and the CLI import and
    run with it blocked."""
    import subprocess
    import sys

    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from noonbell import cli\n"
        "sys.exit(cli.main(['optimize', 'ch', '--n', '1', '--starts', '2', '--grid', '3',"
        " '--format', 'text']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "best_value" in proc.stdout
