import os
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture
def forks(monkeypatch):
    """verify's report worker as on a machine with two usable CPUs: the pids
    that called ``os.fork``, and no child left unreaped at the end."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork, callers = os.fork, []

    def counted_fork():
        callers.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield callers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
