import os

import pytest

from ttdbeam.dictionary import THREADS_ENV, worker_count


def test_explicit_request_wins(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    assert worker_count(3) == 3


def test_env_caps_auto(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    assert worker_count() == 1


def test_zero_means_auto(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "0")
    assert worker_count() == (os.cpu_count() or 1)


def test_unset_means_auto(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert worker_count() == (os.cpu_count() or 1)


def test_invalid_values_rejected(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "lots")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv(THREADS_ENV, "-2")
    with pytest.raises(ValueError):
        worker_count()
    with pytest.raises(ValueError):
        worker_count(0)
