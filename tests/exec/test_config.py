"""Backend selection: env vars, forced overrides, and scoping."""

import pytest

from repro.exec import config


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    for var in ("REPRO_BACKEND", "REPRO_WORKERS"):
        monkeypatch.delenv(var, raising=False)
    config.set_backend(None)
    yield
    config.set_backend(None)


def test_defaults():
    assert config.backend_name() == "inline"
    assert config.worker_count() >= 1


def test_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert config.backend_name() == "process"
    assert config.worker_count() == 3


def test_env_is_case_and_space_tolerant(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "  Process ")
    assert config.backend_name() == "process"


def test_invalid_names_raise(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    with pytest.raises(ValueError, match="unknown backend"):
        config.backend_name()
    monkeypatch.setenv("REPRO_BACKEND", "inline")
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match="REPRO_WORKERS.*at least 1"):
        config.worker_count()
    # A non-integer names the variable instead of a bare int() error.
    monkeypatch.setenv("REPRO_WORKERS", "two")
    with pytest.raises(ValueError, match="REPRO_WORKERS 'two'.*at least 1"):
        config.worker_count()


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_override_is_validated_up_front(workers):
    # The in-process overrides reject what REPRO_WORKERS rejects, instead
    # of letting the query die later in chunk routing.
    with pytest.raises(ValueError, match="workers.*at least 1"):
        config.set_backend("process", workers=workers)
    with pytest.raises(ValueError, match="workers.*at least 1"):
        with config.use_backend("process", workers=workers):
            pass
    assert config.backend_name() == "inline"  # nothing was left forced


def test_forced_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "inline")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    config.set_backend("process", workers=2)
    assert config.backend_name() == "process"
    assert config.worker_count() == 2
    config.set_backend(None)
    assert config.backend_name() == "inline"
    assert config.worker_count() == 3


def test_use_backend_scopes_and_restores():
    with config.use_backend("process", workers=2):
        assert config.backend_name() == "process"
        assert config.worker_count() == 2
        with config.use_backend("inline"):
            assert config.backend_name() == "inline"
        assert config.backend_name() == "process"
    assert config.backend_name() == "inline"


def test_use_backend_none_is_noop():
    config.set_backend("process", workers=2)
    with config.use_backend(None, workers=7):
        # None keeps the ambient setting entirely — workers included.
        assert config.backend_name() == "process"
        assert config.worker_count() == 2
    assert config.backend_name() == "process"


def test_use_backend_restores_on_error():
    with pytest.raises(RuntimeError):
        with config.use_backend("process"):
            raise RuntimeError("boom")
    assert config.backend_name() == "inline"
