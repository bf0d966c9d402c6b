"""Fixtures shared by every test module."""

import pytest

from slmprecode import harness


@pytest.fixture(autouse=True)
def no_kept_channels(monkeypatch):
    """Each test starts with no channel kept by ``harness.load_channel``,
    so the order tests run in cannot hide a stale channel."""
    monkeypatch.setattr(harness, "_channels", {})
    monkeypatch.setattr(harness, "_channel_entries", 0)
