"""Behaviour pins: each paper scenario must reproduce its recorded
digest exactly (see ``scenarios.py`` for the runs and how to re-pin)."""

import pytest

from tests.golden.scenarios import SCENARIOS, load_pins

PINS = load_pins()


def test_every_scenario_is_pinned():
    assert sorted(PINS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_pin(name):
    assert SCENARIOS[name]() == PINS[name]
