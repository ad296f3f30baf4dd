"""Shared fixtures: the verify suite runs once per test session."""

import time

import pytest

from holring import verify


@pytest.fixture(scope="session")
def criterion_results():
    """run(number) -> (results, seconds) for one verify criterion, each
    criterion run and timed the first time it is asked for."""
    done = {}

    def run(number: int):
        if number not in done:
            start = time.monotonic()
            results = verify.run_checks(criteria=[number])
            done[number] = (results, time.monotonic() - start)
        return done[number]

    return run
