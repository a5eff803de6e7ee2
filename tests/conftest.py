import pathlib

import pytest

from decid import parse_document, validate_diagram

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    parsed = parse_document((FIXTURES / f"{name}.json").read_text())
    assert validate_diagram(parsed) == []
    return parsed


@pytest.fixture
def m1():
    return load("m1")


@pytest.fixture
def coin():
    return load("coin")


@pytest.fixture
def coin_utility():
    return load("coin_utility")


@pytest.fixture
def fig1():
    return load("fig1")


@pytest.fixture
def fig2a():
    return load("fig2a")


@pytest.fixture
def fig2b():
    return load("fig2b")


@pytest.fixture
def fig6a():
    return load("fig6a")
