import random
from pathlib import Path

import pytest

from paramvariety.ioeq import derive_io_basis
from paramvariety.model import load_model

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def viral_model():
    return load_model(MODELS / "viral.model")


@pytest.fixture(scope="session")
def lv_model():
    return load_model(MODELS / "lotka_volterra.model")


@pytest.fixture(scope="session")
def decay_model():
    return load_model(MODELS / "decay.model")


@pytest.fixture(scope="session")
def virus_full_model():
    return load_model(MODELS / "virus_full.model")


@pytest.fixture(scope="session")
def viral_io(viral_model):
    return derive_io_basis(viral_model)


@pytest.fixture(scope="session")
def lv_io(lv_model):
    return derive_io_basis(lv_model)


@pytest.fixture(scope="session")
def decay_io(decay_model):
    return derive_io_basis(decay_model)


@pytest.fixture(scope="session")
def viral_rgb(viral_io):
    return viral_io.gb


@pytest.fixture(scope="session")
def lv_rgb(lv_io):
    return lv_io.gb


@pytest.fixture()
def rng():
    return random.Random(20240817)
