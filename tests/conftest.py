import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, so a failure seen once
# reproduces; each test's own ``max_examples`` still applies.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

DATA = Path(__file__).parent.parent / "src" / "meaning_games" / "data"


@pytest.fixture
def fig2_path() -> Path:
    return DATA / "fig2.game"


@pytest.fixture
def he_man_path() -> Path:
    return DATA / "he_man.disc"


@pytest.fixture
def man_him_path() -> Path:
    return DATA / "man_him.disc"
