import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from zerolen import bounded_system, make_group


@pytest.fixture(scope="session")
def groups():
    return {
        "C3": make_group([3]),
        "C4": make_group([4]),
        "C22": make_group([2, 2]),
        "C5": make_group([5]),
        "C23": make_group([2, 2, 2]),
        "C24": make_group([2, 4]),
        "C33": make_group([3, 3]),
        "C2_4": make_group([2, 2, 2, 2]),
    }


# acceptance bounds per the criteria; the C2^4 sweep is the expensive one.
# The systems are built once per session; no sweep is cached, so criterion 07's
# delta_star runs a sweep of its own
ACCEPTANCE_BOUNDS = {
    "C3": 18,
    "C22": 18,
    "C4": 16,
    "C23": 16,
    "C5": 20,
    "C24": 16,
    "C33": 16,
    "C2_4": 12,
}


@pytest.fixture(scope="session")
def acceptance_systems(groups):
    return {
        name: bounded_system(groups[name], None, bound)
        for name, bound in ACCEPTANCE_BOUNDS.items()
    }
