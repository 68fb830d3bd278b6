import pytest
from hypothesis import settings

from voxpillar.grid import GridSpec

# Property tests are derandomized so a tier-1 run is reproducible, keep no
# example database on disk, and have no per-example deadline. Tests set only
# their own max_examples on top of this profile.
settings.register_profile("voxpillar", derandomize=True, database=None, deadline=None)
settings.load_profile("voxpillar")


@pytest.fixture
def desk_grid():
    # 64 x 64 x 16 cells at the production cell size
    return GridSpec(range_min=(0.0, 0.0, 0.0), range_max=(6.4, 6.4, 2.4),
                    voxel_size=(0.1, 0.1, 0.15))

