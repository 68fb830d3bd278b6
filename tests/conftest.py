import numpy as np
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


def random_cloud(rng: np.random.Generator, n: int, spec: GridSpec, margin: float = 0.0) -> np.ndarray:
    """Uniform points inside the grid range (shrunk by margin per axis)."""
    lo = np.array(spec.range_min) + margin
    hi = np.array(spec.range_max) - margin
    pts = np.empty((n, 4))
    pts[:, :3] = rng.uniform(lo, hi, size=(n, 3))
    pts[:, 3] = rng.uniform(0.0, 1.0, size=n)
    return pts
