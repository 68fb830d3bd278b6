"""Exception hierarchy shared across the package."""


class VoxPillarError(Exception):
    """Base class for all validation and consistency errors."""


class EmptyGrid(VoxPillarError):
    """No point of the cloud falls inside the configured range."""


class ShapeMismatch(VoxPillarError):
    """Weight or feature dimensions disagree with the configured model."""


class SpecMismatch(VoxPillarError):
    """Convolution spec violates a structural invariant."""


class InvalidTensor(VoxPillarError):
    """Sparse tensor coordinates or features break a documented invariant."""


class ConsistencyViolation(VoxPillarError):
    """Voxel and pillar occupancy disagree in bird's eye view."""


class DegenerateBox(VoxPillarError):
    """Box with a non-positive dimension."""


class OutOfRange(VoxPillarError):
    """Scalar argument outside its documented domain."""


class FormatError(VoxPillarError):
    """Malformed binary file, manifest, or configuration."""
