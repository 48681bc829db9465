import pytest

from kdvhl import Field


class Kept(list):
    """Test-side observer: a copy of every state solve passes, in order, since
    solve itself keeps only its final state."""

    def __call__(self, field):
        self.append(Field(field.grid, field.values.copy(), field.t))


@pytest.fixture(scope="session")
def kept():
    """The Kept observer class; each call makes an empty record."""
    return Kept


def rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


@pytest.fixture
def relerr():
    return rel_err
