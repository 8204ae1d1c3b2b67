import pytest

from tropical_heights.degeneration import DegenerationData


def rank1_tate_data(ell: int) -> DegenerationData:
    """Multiplicative-reduction degeneration data with v(q) = ell."""
    return DegenerationData(
        rank=1, embedding=[[ell]], gram=[[ell]], linear_part=[-ell]
    )


@pytest.fixture(scope="session")
def semistable_examples():
    from tropical_heights.heights import find_semistable_examples

    return find_semistable_examples(count=12)


@pytest.fixture(scope="session")
def torsion_examples():
    from tropical_heights.heights import find_semistable_examples

    return find_semistable_examples(count=6, want_torsion=True)
