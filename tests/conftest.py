"""Checks that hold over the whole tier-1 run."""

import pytest

from cornercalc import chains
from cornercalc._linalg import rank


@pytest.fixture(autouse=True, scope="session")
def _elimination_rank_is_the_dense_rank():
    """Every elimination the run makes, so that of every ChainComplex it
    builds, gives the rank `_linalg.rank` gives the same columns."""
    eliminate = chains._pivot_columns

    def checked(columns):
        columns = list(columns)
        pivots = eliminate(columns)
        rows = max((max(col) + 1 for col in columns if col), default=0)
        assert len(pivots) == rank([[col.get(r, 0) for col in columns] for r in range(rows)])
        return pivots

    chains._pivot_columns = checked
    yield
    chains._pivot_columns = eliminate
