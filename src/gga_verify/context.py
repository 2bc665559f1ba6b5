"""The caches that the cells of one verification run share.

`cli._cmd_verify` makes one `RunContext` per run and passes it to every
verifier.  A verifier called without a context makes one for that call, so
no result depends on call history and no cache outlives the run that filled
it.  The context is a plain class holding three dicts: the product series,
the level-zero walks and the quotient side's splitting memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .qseries import TruncatedSeries


class RunContext:
    """Results shared across cells, each dict keyed by all its value depends on.

    products:   `c_series(r, index, n)`, keyed by (r, index, n);
    level_zero: `partitions._level_zero_walk(r, n)`, keyed by (r, n): row s
                counts the admissible partitions by weight that have s
                parts <= 2, one walk answering `series_D` at every i;
    splits:     `hilbert._split` sub-problem series (coefficient tuples), keyed
                by (pivot p, the sorted `Monomial` generators on x_p and up,
                r, family tail start s), s None when no tail is implicit;
                each entry is the longest series computed for its key, and
                a smaller budget reads a prefix of it.
    """

    def __init__(self) -> None:
        self.products: dict[tuple[int, int, int], TruncatedSeries] = {}
        self.level_zero: dict[tuple[int, int], list[list[int]]] = {}
        self.splits: dict[tuple, tuple[int, ...]] = {}
