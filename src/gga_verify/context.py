"""The caches that the cells of one verification run share.

`cli._verify_reports` makes one `RunContext` per run and passes it to every
verifier.  A verifier called without a context makes one for that call, so
no result depends on call history and no cache outlives the run that filled
it.  The context is a plain class holding three dicts: the product series,
the level-zero sweep and the quotient side's splitting memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .qseries import TruncatedSeries


class RunContext:
    """Results shared across cells, each dict keyed by all its value depends on.

    products:   `c_series(r, index, n)`, keyed by (r, index, n);
    level_zero: per weight n, the partitions of n counted by
                (smallest r whose difference conditions they meet,
                number of parts <= 2), one sweep answering every `count_D`;
    splits:     `hp_split` sub-problem series (coefficient tuples), keyed by
                (min_var, generators), the generators a sorted tuple of
                `Monomial`; each entry is the longest series computed for
                its key, and a smaller budget reads a prefix of it.
    """

    def __init__(self) -> None:
        self.products: dict[tuple[int, int, int], TruncatedSeries] = {}
        self.level_zero: dict[int, dict[tuple[int, int], int]] = {}
        self.splits: dict[tuple, tuple[int, ...]] = {}
