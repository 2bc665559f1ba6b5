"""Acceptance suite: one test per exit criterion, one printed line per criterion.

Every comparison is exact integer equality at the stated truncation; there
are no tolerances anywhere.  The per-criterion PASS/FAIL lines appear in the
"acceptance criteria" section at the end of the pytest run (and inline when
run with -s).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from gga_verify.hilbert import build_L_k_ell, hp_brute, hp_notation, hp_split
from gga_verify.monomial import MonomialIdeal
from gga_verify.partitions import allowed_parts_C, count_C, count_D, series_D, series_E
from gga_verify.qseries import eq_up_to, product_geometric_inverses, series_one
from gga_verify.recursion import (
    c_series,
    coeff_table,
    verify_c_expansion,
    verify_hp_expansion,
    verify_hp_step,
    verify_limits,
    verify_mn_tables,
)

from oracles import (
    random_ideal,
    restricted_partition_count,
    transcribed_boundary_ideal,
    transcribed_family_ideal,
    valuation,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(log: list[str], number: int, label: str) -> Iterator[None]:
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number} ({label}): FAIL"
        log.append(line)
        print(line, flush=True)
        raise
    line = f"ACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - started:.1f}s]"
    log.append(line)
    print(line, flush=True)


def test_criterion_1_counts_agree_to_forty(acceptance_log) -> None:
    with criterion(acceptance_log, 1, "congruence counts equal gap counts, r<=4, n<=40"):
        started = time.perf_counter()
        # one product expansion and one level-zero walk per cell cover every
        # n <= 40; the count functions are checked once, at n = 40
        for r in (2, 3, 4):
            for i in range(1, r + 1):
                product_side = product_geometric_inverses(allowed_parts_C(r, r - i + 1, 40), 40)
                ok, mismatch = eq_up_to(product_side, series_D(r, i, 40), 40)
                assert ok, (r, i, mismatch)
                assert count_C(r, i, 40) == count_D(r, i, 40) == product_side[40], (r, i)
        assert time.perf_counter() - started < 60.0


def test_criterion_2_generalized_identities_to_thirty(acceptance_log) -> None:
    with criterion(acceptance_log, 2, "product side equals gap side through q^30, J<=2"):
        started = time.perf_counter()
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1, 2):
                    ell = r - i + 1
                    product_side = c_series(r, (r - 1) * J + ell, 30)
                    gap_side = series_E(r, i, J, 30)
                    ok, mismatch = eq_up_to(product_side, gap_side, 30)
                    assert ok, (r, i, J, mismatch)
        assert time.perf_counter() - started < 120.0


def test_criterion_3_hilbert_bridge_to_thirty(acceptance_log) -> None:
    with criterion(acceptance_log, 3, "quotient series equals gap series through q^30"):
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1, 2):
                    ideal = build_L_k_ell(2 * J + 1, i, r, 30)
                    ok, mismatch = eq_up_to(hp_brute(ideal), series_E(r, i, J, 30), 30)
                    assert ok, (r, i, J, mismatch)


def test_criterion_4_engine_equivalence(acceptance_log) -> None:
    with criterion(acceptance_log, 4, "split engine equals brute engine through q^25"):
        ideals = [
            build_L_k_ell(2 * J + 1, i, r, 25)
            for r in (2, 3)
            for i in range(1, r + 1)
            for J in (0, 1, 2)
        ]
        for seed in (424242, 2025):
            rng = random.Random(seed)
            ideals += [random_ideal(rng, 25) for _ in range(20)]
        for ideal in ideals:
            ok, mismatch = eq_up_to(hp_brute(ideal), hp_split(ideal), 25)
            assert ok, (str(ideal), mismatch)


def test_criterion_5_structure_notes(acceptance_log) -> None:
    with criterion(acceptance_log, 5, "ideal-family notes N1-N3 through q^25, r<=4, k<=9"):
        n = 25
        for r in (2, 3, 4):
            for k in range(1, 10):
                lhs = hp_notation(k, 1, r, n)
                step = k + 1 if k % 2 == 0 else k + 2
                assert eq_up_to(lhs, hp_notation(step, r, r, n), n)[0], ("N1", r, k)
                plain = MonomialIdeal.build(transcribed_family_ideal(k, None, r, n), k, n)
                assert eq_up_to(hp_notation(k, r, r, n), hp_brute(plain), n)[0], ("N2", r, k)
            for i in range(1, r + 1):
                for J in (0, 1, 2, 3, 4):  # keeps 2J+1 <= 9
                    via_ell = build_L_k_ell(2 * J + 1, i, r, n)
                    literal = transcribed_boundary_ideal(r, i, J, n)
                    assert set(via_ell.gens) == literal, ("N3 generators", r, i, J)
                    hp = hp_split(via_ell)
                    assert eq_up_to(hp, hp_notation(2 * J + 1, i, r, n), n)[0], ("N3", r, i, J)


def test_criterion_6_lemma_level_checks(acceptance_log) -> None:
    with criterion(acceptance_log, 6, "recursion lemmas: odd step, cascade, both expansions, q^25"):
        n = 25
        for r in (2, 3):
            for k in (1, 3, 5, 7):
                for ell in range(1, r + 1):
                    for J in range(0, (k - 1) // 2 + 1):
                        report = verify_hp_step(r, k, ell, J, n)
                        assert report.passed, report.to_json_dict()
            for J in (0, 1):
                for i in range(1, r + 1):
                    ell = r - i + 1
                    for d in range(J + 1, J + 5):
                        report = verify_hp_expansion(r, i, J, d, n)
                        assert report.passed, report.to_json_dict()
                        report = verify_c_expansion(r, ell, J, d, n)
                        assert report.passed, report.to_json_dict()


def test_criterion_7_table_equality_to_forty(acceptance_log) -> None:
    with criterion(acceptance_log, 7, "product/quotient coefficient tables equal through q^40"):
        n = 40
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1, 2):
                    report = verify_mn_tables(r, i, J, J + 4, n)
                    assert report.passed, report.to_json_dict()


def test_criterion_8_limit_shadows(acceptance_log) -> None:
    with criterion(acceptance_log, 8, "limit shadows: tails, vanishing entries, stabilized entries"):
        n = 30
        for r in (2, 3):
            for d in range(11):
                tail = hp_notation(2 * d + 3, r, r, n) - series_one(n)
                v = valuation(tail)
                assert v is not None and v >= 2 * d + 3, (r, d, v)
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1):
                    report = verify_limits(r, i, J, n)
                    assert report.passed, report.to_json_dict()
        # the vanishing clause, asserted directly on a table as well
        table = coeff_table("N", 2, 0, 2, n // 2 + 1, n)
        assert valuation(table.entry(2, n // 2 + 1)) is None


def test_criterion_9_classical_spot_values(acceptance_log) -> None:
    with criterion(acceptance_log, 9, "classical spot values n=0..8 against frozen golden"):
        golden = json.loads((GOLDEN / "classical_spot_values.json").read_text())
        frozen = [int(v) for v in golden["values"]]
        assert frozen == [1, 1, 1, 1, 2, 2, 2, 3, 4]
        for n in range(9):
            oracle = restricted_partition_count(n, [1, 4, 7])
            assert oracle == frozen[n] == count_C(golden["r"], golden["i"], n)
