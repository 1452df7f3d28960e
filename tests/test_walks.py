import json
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz_tau import groupalg, verify
from hurwitz_tau.errors import SizeLimitError
from hurwitz_tau.groupalg import (
    Segment,
    WalkQuery,
    class_representative,
    conjugacy_classes,
    cycle_type,
    count_walks,
    count_walks_all_targets,
    count_walks_to,
    graded_walks_to,
    mixed,
    multi_monotone,
    plain,
    plain_count_via_class_dp,
    strictly_monotone,
    weak_then_strict,
    weakly_monotone,
)
from hurwitz_tau.partitions import format_partition, partitions_of
from hurwitz_tau.tauseries import WALK_KINDS
from hurwitz_tau.twists import connection_coeffs


def test_three_step_examples_in_s3():
    assert count_walks(WalkQuery(3, (1, 1, 1), (3,), plain(2))) == 3
    assert count_walks(WalkQuery(3, (1, 1, 1), (3,), weakly_monotone(2))) == 2
    assert count_walks(WalkQuery(3, (1, 1, 1), (3,), strictly_monotone(2))) == 1


def test_zero_step_walks_are_kronecker_delta():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = 1 if lam == mu else 0
                assert count_walks(WalkQuery(n, lam, mu, plain(0))) == expected


def test_strict_longer_than_n_minus_1_vanishes():
    for n in range(2, 6):
        for lam in partitions_of(n):
            counts = count_walks_all_targets(n, lam, strictly_monotone(n))
            assert counts == {}


def test_degenerations():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            q = lambda segs: count_walks(WalkQuery(4, lam, mu, segs))
            assert q(multi_monotone([2])) == q(strictly_monotone(2))
            assert q(mixed(3, 3)) == q(weakly_monotone(3))
            assert q(mixed(0, 2)) == q(plain(2))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment("weird", 1)
    with pytest.raises(ValueError):
        mixed(3, 2)
    with pytest.raises(ValueError):
        WalkQuery(3, (2, 1), (2, 2), plain(1))


def test_multi_monotone_segment_order_is_immaterial():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            a = count_walks(WalkQuery(4, lam, mu, multi_monotone([1, 2])))
            b = count_walks(WalkQuery(4, lam, mu, multi_monotone([2, 1])))
            assert a == b


def test_weak_then_strict_matches_strict_then_weak():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            a = count_walks(WalkQuery(4, lam, mu, weak_then_strict(2, 2)))
            b = count_walks(
                WalkQuery(4, lam, mu, (Segment("strict", 2), Segment("weak", 2)))
            )
            assert a == b


def test_plain_class_dp_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            counts = {k: count_walks_all_targets(n, lam, plain(k)) for k in range(5)}
            for mu in partitions_of(n):
                for k in range(5):
                    assert plain_count_via_class_dp(n, lam, mu, k) == counts[k].get(
                        mu, 0
                    )


def test_representative_independence():
    # every member of a class ends as many walks from each start class as
    # the representative does, and those counts are count_walks's
    for n in range(1, 6):
        for mu, members in conjugacy_classes(n).items():
            column = count_walks_to(n, class_representative(mu, n), weakly_monotone(3))
            for g in members:
                assert count_walks_to(n, g, weakly_monotone(3)) == column
            for lam in partitions_of(n):
                query = WalkQuery(n, lam, mu, weakly_monotone(3))
                assert column.get(lam, 0) == count_walks(query)


def test_transitive_examples():
    # a 0-step walk is transitive exactly when the start is a full cycle
    for n in range(2, 6):
        for lam in partitions_of(n):
            counts = count_walks_all_targets(n, lam, plain(0), transitive=True)
            if len(lam) == 1:
                assert counts == {lam: 1}
            else:
                assert counts == {}
    # in S_2 the single transposition step connects the two points
    assert count_walks(WalkQuery(2, (1, 1), (2,), plain(1), transitive=True)) == 1
    assert count_walks(WalkQuery(2, (1, 1), (1, 1), plain(2), transitive=True)) == 1
    # all three 2-step factorizations of a 3-cycle from the identity are
    # transitive (each uses two distinct transpositions)
    assert count_walks(WalkQuery(3, (1, 1, 1), (3,), plain(2), transitive=True)) == 3
    # ... but 2-step walks identity -> identity use a repeated transposition
    # and never connect all three points
    assert count_walks(WalkQuery(3, (1, 1, 1), (1, 1, 1), plain(2), transitive=True)) == 0


def test_transitive_at_most_plain():
    for n in range(2, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for k in range(4):
                    free = count_walks(WalkQuery(n, lam, mu, plain(k)))
                    connected = count_walks(
                        WalkQuery(n, lam, mu, plain(k), transitive=True)
                    )
                    assert 0 <= connected <= free


def test_n_9_is_refused_before_enumerating_s_9(monkeypatch):
    # one constant cap, 8: n = 9 raises before S_9 is listed or ranked
    def enumerate_s_n(n):
        raise AssertionError(f"enumerated S_{n}")

    monkeypatch.setattr(groupalg, "_all_perms", enumerate_s_n)
    for build in (conjugacy_classes, groupalg.ranked):
        with pytest.raises(SizeLimitError, match="S_9"):
            build(9)

    monkeypatch.setattr(groupalg, "ranked", enumerate_s_n)
    monkeypatch.setattr(groupalg, "conjugacy_classes", enumerate_s_n)
    with pytest.raises(SizeLimitError, match="capped at n <= 8, got 9"):
        count_walks_to(9, tuple(range(1, 10)), plain(0))
    with pytest.raises(SizeLimitError, match="capped at n <= 8, got 9"):
        count_walks(WalkQuery(9, (9,), (9,), plain(0)))
    # a folded count is refused before its class tables are built
    monkeypatch.setattr(groupalg, "_class_tables", enumerate_s_n)
    for segments in (plain(1), weakly_monotone(2), mixed(0, 1)):
        with pytest.raises(SizeLimitError) as info:
            count_walks(WalkQuery(9, (9,), (9,), segments))
        assert str(info.value) == "walk counting capped at n <= 8, got 9"


def test_representative_definition_matches_query():
    # D(lam, mu) counts walks ending at this specific representative
    n = 4
    rep = class_representative((2, 2), n)
    assert rep == (2, 1, 4, 3)


def test_classical_factorization_counts():
    # minimal factorizations of a fixed n-cycle into n-1 transpositions:
    # n^(n-2) in total (Denes), Catalan(n-1) weakly monotone ones, and a
    # single strictly monotone one
    catalan = {2: 2, 3: 5, 4: 14, 5: 42}
    for n in range(3, 7):
        one_n, full = (1,) * n, (n,)
        assert count_walks(WalkQuery(n, one_n, full, plain(n - 1))) == n ** (n - 2)
        assert (
            count_walks(WalkQuery(n, one_n, full, weakly_monotone(n - 1)))
            == catalan[n - 1]
        )
        assert count_walks(WalkQuery(n, one_n, full, strictly_monotone(n - 1))) == 1


def test_walk_args_are_checked_before_counting():
    with pytest.raises(ValueError, match="not a partition of 5"):
        count_walks_all_targets(5, (3,), plain(1))
    for end in ((1, 2, 3), (1, 2, 2, 4, 5), (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="not a permutation of 1..5"):
            count_walks_to(5, end, plain(1))


# -- differential test against a direct enumeration ------------------------------

def brute_force_counts(n, lam, segments, transitive):
    """Walk counts by trying every start permutation of type lam and every
    sequence of transpositions, one by one."""
    pairs = [(a, b) for b in range(2, n + 1) for a in range(1, b)]
    kinds = [seg.kind for seg in segments for _ in range(seg.length)]
    starts = [step == 0 for seg in segments for step in range(seg.length)]
    reps = {class_representative(mu, n): mu for mu in partitions_of(n)}
    members = [g for g in permutations(range(1, n + 1)) if cycle_type(g) == lam]
    counts = {}
    for seq in product(pairs, repeat=len(kinds)):
        if not all(
            first or kind == "plain"
            or (kind == "weak" and prev[1] <= cur[1])
            or (kind == "strict" and prev[1] < cur[1])
            for kind, first, prev, cur in zip(kinds, starts, (None,) + seq, seq)
        ):
            continue
        for g in members:
            end = list(g)
            for a, b in seq:  # (a b) * end swaps the values a and b
                end = [b if x == a else a if x == b else x for x in end]
            mu = reps.get(tuple(end))
            if mu is None:
                continue
            if transitive:
                label = list(range(n + 1))
                links = list(seq) + [(x, g[x - 1]) for x in range(1, n + 1)]
                for _ in range(n):
                    for a, b in links:
                        label[a] = label[b] = min(label[a], label[b])
                if any(label[x] != 1 for x in range(1, n + 1)):
                    continue
            counts[mu] = counts.get(mu, 0) + 1
    return counts


@st.composite
def walk_cases(draw):
    n = draw(st.integers(1, 5))
    lam = draw(st.sampled_from(partitions_of(n)))
    lengths = draw(st.lists(st.integers(0, 4), max_size=3).filter(lambda ls: sum(ls) <= 4))
    kinds = draw(st.lists(
        st.sampled_from(("plain", "weak", "strict")),
        min_size=len(lengths), max_size=len(lengths),
    ))
    return n, lam, tuple(Segment(kind, length) for kind, length in zip(kinds, lengths))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(walk_cases())
def test_dp_matches_direct_enumeration(case):
    n, lam, segments = case
    for transitive in (False, True):
        expected = brute_force_counts(n, lam, segments, transitive)
        assert count_walks_all_targets(n, lam, segments, transitive) == expected
        for mu in partitions_of(n):
            query = WalkQuery(n, lam, mu, segments, transitive)
            assert count_walks(query) == expected.get(mu, 0), (mu, transitive)
    if all(seg.kind == "plain" for seg in segments):
        k = sum(seg.length for seg in segments)
        counts = count_walks_all_targets(n, lam, segments)
        for mu in partitions_of(n):
            assert plain_count_via_class_dp(n, lam, mu, k) == counts.get(mu, 0)


def test_single_target_equals_all_targets():
    # single counts and rows against direct enumeration, over the 13 segment
    # orders no walk kind produces; n starts at 1, because the enumeration
    # counts the empty walk of S_0 as transitive and log tau has no n = 0 term
    orders = [
        (Segment(first, d1), Segment("weak", d2))
        for first in ("strict", "plain")
        for d1 in range(1, 4)
        for d2 in range(1, 5 - d1)
    ]
    orders.append((Segment("weak", 2), Segment("plain", 1), Segment("strict", 1)))
    assert len(orders) == 13
    for n in range(1, 5):
        for lam in partitions_of(n):
            for segments in orders:
                for transitive in (False, True):
                    expected = brute_force_counts(n, lam, segments, transitive)
                    assert count_walks_all_targets(n, lam, segments, transitive) == expected
                    for mu in partitions_of(n):
                        query = WalkQuery(n, lam, mu, segments, transitive)
                        assert count_walks(query) == expected.get(mu, 0), query


def test_every_walk_count_is_one_back_walk_per_end(monkeypatch):
    calls, walk = [], groupalg._walk
    monkeypatch.setattr(groupalg, "_walk", lambda *args: calls.append(args) or walk(*args))
    count_walks(WalkQuery(5, (2, 2, 1), (3, 1, 1), weakly_monotone(3), transitive=True))
    assert len(calls) == 1
    for n in range(1, 6):
        calls.clear()
        count_walks_all_targets(n, (1,) * n, mixed(1, 3))
        assert len(calls) == len(partitions_of(n))
    # verify reads its walk counts from back-walk columns, never from rows
    rows = []
    for name in ("count_walks_all_targets", "_count_dp"):
        monkeypatch.setattr(groupalg, name, lambda *args, **kwargs: rows.append(args))
    assert all(result.passed for result in verify.run_suite("walks", nmax=2))
    assert rows == [] and not hasattr(verify, "count_walks_all_targets")


def test_graded_layers_equal_each_cut_count():
    # layer s of one back-walk = the exact count with the first segment cut
    # to s steps, for every walk kind's segment orders, plain and transitive
    for n in range(1, 6):
        for kind, walk in WALK_KINDS.items():
            for _, (first, *rest), _ in walk.steps(3):
                for mu in partitions_of(n):
                    end = class_representative(mu, n)
                    for transitive in (False, True):
                        layers = graded_walks_to(n, end, (first, *rest), transitive)
                        assert len(layers) == first.length + 1
                        for s, counts in enumerate(layers):
                            cut = (Segment(first.kind, s), *rest)
                            assert counts == count_walks_to(n, end, cut, transitive), (kind, cut)


def fold_mismatches(sizes, transitive=False):
    """The queries whose count_walks differs from the count_walks_to column
    of its end: every walk kind at every split of total length <= 4 (empty
    segments among them), from and to every class of S_n for n in sizes."""
    bad = []
    for n in sizes:
        for walk in WALK_KINDS.values():
            for _, segments, _ in walk.steps(4):
                for mu in partitions_of(n):
                    column = count_walks_to(n, class_representative(mu, n), segments, transitive)
                    for lam in partitions_of(n):
                        query = WalkQuery(n, lam, mu, segments, transitive)
                        if count_walks(query) != column.get(lam, 0):
                            bad.append(query)
    return bad


def test_folded_counts_equal_the_stored_column():
    # count_walks folds its last layer into the start class; the column
    # stores it and sums it per class
    assert fold_mismatches(range(7)) == []
    assert fold_mismatches(range(5), transitive=True) == []


@pytest.mark.parametrize("step", [0, -1])
def test_one_table_entry_too_high_is_caught(monkeypatch, step):
    # the table of a plain step (0) or of b = n (-1), one too high at the
    # identity, where a walk back from the identity reads it first
    build = groupalg._class_tables

    def bumped(n, lam):
        tables = list(build(n, lam))
        entries = bytearray(tables[step])
        entries[0] += 1
        tables[step] = bytes(entries)
        return tuple(tables)

    monkeypatch.setattr(groupalg, "_class_tables", bumped)
    assert fold_mismatches(range(2, 5)) != []


def test_only_single_class_counts_build_tables():
    # one table set per (n, start class), built by count_walks's first query
    # from that class, n * n! bytes at most; the stored routes build none
    tables = groupalg._class_tables
    tables.cache_clear()
    count_walks(WalkQuery(6, (3, 2, 1), (2, 2, 2), weakly_monotone(3)))
    assert (tables.cache_info().misses, tables.cache_info().hits) == (1, 0)
    count_walks(WalkQuery(6, (3, 2, 1), (4, 1, 1), mixed(1, 2)))
    assert (tables.cache_info().misses, tables.cache_info().hits) == (1, 1)
    end = class_representative((2, 2, 2), 6)
    count_walks_to(6, end, strictly_monotone(3))
    graded_walks_to(6, end, plain(2))
    count_walks_all_targets(6, (3, 2, 1), weakly_monotone(2))
    count_walks(WalkQuery(6, (2, 2, 1, 1), (3, 2, 1), plain(2), transitive=True))
    count_walks(WalkQuery(6, (2, 2, 1, 1), (3, 2, 1), mixed(0, 0)))
    assert (tables.cache_info().misses, tables.cache_info().currsize) == (1, 1)
    for n in range(7):
        # S_0's one permutation keeps one plain entry
        for lam in partitions_of(n):
            assert sum(map(len, tables(n, lam))) <= max(n, 1) * len(groupalg.ranked(n).class_of)


def test_the_sweep_runs_one_back_walk_per_later_segments_and_end(monkeypatch):
    # multi at cap 5 has 21 step data but 6 second-segment lengths: 6 p(4)
    # back-walks at n = 4, where one per datum and end class made 105
    calls, walk = [], groupalg._walk
    monkeypatch.setattr(groupalg, "_walk", lambda *args: calls.append(args) or walk(*args))
    verify._twist_matches_oracle("multi", 4, 5)
    assert len(calls) <= 6 * len(partitions_of(4))


WALK_COLUMNS_N6 = Path(__file__).parent / "goldens" / "walk_columns_n6.json"


def test_n6_columns_match_the_golden():
    # past brute-force reach: every end class of S_6, plain/weak/strict
    # k <= 4 and the nine two-segment orders at 2 + 2, transitive both ways
    orders = [[(kind, k)] for kind in ("plain", "weak", "strict") for k in range(5)]
    orders += [[(a, 2), (b, 2)] for a, b in product(("plain", "weak", "strict"), repeat=2)]
    rows = [
        {
            "end": format_partition(mu),
            "segments": [list(seg) for seg in order],
            "transitive": transitive,
            "counts": {
                format_partition(lam): c
                for lam, c in count_walks_to(
                    6, class_representative(mu, 6),
                    tuple(Segment(kind, k) for kind, k in order), transitive,
                ).items()
            },
        }
        for transitive in (False, True)
        for order in orders
        for mu in partitions_of(6)
    ]
    assert len(rows) == 528
    assert rows == json.loads(WALK_COLUMNS_N6.read_text())


@st.composite
def twist_cases(draw):
    kind = draw(st.sampled_from(sorted(WALK_KINDS)))
    n = draw(st.integers(1, 6))
    return kind, n, draw(st.integers(0, 3)), draw(st.sampled_from(partitions_of(n)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(twist_cases())
@example(("mixed", 6, 3, (2, 2, 1, 1)))
@example(("weakstrict", 6, 3, (3, 1, 1, 1)))
@example(("multi", 6, 3, (1, 1, 1, 1, 1, 1)))
def test_twist_coefficients_match_oracle(case):
    # every walk kind against the walk oracle; the examples pin each
    # two-parameter kind at n = 6
    kind, n, cap, lam = case
    walk = WALK_KINDS[kind]
    coeffs = connection_coeffs(walk.twist(n, cap), n)
    for step_data, segments, read in walk.steps(cap):
        counts = count_walks_all_targets(n, lam, segments)
        for mu in partitions_of(n):
            assert read(coeffs[(lam, mu)], n) == counts.get(mu, 0), (kind, lam, mu, step_data)
