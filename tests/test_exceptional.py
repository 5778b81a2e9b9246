import json
import random
from fractions import Fraction as Q

import pytest

from hirzebruch import (
    build_table,
    euler_pair,
    exceptional_character,
    is_exceptional,
    load_table,
    mu,
    potential_characters,
    save_table,
    stability_interval,
)
from hirzebruch import dlp, exceptional
from hirzebruch.dlp import InsufficientTable
from hirzebruch.exceptional import (
    CacheError,
    ExceptionalRecord,
    ExceptionalTable,
    canonical_pair,
    record_from_json,
    record_to_json,
    solve_congruence_b,
)
from hirzebruch.existence import InternalError
from hirzebruch.lattice import ChernCharacter, DivisorClass, hilbert_P

TABLE1 = [
    (1, (0, 0), (0, None), None, None),
    (3, (1, 1), (Q(1, 2), 2), (1, -1, 1), (1, 1, -1)),
    (5, (1, 2), (Q(1, 2), 3), (1, -1, 1), (1, 1, -2)),
    (7, (1, 3), (Q(1, 2), 4), (1, -1, 1), (1, 1, -3)),
    (9, (1, 4), (Q(1, 2), 5), (1, -1, 1), (1, 1, -4)),
    (11, (1, 5), (Q(1, 2), 6), (1, -1, 1), (1, 1, -5)),
    (11, (4, 4), (Q(4, 7), Q(7, 4)), (5, -2, 4), (5, 4, -2)),
    (13, (1, 6), (Q(1, 2), 7), (1, -1, 1), (1, 1, -6)),
    (15, (1, 7), (Q(1, 2), 8), (1, -1, 1), (1, 1, -7)),
    (17, (1, 8), (Q(1, 2), 9), (1, -1, 1), (1, 1, -8)),
    (17, (5, 5), (Q(8, 9), Q(9, 8)), (7, 1, 3), (7, 3, 1)),
    (19, (1, 9), (Q(1, 2), 10), (1, -1, 1), (1, 1, -9)),
    (19, (4, 7), (Q(8, 9), 3), (7, 1, 3), (1, 1, -2)),
]

TABLE2 = [
    (1, (0, 0), (0, None), None, None),
    (2, (1, 1), (0, 1), None, (1, 1, 0)),
    (4, (1, 2), (0, 2), None, (1, 1, -1)),
    (5, (2, 2), (0, Q(2, 3)), None, (1, 1, 0)),
    (6, (1, 3), (0, 3), None, (1, 1, -2)),
    (8, (1, 4), (0, 4), None, (1, 1, -3)),
    (10, (1, 5), (0, 5), None, (1, 1, -4)),
    (11, (3, 5), (Q(3, 7), 2), (6, 1, 3), (1, 1, -1)),
    (12, (1, 6), (0, 6), None, (1, 1, -5)),
    (13, (5, 5), (0, Q(5, 8)), None, (1, 1, 0)),
    (14, (1, 7), (0, 7), None, (1, 1, -6)),
    (16, (1, 8), (0, 8), None, (1, 1, -7)),
    (18, (1, 9), (0, 9), None, (1, 1, -8)),
    (19, (5, 10), (Q(1, 9), Q(9, 5)), (5, -2, 3), (6, 5, -3)),
    (20, (1, 10), (0, 10), None, (1, 1, -9)),
]


def as_rows(table):
    return [
        (r.r, (r.a, r.b), (r.lo, r.hi), r.w0, r.w1)
        for r in table.records
    ]


def test_congruence_and_candidates():
    # e = 0, rank 3 includes (1,1); no even ranks on F_0; e = 1 rank 2 gives (1,1)
    chars0 = potential_characters(0, 3)
    assert any(v.r == 3 and v.c1.a == 1 and v.c1.b == 1 for v in chars0)
    assert all(v.r % 2 == 1 for v in chars0)
    assert solve_congruence_b(2, 1, 0) is None or potential_characters(0, 2)[-1].r == 1
    assert [v.r for v in potential_characters(0, 2)] == [1]
    chars1 = potential_characters(1, 2)
    assert any(v.r == 2 and (v.c1.a, v.c1.b) == (1, 1) for v in chars1)
    # every candidate is potentially exceptional with the right discriminant
    for e in (0, 1):
        for v in potential_characters(e, 9):
            assert euler_pair(v, v, e) == 1
            assert v.delta(e) == Q(1, 2) - Q(1, 2 * v.r * v.r)
            assert v.is_integral(e)


def test_canonical_pair_ranges():
    for (r, a, b) in [(5, 3, 4), (5, 4, 3), (7, 6, 5), (11, 8, 1)]:
        for e in (0, 1):
            ca, cb = canonical_pair(r, a, b, e)
            if e == 0:
                assert 0 <= ca < r / 2 and ca <= cb < r
            else:
                assert 0 <= 2 * ca <= r and 0 <= cb < r


def test_is_exceptional(table0, table1):
    assert is_exceptional(exceptional_character(1, 0, 0, 0), 0, table0)
    assert is_exceptional(exceptional_character(3, 1, 1, 0), 0, table0)
    # rank 3 is absent from the F_1 table: every rank-3 candidate fails
    for v in potential_characters(1, 3):
        if v.r == 3:
            assert not is_exceptional(v, 1, table1)
    with pytest.raises(ValueError):
        is_exceptional(exceptional_character(3, 1, 1, 0) + exceptional_character(1, 0, 0, 0), 0, table0)
    # chi(v, v) = 1 but 2 ch2 = -8/3: no integer key
    with pytest.raises(ValueError, match="integral c1 and 2 ch2"):
        is_exceptional(exceptional_character(3, 1, 0, 0), 0, table0)


def test_tables_match_golden(table0, table1):
    rows0 = as_rows(table0)
    assert rows0 == [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1) for (r, ab, (lo, hi), w0, w1) in TABLE1]
    rows1 = as_rows(table1)
    assert rows1 == [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1) for (r, ab, (lo, hi), w0, w1) in TABLE2]


def test_build_table_rank_one():
    t = build_table(0, 1)
    assert len(t.records) == 1 and t.records[0].r == 1
    t = build_table(1, 1)
    assert as_rows(t) == [(1, (0, 0), (Q(0), None), None, None)]


def test_incremental_build(table1):
    t_small = build_table(1, 6)
    t_ext = build_table(1, 20, base=t_small)
    assert as_rows(t_ext) == as_rows(table1)


def test_row_lookup(table0, table1):
    for table in (table0, table1):
        for rec in table.records:
            assert table.row(rec.r, rec.a, rec.b) is rec
    assert table0.row(3, 1, 2) is None
    assert table1.row(21, 1, 1) is None


def test_stability_interval_examples(table0, table1):
    lo, hi, w0, w1 = stability_interval(exceptional_character(3, 1, 1, 0), 0, table0)
    assert (lo, hi, w0, w1) == (Q(1, 2), 2, (1, -1, 1), (1, 1, -1))
    lo, hi, w0, w1 = stability_interval(exceptional_character(11, 3, 5, 1), 1, table1)
    assert (lo, hi, w0, w1) == (Q(3, 7), 2, (6, 1, 3), (1, 1, -1))
    lo, hi, w0, w1 = stability_interval(exceptional_character(17, 5, 5, 0), 0, table0)
    assert (lo, hi, w0, w1) == (Q(8, 9), Q(9, 8), (7, 1, 3), (7, 3, 1))


def test_stability_interval_refusals(table0, table1):
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(1, 0, 0, 0), 0, table0)
    # c1 = 3E + F on rank 3: the slope has an integral E-coordinate
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(3, 3, 1, 0), 0, table0)
    # Delta other than 1/2 - 1/(2 r^2), and a half-integral c1
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(5, 1, 2, 0) + exceptional_character(1, 0, 0, 0), 0, table0)
    with pytest.raises(ValueError):
        stability_interval(ChernCharacter(3, DivisorClass(Q(1, 2), 1), 0), 0, table0)
    # a table for the other surface, and one that stops below rank r - 1
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(3, 1, 1, 0), 0, table1)
    with pytest.raises(InsufficientTable):
        stability_interval(exceptional_character(5, 1, 2, 0), 0, build_table(0, 3))


def fraction_strip_walls(cls, v, e, vertical, lo, hi, box):
    """The walls of `exceptional._strip_walls` by brute force over the twists
    by iE + jF, |i|, |j| <= box, of `cls`, in Fraction arithmetic."""
    nu = v.nu()
    dv, dw = v.delta(e), exceptional.exceptional_delta(cls.rank)
    out = []
    for i in range(-box, box + 1):
        for j in range(-box, box + 1):
            x = nu.a - Q(cls.a, cls.rank) - i
            y = nu.b - Q(cls.b, cls.rank) - j
            if not (-1 < (x if vertical else y) < 0) or (y if vertical else x) <= 0:
                continue
            m = -y / x
            if lo < m < hi and hilbert_P(DivisorClass(x, y), e) > dv + dw and cls.stable_at(m):
                out.append((m, (cls.rank, cls.a + i * cls.rank, cls.b + j * cls.rank)))
    return sorted(out, key=lambda w: w[0], reverse=not vertical)


def test_strip_walls_match_fraction_enumeration(table0, table1):
    # bounds drawn from the walls themselves, so the open ends are hit exactly
    rng = random.Random(5)
    for table in (table0, table1):
        e = table.e
        classes = dlp.slope_classes(table, e, 20)
        for rec in table.records:
            if rec.r < 3:
                continue
            v = rec.character(e)
            for _ in range(8):
                cls = rng.choice(classes)
                vertical = rng.random() < 0.5
                walls = fraction_strip_walls(cls, v, e, vertical, Q(1, 8), Q(8), 10)
                ms = sorted({m for m, _ in walls})
                if len(ms) < 2:
                    continue
                lo, hi = sorted(rng.sample(ms, 2))
                want = [w for w in walls if lo < w[0] < hi]
                got = list(exceptional._strip_walls(cls, rec.r, rec.a, rec.b, e, vertical, lo, hi))
                assert got == want, (e, rec, cls, vertical, lo, hi)


def test_wall_at_anticanonical_parameter_is_internal_error():
    # the fabricated rank-2 row (interval (0, inf)) cuts (5, 2E + F) at m = 1/2
    small = build_table(1, 4)
    table = ExceptionalTable(1, 4, small.records + (ExceptionalRecord(2, 0, 1, Q(0), None),))
    with pytest.raises(InternalError):
        stability_interval(exceptional_character(5, 1, 2, 1), 1, table)


def test_is_stable_at(table0, table1):
    # a row's own slope class comes first in its orbit
    cls = dlp.orbit(table0.row(3, 1, 1), 0)[0]
    assert cls.stable_at(Q(1))
    assert not cls.stable_at(Q(2))  # strictly semistable at the endpoint
    assert not cls.stable_at(Q(1, 2))
    for m in (Q(1, 100), Q(1), Q(17)):
        assert dlp.LINE_BUNDLES.stable_at(m)
    assert not dlp.orbit(table1.row(2, 1, 1), 1)[0].stable_at(Q(1))


def test_record_invariants(table0, table1, wide_tables):
    for table in (table0, table1) + wide_tables:
        e = table.e
        anch = 1 - Q(e, 2)
        for rec in table.records:
            v = rec.character(e)
            assert euler_pair(v, v, e) == 1
            assert v.is_integral(e)
            # the anticanonical parameter lies strictly inside every interval
            assert rec.lo < anch and (rec.hi is None or anch < rec.hi)
            exceptional._check_row(rec, e)  # the check a cache load makes
            # endpoint certificates: equal slope, chi(W, V) > 0, endpoint in I_W
            for endpoint, wit in ((rec.lo, rec.w0), (rec.hi, rec.w1)):
                if wit is None:
                    continue
                w = exceptional_character(wit[0], wit[1], wit[2], e)
                assert mu(v, endpoint) == mu(w, endpoint)
                assert euler_pair(w, v, e) > 0
                lo_w, hi_w = witness_interval(table, wit, e)
                assert lo_w < endpoint and (hi_w is None or endpoint < hi_w)


def witness_interval(table, wit, e):
    rw, wa, wb = wit
    if rw == 1:
        return (Q(0), None)
    base = table.row(rw, *canonical_pair(rw, wa, wb, e))
    assert base is not None
    for cls in dlp.orbit(base, e):
        if (wa - cls.a) % rw == 0 and (wb - cls.b) % rw == 0:
            return (cls.lo, cls.hi)
    raise AssertionError("witness %r not in the orbit of its canonical row" % (wit,))


def test_quotient_side_interval_oracle(table0, table1, wide_tables):
    # re-deriving every interval with the quotient condition chi(V, W) > 0
    # instead of chi(W, V) > 0 must give the same component around 1 - e/2
    from oracles import quotient_side_interval

    for table in (table0, table1) + wide_tables:
        for rec in table.records:
            if rec.r == 1:
                continue
            lo, hi = quotient_side_interval(rec, table)
            assert (lo, hi) == (rec.lo, rec.hi), (table.e, rec)


def test_cache_roundtrip(tmp_path, table1):
    path = str(tmp_path / "cache.jsonl")
    save_table(table1, path)
    loaded = load_table(path, 1)
    assert as_rows(loaded) == as_rows(table1)
    assert loaded.max_rank == 20
    # bit-exact lines
    line = record_to_json(table1.records[1], 1)
    e, rec = record_from_json(line)
    assert e == 1 and rec == table1.records[1]
    assert record_to_json(rec, 1) == line
    obj = json.loads(line)
    assert list(obj.keys()) == ["e", "r", "a", "b", "lo", "hi", "w0", "w1"]


EDITS = {
    # the tampered F_0 rank-3 row of the issue: (1/2, 2) read as (1/2, 100)
    "hi_raised": (0, 3, {"hi": "100"}),
    "not_potentially_exceptional": (0, 3, {"b": 2}),
    # (5, 3E + 3F) is the dual of (5, 2E + 2F) twisted by E + F, with the
    # same interval and a twisted witness: only the canonical form tells
    "dual_pair_not_canonical": (1, 5, {"a": 3, "b": 3, "w1": [1, 0, 1]}),
    "rank_one_not_00": (0, 1, {"b": 1}),
    "rank_one_finite": (1, 1, {"hi": "2", "w1": [1, 1, 0]}),
    "anticanonical_below_lo": (0, 3, {"lo": "2", "w0": [1, 1, -1]}),
    "anticanonical_above_hi": (1, 11, {"hi": "3/7", "w1": [6, 1, 3]}),
    "witnesses_swapped": (0, 3, {"w0": [1, 1, -1], "w1": [1, -1, 1]}),
    "witness_off_wall": (1, 11, {"w0": [5, 1, 3]}),
    "witness_same_rank": (0, 3, {"w1": [3, 0, 3]}),
    "lo_without_witness": (0, 3, {"w0": None}),
    "zero_lo_with_witness": (1, 2, {"w0": [1, 1, 0]}),
    "infinite_above_rank_one": (1, 4, {"hi": "inf", "w1": None}),
    "witness_not_integers": (0, 3, {"w1": [1, "x", 1]}),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_load_refuses_edited_rows(tmp_path, table0, table1, name):
    e, rank, changes = EDITS[name]
    path = tmp_path / "cache.jsonl"
    save_table((table0, table1)[e], str(path))
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if json.loads(ln)["r"] == rank)
    obj = json.loads(lines[i])
    obj.update(changes)
    lines[i] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError):
        load_table(str(path), e)


def test_load_refuses_appended_row(tmp_path):
    # (2, 0, 1) is no exceptional pair; trusted, it cuts (5, 2E + 2F) at 1/4.
    # A repeated row would be printed twice by `hirz exceptional`.
    small = build_table(1, 4)
    for extra in (ExceptionalRecord(2, 0, 1, Q(0), None), small.records[-1]):
        path = tmp_path / "cache.jsonl"
        save_table(small, str(path))
        with open(path, "a") as fh:
            fh.write(record_to_json(extra, 1) + "\n")
        with pytest.raises(CacheError):
            load_table(str(path), 1)


def test_failed_cache_write_keeps_old_file(tmp_path, table1, monkeypatch):
    path = tmp_path / "cache.jsonl"
    save_table(build_table(1, 6), str(path))
    before = path.read_bytes()
    rows = []

    def fail_after_first_row(rec, e):
        if rows:
            raise OSError("disk full")
        rows.append(rec)
        return record_to_json(rec, e)

    monkeypatch.setattr(exceptional, "record_to_json", fail_after_first_row)
    with pytest.raises(CacheError):
        save_table(table1, str(path))
    assert len(rows) == 1
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_is_exceptional_builds_table_on_demand():
    assert is_exceptional(exceptional_character(5, 1, 2, 0), 0)
    assert not is_exceptional(exceptional_character(7, 2, 5, 0), 0)
