import json
import os
import random
import re

import pytest

from hirzebruch.cli import char_obj, main
from hirzebruch import build_table, kronecker_characters, KroneckerParams, save_table
from hirzebruch.exceptional import ExceptionalTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exceptional_golden_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "exceptional", "--e", "0", "--max-rank", "19")
    assert code == 0
    lines = [json.loads(ln) for ln in out1.strip().splitlines()]
    assert len(lines) == 13
    assert lines[1] == {"e": 0, "r": 3, "a": 1, "b": 1, "lo": "1/2", "hi": "2",
                        "w0": [1, -1, 1], "w1": [1, 1, -1]}
    code, out2, _ = run_cli(capsys, "exceptional", "--e", "0", "--max-rank", "19")
    assert out1 == out2  # identical bytes on rerun
    code, out3, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "20")
    assert len(out3.strip().splitlines()) == 15


def test_exceptional_reduces_high_e(capsys):
    code, out, err = run_cli(capsys, "exceptional", "--e", "4", "--max-rank", "3")
    assert code == 0 and "reduces to F_0" in err
    assert all(json.loads(ln)["e"] == 0 for ln in out.strip().splitlines())


def test_exists_kronecker_empty(capsys):
    code, out, _ = run_cli(capsys, "exists", "--e", "0", "--char", "15,3,5,-8", "--m", "2509/900")
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "EMPTY"
    assert len(obj["hn"]["factors"]) == 2
    # the printed factors are the Kronecker characters, bit for bit
    k, l, v = kronecker_characters(KroneckerParams(0, 3, 1, 1, 2, 15))
    assert [char_obj(f) for f in (k, l)] == obj["hn"]["factors"]


def test_exists_trivial_and_structure_sheaf(capsys):
    code, out, _ = run_cli(capsys, "exists", "--e", "1", "--char", "1,0,0,0", "--m", "7/3")
    assert code == 0 and json.loads(out)["verdict"] == "NONEMPTY"


def test_exists_f4_reduces_with_trace(capsys):
    code, out, _ = run_cli(capsys, "exists", "--e", "4", "--char", "3,1,3,-1", "--m", "1")
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "EMPTY"
    assert [step["e_to"] for step in obj["trace"]] == [2, 0]


def test_dlp_values(capsys):
    code, out, _ = run_cli(capsys, "dlp", "--e", "0", "--m", "25/9", "--nu", "1/5,1/3",
                           "--below-rank", "15")
    assert code == 0 and json.loads(out)["value"] == "19/35"
    code, out, _ = run_cli(capsys, "dlp", "--e", "1", "--m", "12/7", "--nu", "3/13,6/13",
                           "--below-rank", "13")
    assert json.loads(out)["value"] == "523/1014"


def test_delta_bracket(capsys):
    code, out, _ = run_cli(capsys, "delta", "--e", "1", "--m", "12/7", "--nu", "3/13,6/13",
                           "--max-rank", "13")
    obj = json.loads(out)
    assert code == 0 and obj["upper"] == "98/169" and obj["lower"] == "523/1014"
    assert obj["witness"]["r"] == 13


def test_hn_command(capsys):
    code, out, _ = run_cli(capsys, "hn", "--e", "1", "--char", "13,3,6,-13/2", "--m", "1207/700")
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "OK"
    assert [f["r"] for f in obj["hn"]["factors"]] == [2, 11]


def test_kronecker_command(capsys):
    code, out, _ = run_cli(capsys, "kronecker", "--e", "0", "--ell", "3", "--abcd", "1,1,2,15")
    obj = json.loads(out)
    assert code == 0
    assert obj["m_wall"] == "25/9" and obj["delta_closed_form"] == "3/5"
    assert obj["epsilon"] == "1/10"


def test_kronecker_command_builds_the_characters_once(capsys, monkeypatch):
    # cmd_kronecker and wall_crossing_epsilon read the characters and the
    # wall that KroneckerParams keeps, so the build, with its admissibility
    # and chi(K, L) = 0 checks, runs once, and so does the wall solve: one
    # m_L for its check and one for the output
    from hirzebruch import kronecker
    counts = {"chi": 0, "admissible": 0, "m_l": 0}
    chi, admissible = kronecker.euler_pair, kronecker.KroneckerParams.is_admissible

    def count(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(kronecker, "euler_pair", count("chi", chi))
    monkeypatch.setattr(kronecker.KroneckerParams, "is_admissible", count("admissible", admissible))
    monkeypatch.setattr(kronecker, "wall_m_l", count("m_l", kronecker.wall_m_l))
    code, out, _ = run_cli(capsys, "kronecker", "--e", "0", "--ell", "3", "--abcd", "1,1,2,15")
    assert code == 0 and counts == {"chi": 1, "admissible": 1, "m_l": 2}
    assert out == (
        '{"delta_closed_form": "3/5", "epsilon": "1/10", "k": {"c1": [1, -1], "ch2": "-2", "r": 2}, '
        '"l": {"c1": [2, 6], "ch2": "-6", "r": 13}, "m_l": "7/2", "m_wall": "25/9", '
        '"v": {"c1": [3, 5], "ch2": "-8", "r": 15}}\n'
    )


def test_kronecker_command_without_a_confirming_eps_exits_3(capsys, monkeypatch):
    from hirzebruch import existence

    monkeypatch.setattr(existence, "hn_generic", lambda v, m, e: None)
    code, out, err = run_cli(capsys, "kronecker", "--e", "0", "--ell", "3", "--abcd", "1,1,2,15")
    assert (code, out) == (3, "")
    assert err == "precondition violated: no eps of the form 10^-j (j <= 9) confirms the wall crossing\n"


def test_grid_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "grid", "--e", "0", "--m", "1", "--square", "0,1,0,1",
                           "--steps", "3", "--below-rank", "8")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "eps,phi,delta"
    assert len(lines) == 1 + 16  # 4 x 4 grid in long form
    assert lines[1] == "0,0,1"


def test_grid_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "grid", "--e", "1", "--m", "1/2", "--square", "0,1,0,1",
                           "--steps", "2", "--below-rank", "2", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and len(obj["values"]) == 3 and len(obj["values"][0]) == 3


def test_exit_codes(capsys):
    # floating point literals are rejected with the fraction hint
    code, _, err = run_cli(capsys, "exists", "--e", "0", "--char", "2,1,0,0.5", "--m", "1")
    assert code == 2 and "1/2 instead of 0.5" in err
    # non-integral character
    code, _, err = run_cli(capsys, "exists", "--e", "0", "--char", "2,1,0,1/2", "--m", "1")
    assert code == 2
    # inadmissible Kronecker parameters violate a precondition
    code, _, err = run_cli(capsys, "kronecker", "--e", "0", "--ell", "3", "--abcd", "1,5,2,15")
    assert code == 3
    # Kronecker parameters of the wrong length name the expected form
    for abcd in ("1,1,2", "1,1,2,3,4"):
        code, out, err = run_cli(capsys, "kronecker", "--e", "0", "--ell", "3", "--abcd", abcd)
        assert code == 2 and out == "" and "a,b,c,d" in err and "unpack" not in err
    with pytest.raises(SystemExit) as exc:
        main(["exceptional", "--e", "0"])  # missing --max-rank
    assert exc.value.code == 2
    # zero denominators are invalid input, not a ZeroDivisionError
    for argv in (
        ("exists", "--e", "0", "--char", "2,1,0,1/0", "--m", "1"),
        ("dlp", "--e", "0", "--nu", "1/0,1", "--m", "1", "--below-rank", "2"),
        ("grid", "--e", "0", "--m", "1", "--square", "0,1,0,1/0", "--steps", "2", "--below-rank", "2"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "invalid input" in err and "zero denominator" in err
    code, out, err = run_cli(capsys, "exists", "--e", "0", "--char", "1,0,0,0", "--m", "1/0")
    assert (code, out) == (2, "") and "invalid input" in err and "zero denominator" in err
    # a DLP rank cutoff must be positive, as for `grid`
    for cutoff in ("0", "-3"):
        for sub in (("dlp", "--nu", "1/2,1/3"), ("grid", "--square", "0,1,0,1", "--steps", "2")):
            code, out, err = run_cli(capsys, sub[0], "--e", "0", "--m", "1", *sub[1:],
                                     "--below-rank", cutoff)
            assert code == 2 and out == "" and "rank cutoff" in err
    # DLP values and brackets are computed on F_0 and F_1 only, whether or
    # not a table is built first: one message, pointing to the reduction
    for rank in ("2", "3"):
        for sub in (("dlp", "--nu", "1/2,1/3", "--below-rank", rank),
                    ("delta", "--nu", "1/2,1/3", "--max-rank", rank),
                    ("grid", "--square", "0,1,0,1", "--steps", "2", "--below-rank", rank)):
            code, out, err = run_cli(capsys, sub[0], "--e", "2", "--m", "1", *sub[1:])
            assert (code, out) == (2, "")
            assert err == ("invalid input: only F_0 and F_1 are served here, got e=2; reduce "
                           "e >= 2 to them through the reduction map (hirzebruch.reduction) first\n")


def test_negative_values_follow_their_flag(capsys):
    # a value that starts with "-" and a digit after a flag is that flag's
    # value, as in the "--flag=value" form; argparse alone reads only plain
    # negative numbers such as -3 that way
    answers = []
    for cmd in ("dlp --e 0 --nu -1/4,1/3 --m 1 --below-rank 3",
                "dlp --e 0 --nu 1/2,1/3 --m -1/2 --below-rank 3",
                "grid --e 0 --m 1 --square -1,1,0,1 --steps 1 --below-rank 3"):
        answers.append(run_cli(capsys, *cmd.split()))
        assert answers[-1] == run_cli(capsys, *re.sub(r" (-[0-9])", r"=\1", cmd).split()), cmd
    assert answers[0] == (0, '{"equal_slope": false, "value": "5/6", "witness": [1, 0, 0]}\n', "")
    assert answers[1][:2] == (2, "") and "must be positive" in answers[1][2]
    assert answers[2][0] == 0 and answers[2][1].startswith("eps,phi,delta\n-1,0,")
    # plain negative numbers were values already, and "-inf" is still read
    # as a flag
    code, out, err = run_cli(capsys, "exceptional", "--e", "-1", "--max-rank", "3")
    assert (code, out) == (2, "") and "surface parameter e" in err
    code, out, err = run_cli(capsys, "grid", "--e", "0", "--m", "1", "--square", "0,1,0,1",
                             "--steps", "-1", "--below-rank", "3")
    assert (code, out) == (2, "") and "steps must be" in err
    with pytest.raises(SystemExit) as exc:
        main(["dlp", "--e", "0", "--nu", "-inf", "--m", "1", "--below-rank", "3"])
    assert exc.value.code == 2 and "--nu: expected one argument" in capsys.readouterr().err
    # --help takes no value, so nothing is joined to it
    with pytest.raises(SystemExit) as exc:
        main(["dlp", "--help", "-1"])
    assert exc.value.code == 0 and "--below-rank" in capsys.readouterr().out


def test_high_e_refusals_name_the_character_given(capsys):
    # on e >= 2 the engine's input check runs on v itself, not on its pi image
    given = "ChernCharacter(r=2, c1=DivisorClass(a=Fraction(1, 1), b=Fraction(1, 1)), ch2=Fraction(1, 2))"
    for sub in ("exists", "reduce"):
        code, out, err = run_cli(capsys, sub, "--e", "2", "--char", "2,1,1,1/2", "--m", "1/3")
        assert (code, out) == (2, "")
        assert err == "invalid input: decision engine needs an integral character, got %s\n" % given


def test_internal_error_exit_code(capsys, monkeypatch):
    from hirzebruch import existence

    def broken(*args, **kwargs):
        raise existence.InternalError("inconsistent state: test")

    monkeypatch.setattr(existence, "moduli_nonempty", broken)
    code, out, err = run_cli(capsys, "exists", "--e", "0", "--char", "1,0,0,0", "--m", "1")
    assert code == 5 and out == ""
    assert err == "internal error: inconsistent state: test\n"


def test_cache_extend_and_corrupt(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "exc.jsonl")
    code, out1, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "6", "--cache", cache)
    assert code == 0 and os.path.exists(cache)
    assert len(out1.strip().splitlines()) == 5
    # extending reuses and extends the cache
    code, out2, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "20", "--cache", cache)
    assert len(out2.strip().splitlines()) == 15
    with open(cache) as fh:
        assert len(fh.read().strip().splitlines()) == 16       # a header and 15 rows
    # corrupt cache is reported and rebuilt
    with open(cache, "w") as fh:
        fh.write("{ nonsense\n")
    code, out3, err = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "6", "--cache", cache)
    assert code == 0 and "rebuilding" in err
    assert out3 == out1
    # so is a well-formed row that no build makes: (2, F), stable for every m
    with open(cache, "a") as fh:
        fh.write('{"e": 1, "r": 2, "a": 0, "b": 1, "lo": "0", "hi": "inf", "w0": null, "w1": null}\n')
    code, out4, err = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "6", "--cache", cache)
    assert code == 0 and "rebuilding" in err
    assert out4 == out1
    # and a row whose interval end is a JSON number, not a "p/q" string
    with open(cache) as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[2])
    row["lo"] = 1
    with open(cache, "w") as fh:
        fh.write("\n".join(lines[:2] + [json.dumps(row)] + lines[3:]) + "\n")
    code, out5, err = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "6", "--cache", cache)
    assert code == 0 and "corrupt cache" in err and "must be a string" in err and "rebuilding" in err
    assert out5 == out1
    # env var supplies the cache path
    cache2 = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("HIRZ_CACHE", cache2)
    code, _, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "4")
    assert os.path.exists(cache2)


def test_cached_read_does_not_rewrite(tmp_path, capsys, monkeypatch):
    from hirzebruch import exceptional

    cache = str(tmp_path / "exc.jsonl")
    code, _, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", "6", "--cache", cache)
    assert code == 0
    with open(cache, "rb") as fh:
        before = fh.read()
    saves = []
    monkeypatch.setattr(exceptional, "save_table", lambda *args: saves.append(args))
    for rank in ("6", "4"):
        code, _, _ = run_cli(capsys, "exceptional", "--e", "1", "--max-rank", rank, "--cache", cache)
        assert code == 0 and saves == []
    with open(cache, "rb") as fh:
        assert fh.read() == before


def test_cache_that_misses_its_header_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "exc.jsonl"
    args = ("exceptional", "--e", "0", "--max-rank", "19", "--cache", str(cache))
    code, out1, _ = run_cli(capsys, *args)
    lines = cache.read_text().splitlines()
    # the two rank-11 rows deleted, then the header deleted
    for kept in ([ln for ln in lines if '"r": 11,' not in ln], lines[1:]):
        assert len(kept) < len(lines)
        cache.write_text("\n".join(kept) + "\n")
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and out == out1
        assert err.startswith("warning: cache %s " % cache) and err.endswith("; rebuilding\n")
        assert cache.read_text().splitlines() == lines
    # a cache without its rank-1 row under a matching header used to load
    # and print 2 of F_0's 3 rows of rank <= 5
    args = ("exceptional", "--e", "0", "--max-rank", "5", "--cache", str(cache))
    code, out1, _ = run_cli(capsys, *args[:-2])        # a fresh build, no cache
    save_table(ExceptionalTable(0, 5, build_table(0, 5).records[1:]), str(cache))
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and out == out1 and len(out.splitlines()) == 3
    assert err == ("warning: corrupt cache %s: a table of rank <= 5 needs exactly one rank-1 "
                   "row, (1, 0, 0); rebuilding\n" % cache)


def test_cache_of_the_other_surface_exits_2_and_is_kept(tmp_path, capsys, monkeypatch):
    # one HIRZ_CACHE shared by both surfaces: the F_0 table it holds is
    # refused as input for an F_1 query, not rebuilt over as corrupt
    cache = tmp_path / "shared.jsonl"
    monkeypatch.setenv("HIRZ_CACHE", str(cache))
    code, _, _ = run_cli(capsys, "exceptional", "--e", "0", "--max-rank", "5")
    assert code == 0
    before = cache.read_bytes()
    code, out, err = run_cli(capsys, "dlp", "--e", "1", "--m", "1", "--nu", "1/3,1/3", "--below-rank", "4")
    assert (code, out) == (2, "")
    assert err == "invalid input: cache %s holds the table of F_0, not of F_1\n" % cache
    assert cache.read_bytes() == before


def test_cache_that_names_a_directory_exits_4(tmp_path, capsys, monkeypatch):
    # a directory can be neither read as a cache nor replaced by one, so it
    # is refused with the cache exit code before any table is built
    from hirzebruch import exceptional

    monkeypatch.setattr(exceptional, "build_table", lambda *a, **k: pytest.fail("built a table"))
    cache = tmp_path / "cache"
    cache.mkdir()
    code, out, err = run_cli(capsys, "dlp", "--e", "0", "--nu", "1/3,1/5", "--m", "1",
                             "--below-rank", "4", "--cache", str(cache))
    assert code == 4 and out == ""
    assert err == "cache error: cache %s is a directory\n" % cache
    assert cache.is_dir() and not list(cache.iterdir())
    assert not list(tmp_path.glob("*.tmp"))


def test_cached_rerun_at_the_same_rank_builds_nothing(tmp_path, capsys, monkeypatch):
    # F_1 has no rank-21 row and F_0 no rank-18 row: the header's max_rank,
    # not the highest row, says what the cache covers, so an extension that
    # adds no row still rewrites the cache
    from hirzebruch import exceptional

    for e, rank in (("1", 21), ("0", 18)):
        cache = str(tmp_path / ("exc%s.jsonl" % e))
        for r in (rank - 1, rank):
            args = ("exceptional", "--e", e, "--max-rank", str(r), "--cache", cache)
            code, out1, _ = run_cli(capsys, *args)
            assert code == 0
        with monkeypatch.context() as mp:
            mp.setattr(exceptional, "_candidates", lambda *a: pytest.fail("built a rank"))
            mp.setattr(exceptional, "save_table", lambda *a: pytest.fail("rewrote the cache"))
            code, out2, err = run_cli(capsys, *args)
        assert (code, out2, err) == (0, out1, "")


def test_cutoffs_below_three_build_and_cache_no_table(tmp_path, capsys, monkeypatch):
    # DLP^{<2} reads line bundles only, so a cutoff <= 2 neither builds
    # nor writes a table, and the answer stays the same
    from hirzebruch import exceptional, existence

    code, out, _ = run_cli(capsys, "delta", "--e", "0", "--nu", "1/2,1/2", "--m", "1", "--max-rank", "2")
    assert code == 0 and '"lower": "3/4"' in out and '"upper": "3/4"' in out
    cache = tmp_path / "c.jsonl"
    for mod in (exceptional, existence):
        monkeypatch.setattr(mod, "build_table", lambda *a, **k: pytest.fail("built a table"))
    for sub in (("delta", "--nu", "1/2,1/2", "--max-rank", "2"),
                ("dlp", "--nu", "1/2,1/2", "--below-rank", "2"),
                ("grid", "--square", "0,1,0,1", "--steps", "1", "--below-rank", "2")):
        code, got, err = run_cli(capsys, sub[0], "--e", "0", "--m", "1", *sub[1:], "--cache", str(cache))
        assert (code, err) == (0, "") and (sub[0] != "delta" or got == out)
    assert not cache.exists()


def _fuzz_argv(rng):
    """One argv for a random subcommand from well-formed and malformed atoms:
    zero denominators, float and exponent literals, empty strings, wrong
    arity, zero or negative ranks and e >= 2 where only F_0/F_1 is served."""
    bad = ["1/0", "0/0", "1.5", "1e3", "", "x", "-1", "0", " 2", "1/-2"]
    rat = ["1", "1/2", "3/2", "2", "1/3", "7/3"]
    small = ["-2", "-1", "0", "1", "2", "3"]

    def pick(good, weight=0.15):
        return rng.choice(bad) if rng.random() < weight else rng.choice(good)

    def tup(*pools):
        """A comma list, one entry per pool, with one entry too few or too
        many one time in ten."""
        pools = list(pools)
        if rng.random() < 0.05:
            pools.pop()
        elif rng.random() < 0.05:
            pools.append(rat)
        return ",".join(pick(pool, 0.05) for pool in pools)

    e = pick(["0", "1", "0", "1", "2", "3", "5"])
    rank = pick(["1", "2", "3", "4", "5"])
    char = tup(["1", "2", "3", "4", "0"], small, small, small + ["1/2", "-3/2"])
    nu = tup(rat + ["-1/4"], rat + ["-1/4"])
    opts = {
        "exceptional": [("--e", e), ("--max-rank", rank)],
        "exists": [("--e", e), ("--char", char), ("--m", pick(rat))],
        "hn": [("--e", e), ("--char", char), ("--m", pick(rat))],
        "dlp": [("--e", e), ("--nu", nu), ("--m", pick(rat)), ("--below-rank", rank)],
        "delta": [("--e", e), ("--nu", nu), ("--m", pick(rat)), ("--max-rank", rank)],
        "kronecker": [("--e", e), ("--ell", pick(small)), ("--abcd", tup(*[small] * 4))],
        "reduce": [("--e", e), ("--char", char), ("--m", pick(rat))],
        "grid": [("--e", e), ("--m", pick(rat)), ("--square", tup(*[rat + ["0"]] * 4)),
                 ("--steps", pick(["0", "1", "2", "-1"])), ("--below-rank", rank)],
    }
    sub = rng.choice(sorted(opts))
    argv = [sub]
    for flag, value in opts[sub]:
        if rng.random() < 0.05:
            continue                    # a missing option
        argv += [flag, value]
    if rng.random() < 0.05:
        argv.append(rng.choice(bad + ["--e"]))  # a stray argument
    return argv


def test_fuzz_exit_codes(capsys, monkeypatch):
    # malformed input gets a documented exit code and a message, never a
    # traceback; ranks stay <= 5 so that every command is quick
    monkeypatch.delenv("HIRZ_CACHE", raising=False)
    rng = random.Random(29)
    codes = {}
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejections
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, argv
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0, 0) >= 20 and codes.get(2, 0) >= 100, codes


def _exit_code(argv):
    """main(argv), with an argparse rejection read as its exit code; any
    other exception fails the test with the argv that raised it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:                    # a traceback for the user
        pytest.fail("%r raised %r" % (argv, exc))


def test_numbers_outside_the_grammar_exit_2(capsys):
    # integers are ASCII digits with an optional sign, rationals the same
    # with at most one "/"; what Python's int() would also read (digit
    # group underscores, other scripts' digits) is refused, naming the text
    cases = [
        (("exists", "--e", "0", "--char", "1_0,0,0,0", "--m", "1"), "1_0"),
        (("exists", "--e", "0", "--char", "1,0,0,0", "--m", "\u0663"), "\u0663"),
        (("exists", "--e", "0", "--char", "1,0,0,0", "--m", "1_0/3"), "1_0/3"),
        (("exceptional", "--e", "0", "--max-rank", "\u0663"), "\u0663"),
        (("exceptional", "--e", "\uff10", "--max-rank", "3"), "\uff10"),
        (("hn", "--e", "0", "--char", "2,1,0,-1/-2", "--m", "1"), "-1/-2"),
        (("dlp", "--e", "0", "--nu", "1/2,nan", "--m", "1", "--below-rank", "3"), "nan"),
        (("dlp", "--e", "0", "--nu", "1/2,1/3", "--m", "1", "--below-rank", "3/1"), "3/1"),
        (("delta", "--e", "0", "--nu", "1/2,1/3", "--m", "1", "--max-rank", "0x3"), "0x3"),
        (("kronecker", "--e", "0", "--ell", "3", "--abcd", "1,1,2,1_5"), "1_5"),
        (("kronecker", "--e", "0", "--ell", "inf", "--abcd", "1,1,2,15"), "inf"),
        (("reduce", "--e", "2", "--char", "3,1,\u0663,-1", "--m", "1"), "\u0663"),
        (("grid", "--e", "0", "--m", "1", "--square", "0,1,0,1//2", "--steps", "1",
          "--below-rank", "2"), "1//2"),
        (("grid", "--e", "0", "--m", "1", "--square", "0,1,0,1", "--steps", "1_0",
          "--below-rank", "2"), "1_0"),
    ]
    for argv, text in cases:
        code = _exit_code(list(argv))
        out = capsys.readouterr()
        assert (code, out.out) == (2, ""), argv
        assert repr(text) in out.err and "Traceback" not in out.err, (argv, out.err)
        assert "not an integer" in out.err or "not a rational number" in out.err, (argv, out.err)
    # the same commands with ASCII numbers answer
    code, out, _ = run_cli(capsys, "exists", "--e", "+0", "--char", "+10,-0,0,0", "--m", "+10/3")
    assert code == 0 and json.loads(out)["verdict"] == "NONEMPTY"


# values that are malformed, out of range or read differently by Python
_ODD = ["1/0", "0/0", "nan", "inf", "-inf", "1_0", "\u0663", "\uff11", "", " ", "1,1,1,1,1",
        "1.5", "1e3", "0x1", "1/2/3", "1//2", "/2", "2/", "1/-2", "+-1", "- 1", "--e", "-1",
        "0", "00", "+3", "-1/2", "3/2", ",", "1,", ",1"]

# one well-formed argv per subcommand, option by option, with small ranks
_BASE = {
    "exceptional": [("--e", "0"), ("--max-rank", "3")],
    "exists": [("--e", "0"), ("--char", "2,1,0,-1"), ("--m", "1")],
    "hn": [("--e", "1"), ("--char", "2,1,0,-3/2"), ("--m", "1/2")],
    "dlp": [("--e", "1"), ("--nu", "1/2,1/3"), ("--m", "1"), ("--below-rank", "3")],
    "delta": [("--e", "0"), ("--nu", "1/2,1/3"), ("--m", "1"), ("--max-rank", "3")],
    "kronecker": [("--e", "0"), ("--ell", "3"), ("--abcd", "1,1,2,15")],
    "reduce": [("--e", "2"), ("--char", "3,1,3,-1"), ("--m", "1")],
    "grid": [("--e", "0"), ("--m", "1"), ("--square", "0,1,0,1"), ("--steps", "1"),
             ("--below-rank", "3")],
}


def _argv(sub, values):
    argv = [sub]
    for flag, value in _BASE[sub]:
        argv += [flag, values.get(flag, value)]
    return argv


def test_fuzz_odd_values_in_every_slot(capsys, monkeypatch):
    # every subcommand with each odd value in each option and in each entry
    # of a comma list, then seeded pairs of odd values: a documented exit
    # code, no traceback, and nothing on stdout when the input is refused
    monkeypatch.delenv("HIRZ_CACHE", raising=False)
    runs = []
    for sub, opts in sorted(_BASE.items()):
        for flag, value in opts:
            parts = value.split(",")
            for odd in _ODD:
                runs.append(_argv(sub, {flag: odd}))
                if len(parts) > 1:
                    for i in range(len(parts)):
                        runs.append(_argv(sub, {flag: ",".join(parts[:i] + [odd] + parts[i + 1:])}))
    rng = random.Random(35)
    for _ in range(200):
        sub = rng.choice(sorted(_BASE))
        flags = rng.sample([flag for flag, _ in _BASE[sub]], 2)
        runs.append(_argv(sub, {flag: rng.choice(_ODD) for flag in flags}))
    codes = {}
    for argv in runs:
        code = _exit_code(argv)
        out = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, out.err)
        assert "Traceback" not in out.err, argv
        if code in (2, 3):
            assert out.out == "", argv
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0, 0) >= 50 and codes.get(2, 0) >= 1000, codes
