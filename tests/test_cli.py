from __future__ import annotations

import errno
import io
import json
import os
import stat
import subprocess
import sys

import pytest

from gga_verify import cli, hilbert, partitions, recursion
from gga_verify.errors import NonDivisible
from gga_verify.qseries import TruncatedSeries
from gga_verify.recursion import CheckReport

from oracles import run_cli

SERIES_C = '{"trunc":6,"coeffs":["1","1","1","1","2","2","2"]}\n'
COUNT_C = '{"kind":"c","params":{"r":2,"i":2,"J":0},"n":5,"count":"2"}\n'
COUNT_D = '{"kind":"d","params":{"r":2,"i":2,"J":0},"n":5,"count":"2"}\n'
# the second series is keyed hp_split, whichever splitting mode computes it
HILBERT_LK = (
    '{"family":"Lk","params":{"k":3,"r":2,"N":8},"min_var":3,'
    '"generators":["x3^2","x3*x4","x4^2"],'
    '"hp_brute":{"trunc":8,"coeffs":["1","0","0","1","1","1","1","1","2"]},'
    '"hp_split":{"trunc":8,"coeffs":["1","0","0","1","1","1","1","1","2"]},'
    '"engines_agree":true}\n'
)
HILBERT_LKL = (
    '{"family":"Lkl","params":{"k":2,"ell":1,"r":3,"N":6},"min_var":2,'
    '"generators":["x2","x3^2"],'
    '"hp_brute":{"trunc":6,"coeffs":["1","0","0","1","1","1","1"]},'
    '"hp_split":{"trunc":6,"coeffs":["1","0","0","1","1","1","1"]},"engines_agree":true}\n'
)
VERIFY = (
    '{"check":"main","params":{"r":2,"i":1,"ell":2,"J":0,"N":5},'
    '"pass":true,"first_mismatch":null,"truncation":5}\n'
)

# Each argv, and the exact stdout of its exit-0 run.  A --J 0 row prints the
# bytes of the same argv without it; the rows without --N pin its default.
OUTPUTS = {
    "series c --r 2 --index 1 --N 6": SERIES_C,
    "series c --r 2 --index 1 --J 0 --N 6": SERIES_C,
    "series e --r 2 --i 2 --J 0 --N 6": SERIES_C,  # the gap side at level zero
    "series c --r 2 --index 1 --N 0": '{"trunc":0,"coeffs":["1"]}\n',
    "series c --r 3 --index 4 --N 12": (
        '{"trunc":12,"coeffs":["1","0","0","1","1","1","1","1","2","3","3","4","5"]}\n'
    ),
    "series c --r 2 --index 1": (
        '{"trunc":20,"coeffs":["1","1","1","1","2","2","2","3","4","5","5",'
        '"6","8","9","10","12","15","17","19","22","26"]}\n'
    ),
    "series c --r 2 --index 1 --N 3 --format table": "0\t1\n1\t1\n2\t1\n3\t1\n",
    "count c --r 2 --i 2 --n 5": COUNT_C,
    "count c --r 2 --i 2 --J 0 --n 5": COUNT_C,
    "count d --r 2 --i 2 --n 5": COUNT_D,
    "count d --r 2 --i 2 --J 0 --n 5": COUNT_D,
    "count e --r 2 --i 2 --J 1 --n 7": '{"kind":"e","params":{"r":2,"i":2,"J":1},"n":7,"count":"1"}\n',
    "count d --r 2 --i 2 --n 5 --format table": "d\tr=2 i=2 J=0\tn=5\t2\n",
    "hilbert --family LriJ --r 2 --i 1 --N 6": (
        '{"family":"LriJ","params":{"r":2,"i":1,"J":0,"N":6},"min_var":1,'
        '"generators":["x1","x2","x3^2"],'
        '"hp_brute":{"trunc":6,"coeffs":["1","0","0","1","1","1","1"]},'
        '"hp_split":{"trunc":6,"coeffs":["1","0","0","1","1","1","1"]},"engines_agree":true}\n'
    ),
    "hilbert --family LriJ --r 2 --i 1 --J 1 --N 6": (  # anchor k = 2J + 1 = 3
        '{"family":"LriJ","params":{"r":2,"i":1,"J":1,"N":6},"min_var":3,'
        '"generators":["x3","x4"],'
        '"hp_brute":{"trunc":6,"coeffs":["1","0","0","0","0","1","1"]},'
        '"hp_split":{"trunc":6,"coeffs":["1","0","0","0","0","1","1"]},"engines_agree":true}\n'
    ),
    "hilbert --family Lk --k 3 --r 2 --N 8": HILBERT_LK,
    "hilbert --family Lk --k 3 --r 2 --J 0 --N 8": HILBERT_LK,
    "hilbert --family Lk --k 3 --r 2 --format table": (
        "family Lk  min_var=3  engines_agree=True\n"
        "  x3^2\n  x3*x4\n  x4^2\n  x4*x5\n  x4*x6\n  x5^2\n  x5*x6\n  x6^2\n  x6*x7\n"
        "  x6*x8\n  x7^2\n  x7*x8\n  x8^2\n  x8*x9\n  x8*x10\n  x9^2\n  x9*x10\n  x10^2\n"
        "  hp: 1,0,0,1,1,1,1,1,2,2,2,3,4,4,4,6,7,7,8,10,12\n"
    ),
    "hilbert --family Lkl --k 2 --ell 1 --r 3 --N 6": HILBERT_LKL,
    "hilbert --family Lkl --k 2 --ell 1 --r 3 --J 0 --N 6": HILBERT_LKL,
    "verify": (
        '{"check":"main","params":{"r":2,"i":1,"ell":2,"J":0,"N":40},'
        '"pass":true,"first_mismatch":null,"truncation":40}\n'
        '{"check":"main","params":{"r":2,"i":2,"ell":1,"J":0,"N":40},'
        '"pass":true,"first_mismatch":null,"truncation":40}\n'
    ),
    "verify --r 2 --i 1 --J 0 --N 5": VERIFY,
    "verify --r 2..2 --i 1..1 --J 0..0 --N 5": VERIFY,
    "verify --r 2 --i 1 --N 5 --format table": 'PASS\tmain\t{"r":2,"i":1,"ell":2,"J":0,"N":5}\n',
    # the lemma checks in order: d = J + 1, J + 2, then the tables to J + 3
    "verify --lemmas --r 2 --i 1 --J 0 --N 3 --format table": (
        'PASS\tmain\t{"r":2,"i":1,"ell":2,"J":0,"N":3}\n'
        'PASS\thp_step\t{"r":2,"k":1,"ell":2,"J":0,"N":3}\n'
        'PASS\thp_expansion\t{"r":2,"i":1,"J":0,"d":1,"N":3}\n'
        'PASS\tc_expansion\t{"r":2,"ell":2,"J":0,"d":1,"N":3}\n'
        'PASS\thp_expansion\t{"r":2,"i":1,"J":0,"d":2,"N":3}\n'
        'PASS\tc_expansion\t{"r":2,"ell":2,"J":0,"d":2,"N":3}\n'
        'PASS\tmn_tables\t{"r":2,"i":1,"ell":2,"J":0,"d_max":3,"N":3}\n'
        'PASS\tlimits\t{"r":2,"i":1,"ell":2,"J":0,"N":3,"d_stop":1,"depth":2}\n'
    ),
}


@pytest.mark.parametrize(("argv", "stdout"), OUTPUTS.items(), ids=OUTPUTS.keys())
def test_output(argv: str, stdout: str, monkeypatch: pytest.MonkeyPatch) -> None:
    def unused(*args, **kwargs):
        raise AssertionError("hp_split was called")

    monkeypatch.setattr(hilbert, "hp_split", unused)  # hilbert runs verify's engine
    assert run_cli(*argv.split()) == (0, stdout)


# Each argv, and the one line after "error: " that it exits 2 with, before any
# output.  A family's anchor and cap are named as its own flags: LriJ's as i
# and J, not as the k and ell of the family ideal it builds.
USAGE_ERRORS = {
    "series c --r 2 --N 6": "series c requires --index",
    "series c --r 2 --index 1 --i 1 --N 6": "series c does not take --i",
    "series e --r 2 --i 1 --index 1 --N 6": "series e does not take --index",
    "series c --r 2 --index 1 --J 5 --N 6": "series c takes its level from --index: --J must be 0, not 5",
    "series c --r 2 --index 1 --N -1": "N = -1 violates N >= 0",
    "series e --r 2 --i 1 --N -1": "N = -1 violates N >= 0",
    "count c --r 2 --i 2 --J 1 --n 5": "count c is a level-zero count: --J must be 0, not 1",
    "count d --r 2 --i 2 --J 1 --n 5": "count d is a level-zero count: --J must be 0, not 1",
    "hilbert --family LriJ --r 2 --i 1 --N -1": "N = -1 violates N >= 0",
    "hilbert --family LriJ --r 2 --i 1 --k 3 --N 6": "family LriJ does not take --k",
    "hilbert --family LriJ --r 2 --i 1 --ell 1 --N 6": "family LriJ does not take --ell",
    "hilbert --family LriJ --r 3 --i 4": "i = 4 violates 1 <= i <= 3",
    "hilbert --family LriJ --r 3 --i 0": "i = 0 violates 1 <= i <= 3",
    "hilbert --family LriJ --r 3 --i 2 --J -1": "J = -1 violates J >= 0",
    "hilbert --family LriJ --r 3 --i 9 --J -2": "i = 9 violates 1 <= i <= 3",
    "hilbert --family Lk --k 3 --r 2 --i 9 --N 3": "family Lk does not take --i",
    "hilbert --family Lk --k 3 --ell 1 --r 2 --N 6": "family Lk does not take --ell",
    "hilbert --family Lk --k 3 --r 2 --J 5 --N 8": "family Lk has no level: --J must be 0, not 5",
    "hilbert --family Lk --k 0 --r 3": "k = 0 violates k >= 1",
    "hilbert --family Lkl --k 2 --ell 1 --r 3 --i 1 --N 6": "family Lkl does not take --i",
    "hilbert --family Lkl --k 2 --ell 1 --r 3 --J 5 --N 6": "family Lkl has no level: --J must be 0, not 5",
    "hilbert --family Lkl --k 3 --ell 4 --r 3": "ell = 4 violates 1 <= ell <= 3",
    "hilbert --family Lkl --k 3 --ell 0 --r 3": "ell = 0 violates 1 <= ell <= 3",
    "hilbert --family Lkl --k 0 --ell 9 --r 3": "k = 0 violates k >= 1",
    "verify --r 1 --N 5": "r = 1 violates r >= 2",
    "verify --r 2 --i 3 --N 5": "i = 3 violates 1 <= i <= 2",
    "verify --r 2 --i 1..3 --N 5": "i = 3 violates 1 <= i <= 2",  # no cell runs first
    "verify --r 2.. --N 5": "--r 2.. is not an integer or a range A..B",
    "verify --i x --N 5": "--i x is not an integer or a range A..B",
    "verify --J 0..y --N 5": "--J 0..y is not an integer or a range A..B",
    "verify --r 4..2 --N 5": "--r 4..2 is an empty range",
}


@pytest.mark.parametrize(("argv", "line"), USAGE_ERRORS.items(), ids=USAGE_ERRORS.keys())
def test_usage_error(argv: str, line: str, capsys: pytest.CaptureFixture[str]) -> None:
    assert run_cli(*argv.split()) == (2, "")
    assert capsys.readouterr().err == f"error: {line}\n"


class FlushRecorder(io.StringIO):
    """A stdout that records how many lines it holds at each flush."""

    def __init__(self) -> None:
        super().__init__()
        self.flushed: list[int] = []

    def flush(self) -> None:
        self.flushed.append(self.getvalue().count("\n"))
        super().flush()


def test_verify_flushes_each_report_as_it_is_written() -> None:
    stdout = FlushRecorder()
    assert cli.run(["verify", "--r", "2", "--N", "5"], stdout=stdout) == 0
    assert stdout.flushed == [1, 2]


def test_series_output_roundtrips() -> None:
    _, out = run_cli("series", "c", "--r", "3", "--index", "4", "--N", "12")
    data = json.loads(out)
    series = TruncatedSeries(tuple(int(c) for c in data["coeffs"]))
    assert series.trunc == data["trunc"] == 12


def test_verify_with_lemmas_includes_all_check_kinds() -> None:
    code, out = run_cli("verify", "--lemmas", "--r", "2", "--i", "2", "--J", "0", "--N", "14")
    assert code == 0
    checks = {json.loads(line)["check"] for line in out.strip().split("\n")}
    assert checks == {"main", "hp_step", "hp_expansion", "c_expansion", "mn_tables", "limits"}


def test_verify_matrix_streams_reports() -> None:
    code, out = run_cli("verify", "--r", "2..3", "--i", "all", "--J", "0..1", "--N", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == (2 + 3) * 2  # every (r, i, J) cell emits one report
    for line in lines:
        report = json.loads(line)
        assert report["pass"] is True
        assert report["check"] == "main"
        assert report["truncation"] == 12


def test_determinism_byte_identical() -> None:
    first = run_cli("verify", "--r", "2", "--i", "all", "--J", "0", "--N", "10")
    second = run_cli("verify", "--r", "2", "--i", "all", "--J", "0", "--N", "10")
    assert first == second


def test_out_flag_writes_file(tmp_path) -> None:
    target = tmp_path / "reports.jsonl"
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["check"] == "main"


def test_out_flag_unwritable_is_usage_error(tmp_path, capsys: pytest.CaptureFixture[str]) -> None:
    target = tmp_path / "missing" / "x.jsonl"
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--out", str(target))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and err.count("\n") == 1
    assert not target.exists()


def test_exit_one_on_identity_mismatch(monkeypatch: pytest.MonkeyPatch) -> None:
    failing = CheckReport("main", {"r": 2}, False, None, 8)
    monkeypatch.setattr(recursion, "verify_main", lambda *a, **kw: failing)
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8")
    assert code == 1
    assert json.loads(out)["pass"] is False
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--format", "table")
    assert (code, out) == (1, 'FAIL\tmain\t{"r":2}\n')


def _bumped(series: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries((series.coeffs[0] + 1,) + series.coeffs[1:])


def test_exit_one_only_where_two_engines_disagree(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    # every engine below returns a wrong value, but only hilbert compares two of them
    split = hilbert.hp_notation
    monkeypatch.setattr(hilbert, "hp_notation", lambda *a, **kw: _bumped(split(*a, **kw)))
    argv = ["hilbert", "--family", "Lk", "--k", "3", "--r", "2", "--N", "8"]
    code, out = run_cli(*argv)
    assert code == 1
    assert json.loads(out)["engines_agree"] is False
    code, out = run_cli(*argv, "--format", "table")
    assert code == 1
    assert out.startswith("family Lk  min_var=3  engines_agree=False\n")
    target = tmp_path / "hilbert.json"
    target.write_text("old content\n")
    assert run_cli(*argv, "--out", str(target)) == (1, "")
    assert json.loads(target.read_text())["engines_agree"] is False
    assert list(tmp_path.iterdir()) == [target]

    for name in ("count_C", "count_D", "count_E"):
        monkeypatch.setattr(partitions, name, lambda *args: -1)
    monkeypatch.setattr(partitions, "series_E", lambda *args: TruncatedSeries((2, 0)))
    monkeypatch.setattr(recursion, "c_series", lambda *args: TruncatedSeries((2, 0)))
    for argv_text in (
        "series c --r 2 --index 1 --N 1",
        "series e --r 2 --i 1 --N 1",
        "count c --r 2 --i 1 --n 5",
        "count d --r 2 --i 1 --n 5",
        "count e --r 2 --i 1 --n 5",
    ):
        for fmt in ("json", "table"):
            assert run_cli(*argv_text.split(), "--format", fmt)[0] == 0, (argv_text, fmt)


def test_exit_three_on_divisibility_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    def explode(*args: object) -> TruncatedSeries:
        raise NonDivisible("synthetic")

    monkeypatch.setattr(recursion, "c_series", explode)
    code, _ = run_cli("series", "c", "--r", "2", "--index", "3", "--N", "6")
    assert code == 3


def test_exit_three_on_certified_range_violation(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # one degree short of the exact cascade padding: index 7 is the i = r entry of level 2
    exact = recursion._recursion_padding
    monkeypatch.setattr(
        recursion, "_recursion_padding", lambda r, g_stop, i_stop: exact(r, g_stop, i_stop) - 1
    )
    code, out = run_cli("series", "c", "--r", "3", "--index", "7", "--N", "10")
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("truncation error:") and err.count("\n") == 1


def test_module_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "gga_verify.cli", "series", "c", "--r", "2", "--index", "1", "--N", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"trunc":6,"coeffs":["1","1","1","1","2","2","2"]}\n'


# 103,140 bytes: more than a 64 KiB pipe and the reader's read-ahead hold together.
PIPE_ARGV = ("verify", "--lemmas", "--r", "2..7", "--i", "all", "--J", "0..3", "--N", "14")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_exit_four_when_the_reader_closes_the_pipe(unbuffered: bool) -> None:
    # `verify ... 2>&1 | head -1`: the reader leaves after one line while the
    # child still has more to write than the pipe holds, so stdout and stderr
    # break however long the reader takes to leave.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gga_verify.cli", *PIPE_ARGV],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    first = proc.stdout.readline()
    try:
        from fcntl import F_GETPIPE_SZ, fcntl
    except ImportError:  # no pipe-size query on this platform
        pass
    else:
        stream = run_cli(*PIPE_ARGV)[1].encode()  # the reader stays open meanwhile
        assert len(stream) > fcntl(proc.stdout.fileno(), F_GETPIPE_SZ) + io.DEFAULT_BUFFER_SIZE
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_INTERNAL
    assert json.loads(first)["pass"] is True


def test_exit_four_on_internal_error(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def explode(*args: object) -> int:
        raise RuntimeError("synthetic")

    monkeypatch.setattr(cli, "_cmd_count", explode)
    code, out = run_cli("count", "d", "--r", "2", "--i", "2", "--n", "5")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert capsys.readouterr().err == "internal error: RuntimeError: synthetic\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    def interrupt(*args: object) -> int:
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_count", interrupt)
    target = tmp_path / "count.json"
    with pytest.raises(KeyboardInterrupt):
        run_cli("count", "d", "--r", "2", "--i", "2", "--n", "5", "--out", str(target))
    assert list(tmp_path.iterdir()) == []


def test_out_flag_keeps_old_file_on_failed_run(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    target = tmp_path / "series.json"
    target.write_text("old content\n")
    exact = recursion._recursion_padding
    monkeypatch.setattr(
        recursion, "_recursion_padding", lambda r, g_stop, i_stop: exact(r, g_stop, i_stop) - 1
    )
    code, out = run_cli("series", "c", "--r", "3", "--index", "7", "--N", "10", "--out", str(target))
    assert code == 3
    assert out == ""
    assert target.read_text() == "old content\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_flag_replaces_old_file_on_mismatch(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    target = tmp_path / "reports.jsonl"
    target.write_text("old content\n")
    failing = CheckReport("main", {"r": 2}, False, None, 8)
    monkeypatch.setattr(recursion, "verify_main", lambda *a, **kw: failing)
    code, _ = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--out", str(target))
    assert code == 1
    assert json.loads(target.read_text())["pass"] is False
    assert list(tmp_path.iterdir()) == [target]


def test_out_flag_keeps_old_file_when_the_rename_fails(
    monkeypatch: pytest.MonkeyPatch, tmp_path, capsys: pytest.CaptureFixture[str]
) -> None:
    def refuse(*args: object) -> None:
        raise PermissionError(errno.EACCES, "Permission denied")

    target = tmp_path / "T"
    target.write_text("old content\n")
    monkeypatch.setattr(os, "replace", refuse)
    code, out = run_cli("count", "d", "--r", "2", "--i", "2", "--n", "5", "--out", str(target))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: cannot write --out {target}: Permission denied\n"
    assert target.read_text() == "old content\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("flag", [["--out", ""], ["--out="]], ids=["separate", "joined"])
def test_out_flag_empty_path_is_usage_error(
    flag: list[str], monkeypatch: pytest.MonkeyPatch, tmp_path, capsys: pytest.CaptureFixture[str]
) -> None:
    # the empty path names the working directory, which is not a regular file
    monkeypatch.chdir(tmp_path)
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", *flag)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: cannot write --out : not a regular file\n"
    assert list(tmp_path.iterdir()) == []


def test_out_flag_writes_through_a_symlink(tmp_path) -> None:
    real = tmp_path / "real.json"
    real.write_text("old content\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "new.json")
    argv = ["count", "d", "--r", "2", "--i", "2", "--n", "5", "--out"]
    assert run_cli(*argv, str(link)) == (0, "")
    assert run_cli(*argv, str(dangling)) == (0, "")
    assert link.is_symlink() and dangling.is_symlink()
    assert json.loads(real.read_text())["count"] == "2"
    assert json.loads((tmp_path / "new.json").read_text())["count"] == "2"
    assert len(list(tmp_path.iterdir())) == 4


def test_out_flag_refuses_a_fifo(tmp_path, capsys: pytest.CaptureFixture[str]) -> None:
    fifo = tmp_path / "pipe.json"
    try:
        os.mkfifo(fifo)
    except (AttributeError, OSError):
        pytest.skip("no named pipes here")
    code, out = run_cli("count", "d", "--r", "2", "--i", "2", "--n", "5", "--out", str(fifo))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: cannot write --out {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_out_flag_refuses_a_directory_before_any_computation(
    monkeypatch: pytest.MonkeyPatch, tmp_path, capsys: pytest.CaptureFixture[str]
) -> None:
    def computed(*args: object, **kwargs: object) -> CheckReport:
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(recursion, "verify_main", computed)
    target = tmp_path / "reports"
    target.mkdir()
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--N", "8", "--out", str(target))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: cannot write --out {target}: not a regular file\n"
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
