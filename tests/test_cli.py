from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import gga_verify
from gga_verify import cli, recursion
from gga_verify.errors import NonDivisible
from gga_verify.qseries import TruncatedSeries
from gga_verify.recursion import CheckReport


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = cli.run(list(argv), stdout=buffer)
    return code, buffer.getvalue()


def test_series_c_documented_output() -> None:
    code, out = run_cli("series", "c", "--r", "2", "--index", "1", "--N", "6")
    assert code == 0
    assert out == '{"trunc":6,"coeffs":["1","1","1","1","2","2","2"]}\n'


def test_series_e_matches_series_c_at_level_zero() -> None:
    _, via_c = run_cli("series", "c", "--r", "2", "--index", "1", "--N", "6")
    _, via_e = run_cli("series", "e", "--r", "2", "--i", "2", "--J", "0", "--N", "6")
    assert via_c == via_e


def test_series_degenerate_truncation() -> None:
    code, out = run_cli("series", "c", "--r", "2", "--index", "1", "--N", "0")
    assert code == 0
    assert out == '{"trunc":0,"coeffs":["1"]}\n'


def test_series_output_roundtrips() -> None:
    _, out = run_cli("series", "c", "--r", "3", "--index", "4", "--N", "12")
    data = json.loads(out)
    series = TruncatedSeries(tuple(int(c) for c in data["coeffs"]))
    assert series.trunc == data["trunc"] == 12


def test_series_missing_index_is_usage_error() -> None:
    code, _ = run_cli("series", "c", "--r", "2", "--N", "6")
    assert code == 2


def test_count_commands() -> None:
    code, out = run_cli("count", "d", "--r", "2", "--i", "2", "--n", "5")
    assert code == 0
    assert json.loads(out) == {
        "kind": "d",
        "params": {"r": 2, "i": 2, "J": 0},
        "n": 5,
        "count": "2",
    }
    _, out_c = run_cli("count", "c", "--r", "2", "--i", "2", "--n", "5")
    assert json.loads(out_c)["count"] == "2"
    _, out_e = run_cli("count", "e", "--r", "2", "--i", "2", "--J", "1", "--n", "7")
    assert json.loads(out_e)["count"] == "1"


@pytest.mark.parametrize("kind", ["c", "d"])
def test_count_level_zero_kinds_reject_nonzero_J(
    kind: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code, out = run_cli("count", kind, "--r", "2", "--i", "1", "--J", "1", "--n", "9")
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: count {kind} is a level-zero count") and err.count("\n") == 1
    code, out = run_cli("count", kind, "--r", "2", "--i", "1", "--J", "0", "--n", "9")
    assert code == 0
    assert json.loads(out)["params"] == {"r": 2, "i": 1, "J": 0}


LEVEL_FREE = {
    "series-c": ["series", "c", "--r", "2", "--index", "1", "--N", "8"],
    "hilbert-Lk": ["hilbert", "--family", "Lk", "--k", "3", "--r", "2", "--N", "12"],
    "hilbert-Lkl": ["hilbert", "--family", "Lkl", "--k", "2", "--ell", "1", "--r", "3", "--N", "12"],
}


@pytest.mark.parametrize("argv", LEVEL_FREE.values(), ids=LEVEL_FREE.keys())
def test_level_free_commands_reject_nonzero_J(
    argv: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    default = run_cli(*argv)
    assert default[0] == 0
    code, out = run_cli(*argv, "--J", "5")
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--J must be 0, not 5" in err and err.count("\n") == 1
    assert run_cli(*argv, "--J", "0") == default


# Each argv gives a flag its family or kind does not read, and the one error line.
UNREAD_FLAG = [
    ("hilbert --family Lk --k 3 --r 2 --i 9 --N 3", "family Lk does not take --i"),
    ("hilbert --family Lk --k 3 --ell 1 --r 2 --N 6", "family Lk does not take --ell"),
    ("hilbert --family Lkl --k 2 --ell 1 --r 3 --i 1 --N 6", "family Lkl does not take --i"),
    ("hilbert --family LriJ --r 2 --i 1 --k 3 --N 6", "family LriJ does not take --k"),
    ("hilbert --family LriJ --r 2 --i 1 --ell 1 --N 6", "family LriJ does not take --ell"),
    ("series e --r 2 --i 1 --index 1 --N 6", "series e does not take --index"),
    ("series c --r 2 --index 1 --i 1 --N 6", "series c does not take --i"),
]


@pytest.mark.parametrize(("argv", "message"), UNREAD_FLAG, ids=[argv for argv, _ in UNREAD_FLAG])
def test_flag_the_family_or_kind_does_not_read_is_rejected(
    argv: str, message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    assert run_cli(*argv.split()) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_hilbert_families() -> None:
    code, out = run_cli("hilbert", "--family", "LriJ", "--r", "2", "--i", "2", "--J", "0", "--N", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["engines_agree"] is True
    assert payload["hp_brute"] == payload["hp_split"]
    assert payload["generators"][0] == "x1^2"

    code, out = run_cli("hilbert", "--family", "Lk", "--k", "3", "--r", "2", "--N", "20")
    assert code == 0
    assert json.loads(out)["min_var"] == 3

    code, out = run_cli("hilbert", "--family", "Lkl", "--k", "2", "--ell", "1", "--r", "3", "--N", "20")
    assert code == 0
    assert json.loads(out)["engines_agree"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--family", "LriJ", "--r", "2", "--i", "1"],
        ["series", "c", "--r", "2", "--index", "1"],
        ["series", "e", "--r", "2", "--i", "1"],
    ],
    ids=["hilbert", "series-c", "series-e"],
)
def test_negative_N_is_named_by_its_flag(argv: list[str], capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(*argv, "--N", "-1")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: N = -1 violates N >= 0\n"


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


def test_verify_with_lemmas_includes_all_check_kinds() -> None:
    code, out = run_cli("verify", "--lemmas", "--r", "2", "--i", "2", "--J", "0", "--N", "14")
    assert code == 0
    checks = {json.loads(line)["check"] for line in out.strip().split("\n")}
    assert checks == {"main", "hp_step", "hp_expansion", "c_expansion", "mn_tables", "limits"}


def test_verify_rejects_r_below_two() -> None:
    code, _ = run_cli("verify", "--r", "1", "--N", "5")
    assert code == 2


def test_verify_rejects_fixed_i_beyond_r() -> None:
    code, _ = run_cli("verify", "--r", "2", "--i", "3", "--N", "5")
    assert code == 2


def test_verify_validates_before_computation() -> None:
    # the cell (2, 3) is invalid, so nothing at all is emitted
    code, out = run_cli("verify", "--r", "2..3", "--i", "3", "--J", "0", "--N", "5")
    assert code == 2
    assert out == ""


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


def test_table_format() -> None:
    code, out = run_cli("series", "c", "--r", "2", "--index", "1", "--N", "3", "--format", "table")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t1", "3\t1"]
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--format", "table")
    assert code == 0
    assert out.startswith("PASS\tmain")


def test_exit_one_on_identity_mismatch(monkeypatch: pytest.MonkeyPatch) -> None:
    failing = CheckReport("main", {"r": 2}, False, None, 8)
    monkeypatch.setattr(cli, "verify_main", lambda *a, **kw: failing)
    code, out = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_exit_three_on_divisibility_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    def explode(*args: object) -> TruncatedSeries:
        raise NonDivisible("synthetic")

    monkeypatch.setattr(cli, "c_series", explode)
    code, _ = run_cli("series", "c", "--r", "2", "--index", "3", "--N", "6")
    assert code == 3


def test_exit_three_on_certified_range_violation(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # one degree short of the exact cascade padding: index 7 is the i = r entry of level 2
    exact = recursion._recursion_padding
    monkeypatch.setattr(recursion, "_recursion_padding", lambda r, g_stop: exact(r, g_stop) - 1)
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


@pytest.mark.parametrize("unbuffered", [False, True])
def test_exit_four_when_the_reader_closes_the_pipe(unbuffered: bool) -> None:
    # `verify ... 2>&1 | head -1`: the reader leaves after one line while the
    # rest of the stream is still being computed, so stdout and stderr break.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(gga_verify.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gga_verify.cli", "verify", "--r", "2..4", "--N", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    first = proc.stdout.readline()
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
    monkeypatch.setattr(recursion, "_recursion_padding", lambda r, g_stop: exact(r, g_stop) - 1)
    code, out = run_cli("series", "c", "--r", "3", "--index", "7", "--N", "10", "--out", str(target))
    assert code == 3
    assert out == ""
    assert target.read_text() == "old content\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_flag_replaces_old_file_on_mismatch(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    target = tmp_path / "reports.jsonl"
    target.write_text("old content\n")
    failing = CheckReport("main", {"r": 2}, False, None, 8)
    monkeypatch.setattr(cli, "verify_main", lambda *a, **kw: failing)
    code, _ = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--out", str(target))
    assert code == 1
    assert json.loads(target.read_text())["pass"] is False
    assert list(tmp_path.iterdir()) == [target]


def test_out_flag_directory_target_is_usage_error(
    tmp_path, capsys: pytest.CaptureFixture[str]
) -> None:
    target = tmp_path / "reports"
    target.mkdir()
    code, _ = run_cli("verify", "--r", "2", "--i", "1", "--J", "0", "--N", "8", "--out", str(target))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
