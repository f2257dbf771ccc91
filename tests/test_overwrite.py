"""Outputs and manifests are overwritten in place, then cut to length.

The CLI opens every data file and manifest without ``O_TRUNC`` and cuts it
to the written length afterwards (``cli._overwrite``).  Writing over an
older, longer file must leave exactly the bytes of a fresh write; a chunk
that raises leaves exactly the text before it; a symlink, a hard link, a
file mode and a FIFO are written through; a directory is still an I/O
error.
"""

import os
import threading

import pytest

from equibasis import cli
from equibasis.cli import CURVE_CHUNK, main

CONSTRUCT_D8 = ["construct", "--theta", ",".join(repr(0.3 * k * k) for k in range(8))]
CONSTRUCT_D3 = ["construct", "--family", "d3-real", "--param-deg", "30"]
CURVE_LONG = ["curve", "--family", "d4-real", "--from", "0", "--to", "360", "--step", "0.25"]
CURVE_SHORT = ["curve", "--family", "d4-real", "--from", "0", "--to", "360", "--step", "0.5"]


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    """Manifests of two runs differ only by their timestamp; pin it."""
    monkeypatch.setattr(cli, "utc_timestamp", lambda: "2000-01-01T00:00:00Z")


def run(directory, argv, name):
    """Run argv with ``--output name`` inside directory (relative, so the
    manifests' command lines agree); return the exit code and the data and
    manifest bytes."""
    directory.mkdir(exist_ok=True)
    home = os.getcwd()
    os.chdir(directory)
    try:
        code = main(argv + ["--output", name, "--quiet"])
    finally:
        os.chdir(home)
    manifest = (directory / name).with_suffix(".manifest.json")
    return code, (directory / name).read_bytes(), manifest.read_bytes()


@pytest.mark.parametrize(
    "first, second, name",
    [
        (CONSTRUCT_D8 + ["--format", "json"], CONSTRUCT_D3 + ["--format", "json"], "out.json"),
        (CONSTRUCT_D8 + ["--format", "csv"], CONSTRUCT_D3 + ["--format", "csv"], "out.csv"),
        (CURVE_LONG, CURVE_SHORT, "out.csv"),
    ],
    ids=["construct-json", "construct-csv", "curve"],
)
def test_a_shorter_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, first, second, name):
    code, old_data, old_manifest = run(tmp_path / "reused", first, name)
    assert code == 0
    code, data, manifest = run(tmp_path / "reused", second, name)
    assert code == 0
    _, fresh_data, fresh_manifest = run(tmp_path / "fresh", second, name)
    assert len(fresh_data) < len(old_data) and len(fresh_manifest) < len(old_manifest)
    assert data == fresh_data
    assert manifest == fresh_manifest


def test_an_error_mid_grid_leaves_the_header_and_the_first_chunk(tmp_path, monkeypatch):
    code, _, _ = run(tmp_path / "reused", CURVE_LONG, "out.csv")
    assert code == 0
    _, fresh, _ = run(tmp_path / "fresh", CURVE_SHORT, "out.csv")
    lines = fresh.splitlines(keepends=True)
    assert len(lines) > 1 + 2 * CURVE_CHUNK  # the grid has a second chunk
    honest, calls = cli.entanglement, []

    def failing_on_the_second_chunk(a):
        calls.append(len(a))
        if len(calls) == 2:
            raise RuntimeError("entropy outside [0, 1]")
        return honest(a)

    monkeypatch.setattr(cli, "entanglement", failing_on_the_second_chunk)
    out = tmp_path / "reused" / "out.csv"
    assert main(CURVE_SHORT + ["--output", str(out), "--quiet"]) == 4
    assert out.read_bytes() == b"".join(lines[: 1 + CURVE_CHUNK])


def test_a_symlinked_output_stays_a_link_and_its_target_gets_the_bytes(tmp_path):
    _, fresh, _ = run(tmp_path / "fresh", CONSTRUCT_D3, "out.json")
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * (2 * len(fresh)))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(CONSTRUCT_D3 + ["--output", str(link), "--quiet"]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


def test_a_hard_link_and_the_file_mode_are_kept(tmp_path):
    _, fresh, _ = run(tmp_path / "fresh", CONSTRUCT_D3, "out.json")
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * (2 * len(fresh)))
    out.chmod(0o640)
    alias = tmp_path / "alias.json"
    os.link(out, alias)
    assert main(CONSTRUCT_D3 + ["--output", str(out), "--quiet"]) == 0
    assert alias.read_bytes() == fresh
    assert os.stat(out).st_ino == os.stat(alias).st_ino
    assert out.stat().st_mode & 0o777 == 0o640


def test_a_fifo_output_is_written_and_not_cut(tmp_path):
    _, fresh, _ = run(tmp_path / "fresh", CURVE_SHORT, "out.csv")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = main(CURVE_SHORT + ["--output", str(fifo), "--quiet"])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0
    assert received == [fresh]


def test_a_directory_output_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.mkdir()
    assert main(CONSTRUCT_D3 + ["--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize(
    "argv, name",
    [
        (CONSTRUCT_D3, "out.json"),
        (CURVE_SHORT, "out.csv"),
        (["verify", "--preset", "d=3"], "out.json"),
        (["search", "--d", "4", "--seed", "0"], "out.json"),
    ],
    ids=["construct", "curve", "verify", "search"],
)
def test_no_output_or_manifest_is_opened_with_o_trunc(tmp_path, monkeypatch, argv, name):
    out = tmp_path / name
    for path in (out, out.with_suffix(".manifest.json")):
        path.write_bytes(b"x" * 10**5)  # an older, longer file
    honest, opened = os.open, []

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return honest(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(argv + ["--output", str(out), "--quiet"]) == 0
    assert sorted(path for path, _ in opened) == sorted(
        [str(out), str(out.with_suffix(".manifest.json"))]
    )
    assert all(flags & os.O_TRUNC == 0 for _, flags in opened)
    assert out.stat().st_size < 10**5
