"""Command-line interface."""

import pytest

from repro.cli import main


def test_methods_lists_registry(capsys):
    assert main(["methods"]) == 0
    out = capsys.readouterr().out
    assert "hstencil" in out
    assert "star2d5p" in out
    assert "lx2" in out


def test_bench_prints_counters(capsys):
    assert main(["bench", "--stencil", "star2d5p", "--size", "32x32"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "cyc/pt" in out


def test_compare_normalizes(capsys):
    code = main(
        [
            "compare",
            "--stencil",
            "box2d9p",
            "--size",
            "64x64",
            "--methods",
            "auto,hstencil",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1.00x" in out
    assert "hstencil" in out


def test_compare_skips_inapplicable(capsys):
    main(["compare", "--stencil", "box2d9p", "--size", "32x32", "--methods", "mat-ortho"])
    out = capsys.readouterr().out
    assert "skipped" in out


def test_listing(capsys):
    assert main(["listing", "--stencil", "star2d5p", "--size", "16x16", "--unroll", "2"]) == 0
    out = capsys.readouterr().out
    assert "fmopa" in out


def test_verify_ok(capsys):
    assert main(["verify", "--stencil", "star2d9p", "--size", "16x32", "--unroll", "2"]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_3d(capsys):
    assert main(["verify", "--stencil", "star3d7p", "--size", "4x16x32", "--unroll", "2"]) == 0
    assert "OK" in capsys.readouterr().out


def test_scaling(capsys):
    code = main(
        ["scaling", "--stencil", "box2d9p", "--size", "256", "--cores", "1,2", "--method", "hstencil"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "GStencil/s" in out
    assert "vs serial" in out


def test_scaling_reports_remainder_rows(capsys):
    code = main(
        ["scaling", "--stencil", "box2d9p", "--size", "96", "--cores", "1,11",
         "--method", "vector-only"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "8 remainder rows unassigned" in out  # 96 % 11


@pytest.mark.parametrize("cores", ["0,2", "-1,2"])
def test_scaling_rejects_core_counts_below_one(cores):
    bad = cores.split(",")[0]
    with pytest.raises(SystemExit, match=f"core counts must be >= 1, got {bad}$"):
        main(["scaling", "--stencil", "box2d9p", "--size", "96", f"--cores={cores}"])


def test_bench_cache_dir_and_json(tmp_path, capsys):
    import json

    argv = [
        "bench", "--stencil", "star2d5p", "--size", "32x32",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(tmp_path / "art.json"),
    ]
    assert main(argv) == 0
    cold = json.loads((tmp_path / "art.json").read_text())
    assert cold["cache"]["simulated"] == 1
    assert cold["cells"][0]["source"] == "simulated"
    assert cold["machine"]["name"] == "LX2"
    capsys.readouterr()

    assert main(argv) == 0  # second run: disk hit, zero simulations
    warm = json.loads((tmp_path / "art.json").read_text())
    assert warm["cache"]["simulated"] == 0
    assert warm["cache"]["disk_hits"] == 1
    assert warm["cells"][0]["counters"] == cold["cells"][0]["counters"]


def test_compare_json_artifact_in_directory(tmp_path, capsys):
    import json

    code = main(
        ["compare", "--stencil", "box2d9p", "--size", "64x64",
         "--methods", "auto,hstencil", "--json", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "BENCH_compare.json").read_text())
    assert payload["experiment"] == "compare"
    assert payload["speedups"]["hstencil"] > 1.0
    assert {c["method"] for c in payload["cells"]} == {"auto", "hstencil"}


def test_square_size_shorthand(capsys):
    assert main(["verify", "--stencil", "star2d5p", "--size", "16", "--unroll", "2"]) == 0


def test_bad_machine():
    with pytest.raises(SystemExit):
        main(["bench", "--machine", "sparc"])


def test_bad_size_rank():
    with pytest.raises(SystemExit):
        main(["verify", "--stencil", "star3d7p", "--size", "16x16"])
