import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsff_lab import cli
from dsff_lab.cli import main
from dsff_lab.ensembles import EnsembleSpec
from dsff_lab.estimator import build_tau_grid, dsff_grid
from dsff_lab.spectra import SpectrumSet, sample_spectra, save_spectra


def _run_pipeline(tmp_path, n=16, m=12, seed=5, points=10):
    cache = str(tmp_path / "spectra.bin")
    est_csv = str(tmp_path / "estimate.csv")
    thy_csv = str(tmp_path / "theory.csv")
    assert main([
        "sample", "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", cache,
    ]) == 0
    assert main([
        "estimate", "--spectra", cache, "--tau-min", "0.3", "--tau-max", "10",
        "--points", str(points), "--out", est_csv,
    ]) == 0
    assert main([
        "theory", "--n", str(n), "--tau-min", "0.3", "--tau-max", "10",
        "--points", str(points), "--out", thy_csv,
    ]) == 0
    return cache, est_csv, thy_csv


def _read_rows(path):
    header, rows = None, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_pipeline_end_to_end(tmp_path, capsys):
    cache, est_csv, thy_csv = _run_pipeline(tmp_path)
    merged = str(tmp_path / "merged.csv")
    svg = str(tmp_path / "merged.svg")
    assert main([
        "compare", "--estimate", est_csv, "--theory", thy_csv,
        "--out", merged, "--svg", svg,
    ]) == 0
    summary = capsys.readouterr().err
    assert "within_3sigma" in summary

    header, rows = _read_rows(merged)
    assert header == ["theta", "abs_tau", "t", "s", "k_mean", "k_stderr", "k_total", "z"]
    assert len(rows) == 10
    assert all(math.isfinite(float(r["z"])) for r in rows)
    assert "<svg" in Path(svg).read_text()


def test_csv_schema_and_config(tmp_path):
    _, est_csv, thy_csv = _run_pipeline(tmp_path)
    lines = Path(est_csv).read_text().splitlines()
    assert lines[0] == "# dsff-lab v1"
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: "):])
    assert config["command"] == "estimate"
    assert "backend" not in config
    assert config["spec"]["n"] == 16
    assert lines[2].split(",") == [
        "theta", "abs_tau", "t", "s", "k_mean", "k_stderr", "disconnected_unbiased", "connected", "contact",
        "M", "N",
    ]
    # floats round-trip through repr
    first = lines[3].split(",")
    assert float(first[1]) == 0.3
    assert first[-2:] == ["12", "16"]

    tlines = Path(thy_csv).read_text().splitlines()
    tconfig = json.loads(tlines[1][len("# config: "):])
    assert tconfig["command"] == "theory"
    assert tlines[2].split(",") == [
        "theta", "abs_tau", "t", "s", "k_total", "disconnected", "connected",
        "e_leading", "e_laplacian", "e_kappa4", "e_real_axis",
        "v_gradient", "v_real_ramp", "v_series", "v_kappa4",
        "validity_warning", "N",
    ]


def test_estimate_is_byte_deterministic(tmp_path):
    cache, est_csv, _ = _run_pipeline(tmp_path)
    again = str(tmp_path / "again.csv")
    assert main([
        "estimate", "--spectra", cache, "--tau-min", "0.3", "--tau-max", "10",
        "--points", "10", "--out", again,
    ]) == 0
    assert Path(est_csv).read_bytes() == Path(again).read_bytes()


def test_sample_echoes_seed(tmp_path, capsys):
    cache = str(tmp_path / "s.bin")
    assert main(["sample", "--n", "8", "--m", "2", "--seed", "99", "--out", cache]) == 0
    assert "seed=99" in capsys.readouterr().out


def test_sample_summary_goes_to_stderr(tmp_path, capsys):
    cache = tmp_path / "s.bin"
    assert main(["sample", "--n", "8", "--m", "3", "--seed", "99", "--out", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {cache}: M=3 N=8 complex/gaussian seed=99\n"
    summary = captured.err.split()
    assert summary[:2] == ["sampled", "M=3"]
    assert summary[-1] == "processes=1"
    assert any(field.startswith("samples_per_s=") for field in summary)
    reference = tmp_path / "reference.bin"
    save_spectra(sample_spectra(EnsembleSpec("complex", "gaussian", 8), 3, 99), str(reference))
    assert cache.read_bytes() == reference.read_bytes()

    # estimate: the CSV alone on stdout, the throughput line last on stderr
    assert main(["estimate", "--spectra", str(cache), "--points", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# dsff-lab v1\n")
    assert "estimated" not in captured.out
    summary = captured.err.splitlines()[-1].split()
    assert summary[:2] == ["estimated", "points=4"]
    assert summary[2].startswith("seconds=")
    assert summary[3].startswith("points_per_s=")
    assert summary[4:] == ["route=pointwise"]
    est_csv = tmp_path / "e.csv"
    assert main(["estimate", "--spectra", str(cache), "--points", "4", "--out", str(est_csv)]) == 0
    assert capsys.readouterr().out == ""
    assert est_csv.read_text() == captured.out

    # a grid the moment route takes names its Chebyshev order
    rng = np.random.default_rng(3)
    eigs = np.sqrt(rng.uniform(0.0, 1.0, (400, 64))) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (400, 64)))
    sset = SpectrumSet(spec=EnsembleSpec("complex", "gaussian", 64), master_seed=3, eigenvalues=eigs)
    save_spectra(sset, str(cache))
    assert main(["estimate", "--spectra", str(cache), "--points", "40", "--out", str(est_csv)]) == 0
    summary = capsys.readouterr().err.splitlines()[-1].split()
    taus = build_tau_grid(0.0, 0.1, 16.0, 40)  # the default grid at N=64
    assert summary[4:] == ["route=ray", f"order={dsff_grid(sset, taus)[0].ray_order}"]


def test_pool_workers_match_single_thread_serial_bytes(tmp_path):
    # At complex N=256 LAPACK's bytes depend on the BLAS thread count, so this
    # checks that pool workers run one BLAS thread whatever the parent's setting.
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas_vars}
    pinned = dict(unset, **dict.fromkeys(blas_vars, "1"))
    caches = {}
    for workers, env in ((2, unset), (1, pinned)):
        caches[workers] = tmp_path / f"w{workers}.bin"
        subprocess.run(
            [sys.executable, "-m", "dsff_lab.cli", "sample", "--n", "256", "--m", "4",
             "--seed", "11", "--workers", str(workers), "--out", str(caches[workers])],
            env=env, check=True, capture_output=True, timeout=300,
        )
    assert caches[2].read_bytes() == caches[1].read_bytes()


def test_cli_import_loads_numpy_only():
    # scipy and mpmath are test oracles only, and the process pool's modules
    # load when `sample --workers K` with K > 1 first needs them
    probe = ("import sys, dsff_lab.cli; print(' '.join(m for m in ('scipy', 'mpmath', "
             "'concurrent.futures', 'multiprocessing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split() == []


def test_sample_draws_entropy_seed(tmp_path, capsys):
    cache = str(tmp_path / "s.bin")
    assert main(["sample", "--n", "8", "--m", "2", "--out", cache]) == 0
    out = capsys.readouterr().out
    assert "seed=" in out
    assert int(out.split("seed=")[1]) < 2**64


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DSFF_LAB_CACHE_DIR", str(tmp_path))
    assert main(["sample", "--n", "8", "--m", "2", "--seed", "1", "--out", "rel.bin"]) == 0
    assert (tmp_path / "rel.bin").exists()
    assert main(["estimate", "--spectra", "rel.bin", "--points", "3", "--out",
                 str(tmp_path / "e.csv")]) == 0


def test_exact_gaussian_rejects_beta_one(capsys):
    assert main(["theory", "--n", "8", "--exact-gaussian", "--beta", "1"]) == 2
    assert "beta 2" in capsys.readouterr().err


def test_exact_gaussian_rejects_nonzero_kappa4(capsys, tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["theory", "--n", "8", "--exact-gaussian", "--kappa4", "-1", "--out", str(out)]) == 2
    assert "kappa4" in capsys.readouterr().err
    assert not out.exists()


def test_exact_gaussian_columns(tmp_path):
    out = str(tmp_path / "exact.csv")
    assert main([
        "theory", "--n", "64", "--exact-gaussian", "--tau-min", "0.5",
        "--tau-max", "5", "--points", "4", "--out", out,
    ]) == 0
    header, rows = _read_rows(out)
    assert header == [
        "theta", "abs_tau", "t", "s", "k_total", "disconnected", "connected", "e_leading", "v_ramp",
        "validity_warning", "N",
    ]
    # disconnected + connected recombine; connected is Var(L)/N^2
    for r in rows:
        total = float(r["disconnected"]) + float(r["connected"])
        assert float(r["k_total"]) == pytest.approx(total, rel=1e-12, abs=0.0)
        assert float(r["disconnected"]) == float(r["e_leading"]) ** 2
        assert float(r["connected"]) == float(r["v_ramp"]) / 64**2
        assert float(r["connected"]) > 0.0


def test_compare_subtract_disconnected_on_the_exact_route(tmp_path):
    _, est_csv, _ = _run_pipeline(tmp_path)
    exact, svg, merged = tmp_path / "exact.csv", tmp_path / "exact.svg", tmp_path / "m.csv"
    assert main(["theory", "--n", "16", "--exact-gaussian", "--tau-min", "0.3", "--tau-max", "10",
                 "--points", "10", "--out", str(exact)]) == 0
    assert main(["compare", "--estimate", est_csv, "--theory", str(exact), "--svg", str(svg),
                 "--subtract-disconnected", "--out", str(merged)]) == 0
    assert "connected" in svg.read_text()
    _, theory_rows = _read_rows(exact)
    _, merged_rows = _read_rows(merged)
    assert [r["k_total"] for r in merged_rows] == [r["k_total"] for r in theory_rows]
    # the plotted prediction, k_total - disconnected, is the positive connected part
    for r in theory_rows:
        plotted = float(r["k_total"]) - float(r["disconnected"])
        assert plotted > 0.0 and plotted == pytest.approx(float(r["connected"]), rel=1e-12, abs=0.0)


def test_grid_mismatch_exits_3(tmp_path, capsys):
    _, est_csv, _ = _run_pipeline(tmp_path)
    other = str(tmp_path / "other.csv")
    assert main([
        "theory", "--n", "16", "--tau-min", "0.4", "--tau-max", "10",
        "--points", "10", "--out", other,
    ]) == 0
    assert main(["compare", "--estimate", est_csv, "--theory", other]) == 3
    assert "grid mismatch at row 0" in capsys.readouterr().err


def test_row_count_mismatch_exits_3(tmp_path, capsys):
    _, est_csv, _ = _run_pipeline(tmp_path)
    other = str(tmp_path / "other.csv")
    assert main([
        "theory", "--n", "16", "--tau-min", "0.3", "--tau-max", "10",
        "--points", "7", "--out", other,
    ]) == 0
    assert main(["compare", "--estimate", est_csv, "--theory", other]) == 3
    assert "rows" in capsys.readouterr().err


def test_compare_subtract_disconnected(tmp_path):
    _, est_csv, thy_csv = _run_pipeline(tmp_path)
    svg = str(tmp_path / "conn.svg")
    assert main([
        "compare", "--estimate", est_csv, "--theory", thy_csv,
        "--svg", svg, "--subtract-disconnected", "--out", str(tmp_path / "m.csv"),
    ]) == 0
    assert "connected" in Path(svg).read_text()


def test_compare_prints_its_tally_by_regime(tmp_path, capsys):
    # N=16: the regimes split at N^(2/5) = 3.031 and sqrt(N) = 4, and the
    # validity warning starts at N^(2/7) = 2.208
    _, est_csv, thy_csv = _run_pipeline(tmp_path)
    merged = tmp_path / "m.csv"
    capsys.readouterr()
    assert main(["compare", "--estimate", est_csv, "--theory", thy_csv, "--out", str(merged)]) == 0
    lines = capsys.readouterr().err.splitlines()
    _, rows = _read_rows(merged)
    z = [(float(r["abs_tau"]), abs(float(r["z"])) <= 3.0) for r in rows]
    tally = [(sum(hit for x, hit in z if lo <= x < hi), sum(1 for x, _ in z if lo <= x < hi))
             for lo, hi in ((0.0, 16**0.4), (16**0.4, 4.0), (4.0, math.inf))]
    _, theory_rows = _read_rows(thy_csv)
    warned = sum(r["validity_warning"] == "1" for r in theory_rows)
    assert 0 < warned < len(theory_rows) and all(total > 0 for _, total in tally)
    (a, b), (c, d), (e, f) = tally
    assert lines[-1] == (f"within_3sigma by regime: |tau|<3.031 {a}/{b}, 3.031<=|tau|<4 {c}/{d}, "
                         f"|tau|>=4 {e}/{f}; validity_warning rows={warned}")
    assert lines[-2].startswith(f"rows=10 within_3sigma={a + c + e}/10 ")


def test_verify_subcommand(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--suite", "bessel", "--out", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["all_passed"] is True
    assert set(report["suites"]) == {"bessel"}
    assert all(c["passed"] for c in report["suites"]["bessel"])
    assert "all passed" in capsys.readouterr().err


def test_verify_prints_suite_seconds_outside_the_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "bessel", "--suite", "estimator", "--out", str(report_path)]
    assert main(argv) == 0
    timing = [line for line in capsys.readouterr().err.splitlines() if "seconds" in line]
    assert len(timing) == 1
    assert re.fullmatch(r"suite seconds: bessel \d+\.\d{3}, estimator \d+\.\d{3}", timing[0])
    report = json.loads(report_path.read_text())
    assert set(report) == {"suites", "all_passed"}
    assert set(report["suites"]) == {"bessel", "estimator"}
    for checks in report["suites"].values():
        for check in checks:
            assert set(check) == {"name", "value", "tolerance", "passed", "detail"}
    assert "seconds" not in report_path.read_text()


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_does_not_carry_suites_into_the_next_call(tmp_path):
    first, second = tmp_path / "bessel.json", tmp_path / "all.json"
    assert main(["verify", "--suite", "bessel", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    assert set(json.loads(first.read_text())["suites"]) == {"bessel"}
    assert set(json.loads(second.read_text())["suites"]) == {"bessel", "quadrature", "theory", "estimator"}


def test_reused_parser_gives_the_same_theory_bytes(tmp_path):
    argv = ["theory", "--n", "64", "--beta", "1", "--theta", "0.4", "--points", "12"]
    first, other, third = (tmp_path / name for name in ("first.csv", "other.csv", "third.csv"))
    assert main([*argv, "--out", str(first)]) == 0
    assert main(["theory", "--n", "32", "--exact-gaussian", "--spacing", "linear", "--out", str(other)]) == 0
    assert main([*argv, "--out", str(third)]) == 0
    assert first.read_bytes() == third.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_csv_row_formatting():
    # rows hold Python ints and floats, each written as its repr
    row = (1, 0, 3, 0.1, -0.0, math.nan, math.inf)
    text = cli._csv_text({"command": "x"}, ["c"] * len(row), [row])
    assert text.splitlines()[3] == "1,0,3,0.1,-0.0,nan,inf"


def test_theory_tau_grid_default_reaches_past_plateau(tmp_path):
    out = str(tmp_path / "default.csv")
    assert main(["theory", "--n", "100", "--points", "5", "--out", out]) == 0
    _, rows = _read_rows(out)
    assert float(rows[-1]["abs_tau"]) == pytest.approx(20.0, rel=1e-12, abs=0.0)  # 2 sqrt(N)
    # the grid crosses N^(2/7), and the flag reads as an int
    assert {row["validity_warning"] for row in rows} == {"0", "1"}


@pytest.mark.parametrize("beta", ["1", "2", "exact"])
def test_one_point_theory_has_the_bits_of_the_pointwise_route(tmp_path, beta):
    from dsff_lab.theory import dsff_theory, ginibre_exact_dsff

    out = str(tmp_path / "one.csv")
    flags = ["--exact-gaussian"] if beta == "exact" else ["--beta", beta, "--kappa4", "-1.5"]
    assert main(["theory", "--n", "64", *flags, "--theta", "0.3", "--tau-min", "2.5",
                 "--tau-max", "2.5", "--points", "1", "--out", out]) == 0
    header, (row,) = _read_rows(out)
    (tau,) = build_tau_grid(0.3, 2.5, 2.5, 1)
    if beta == "exact":
        p = ginibre_exact_dsff(tau, 64)
    else:
        p = dsff_theory(tau, 64, kappa4=-1.5, beta=int(beta))
    want = [p.k_total, p.disconnected, p.connected, *p.e_terms.values(), *p.v_terms.values()]
    assert header[4:-2] == ["k_total", "disconnected", "connected", *(f"e_{k}" for k in p.e_terms),
                            *(f"v_{k}" for k in p.v_terms)]
    assert [row[c] for c in header[4:-2]] == [repr(float(v)) for v in want]


def _with_columns(src, dst, values):
    """Copy an estimate CSV, setting the named columns of every row to values."""
    lines = Path(src).read_text().splitlines()
    header = lines[2].split(",")
    for i in range(3, len(lines)):
        fields = lines[i].split(",")
        for name, value in values.items():
            fields[header.index(name)] = value
        lines[i] = ",".join(fields)
    Path(dst).write_text("\n".join(lines) + "\n")
    return str(dst)


def test_compare_rejects_nan_grid_coordinates(tmp_path, capsys):
    _, est_csv, thy_csv = _run_pipeline(tmp_path, points=3)
    out = tmp_path / "merged.csv"
    nan_grid = _with_columns(est_csv, tmp_path / "nan-grid.csv", {"t": "nan", "s": "nan"})
    assert _exit_code(["compare", "--estimate", nan_grid, "--theory", thy_csv, "--out", str(out)]) == 3
    assert "grid mismatch at row 0" in capsys.readouterr().err
    assert not out.exists()
    # an M=1 estimate writes a NaN k_stderr, which compare still accepts
    nan_stderr = _with_columns(est_csv, tmp_path / "nan-stderr.csv", {"k_stderr": "nan"})
    assert main(["compare", "--estimate", nan_stderr, "--theory", thy_csv, "--out", str(out)]) == 0
    _, rows = _read_rows(out)
    assert len(rows) == 3 and all(r["z"] == "nan" for r in rows)


def test_theory_beyond_bessel_range_writes_nothing(tmp_path, capsys):
    out = tmp_path / "beyond.csv"
    argv = ["theory", "--n", "256", "--tau-min", "25000", "--tau-max", "25000", "--points", "1"]
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert "max_order" in capsys.readouterr().err
    assert not out.exists()
    # a grid whose last point is out of range fails the same way
    assert _exit_code(["theory", "--n", "256", "--tau-min", "1", "--tau-max", "25000",
                       "--points", "40", "--out", str(out)]) == 2
    assert "max_order" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv):
    """main's exit status, including argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _fail_eigensolver(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", boom)


def _breach_trace_identity(monkeypatch):
    real_eigvals = np.linalg.eigvals

    def shifted(entries):
        eigs = real_eigvals(entries)
        eigs[0] += 1e-6
        return eigs

    monkeypatch.setattr(np.linalg, "eigvals", shifted)


def _fail_verification(monkeypatch):
    report = {"all_passed": False, "suites": {"bessel": [{"name": "probe", "passed": False}]}}
    monkeypatch.setattr(cli, "run_suites", lambda names, seconds: report)


@pytest.fixture(scope="module")
def exit_files(tmp_path_factory):
    """A valid pipeline's files plus malformed variants of its estimate CSV."""
    tmp = tmp_path_factory.mktemp("exit-codes")
    cache, est_csv, thy_csv = _run_pipeline(tmp)
    lines = Path(est_csv).read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = "abc"
    malformed = {
        "ragged": lines + ["1.0,2.0"],
        "non_numeric": lines[:3] + [",".join(fields)] + lines[4:],
        "no_header": lines[:2],
        "bad_config": [lines[0], "# config: {not json"] + lines[2:],
    }
    files = {"cache": cache, "est": est_csv, "thy": thy_csv, "dir": str(tmp)}
    for name, body in malformed.items():
        files[name] = str(tmp / f"{name}.csv")
        Path(files[name]).write_text("\n".join(body) + "\n")
    files["binary"] = str(tmp / "binary.csv")
    Path(files["binary"]).write_bytes(b"\xff\xfe\x00 not text\n")
    files["bad_cache"] = str(tmp / "bad.bin")
    Path(files["bad_cache"]).write_bytes(b"garbage")
    # the last eigenvalue of a valid cache replaced by NaN
    files["nan_cache"] = str(tmp / "nan.bin")
    blob = Path(cache).read_bytes()
    Path(files["nan_cache"]).write_bytes(blob[:-16] + np.array([np.nan], dtype="<c16").tobytes())
    # headers whose m is not a positive int, each over a payload of the length
    # that m would give (the pipeline's cache has M=12, N=16)
    header, payload = blob.split(b"\n", 1)
    for name, m, rows in (("m_zero", "0", 0), ("m_float", "2.0", 2), ("m_bool", "true", 1)):
        files[name] = str(tmp / f"{name}.bin")
        head = header.replace(b'"m":12', f'"m":{m}'.encode())
        Path(files[name]).write_bytes(head + b"\n" + payload[: rows * 16 * 16])
    # a spec whose n is a bool, which json reads as True
    files["n_bool"] = str(tmp / "n_bool.bin")
    head = header.replace(b'"n":16', b'"n":true')
    assert head != header
    Path(files["n_bool"]).write_bytes(head + b"\n" + payload)
    # headers whose master_seed is not an integer in [0, 2^64)
    for name, seed in (("seed_str", '"abc"'), ("seed_negative", "-5"), ("seed_float", "1.5"),
                       ("seed_null", "null"), ("seed_bool", "true")):
        files[name] = str(tmp / f"{name}.bin")
        head = header.replace(b'"master_seed":5', f'"master_seed":{seed}'.encode())
        assert head != header
        Path(files[name]).write_bytes(head + b"\n" + payload)
    # headers that parse into a valid set but are not that set's canonical header
    for name, old, new in (("kappa4_renamed", b'"kappa4":', b'"kappa_4":'),
                           ("extra_key", b'{"format_version"', b'{"comment":"x","format_version"'),
                           ("reordered_keys", b'"format_version":1,"m":12', b'"m":12,"format_version":1')):
        files[name] = str(tmp / f"{name}.bin")
        head = header.replace(old, new)
        assert head != header
        Path(files[name]).write_bytes(head + b"\n" + payload)
    return files


# Every exit code the CLI documents: 0 success, 1 eigensolver failure (a
# trace-identity breach included) or failed verification, 2 bad arguments,
# 3 cache or file trouble.
EXIT_CASES = [
    ("compare-ok", "compare --estimate {est} --theory {thy} --out {dir}/m.csv", 0, None, "within_3sigma"),
    ("version", "--version", 0, None, ""),
    ("eigensolver-failure", "sample --n 4 --m 1 --seed 1 --out {dir}/f.bin", 1, _fail_eigensolver, "error:"),
    ("trace-breach", "sample --n 16 --m 2 --seed 1 --out {dir}/t.bin", 1, _breach_trace_identity,
     "sample 0: trace residuals"),
    ("verify-failure", "verify --out {dir}/r.json", 1, _fail_verification, "1 failed"),
    ("no-subcommand", "", 2, None, "usage"),
    ("non-positive-n", "sample --n 0 --m 1 --out {dir}/x.bin", 2, None, "error:"),
    ("kappa4-nan", "theory --n 8 --kappa4 nan", 2, None, "finite"),
    ("kappa4-inf", "theory --n 8 --kappa4 inf", 2, None, "finite"),
    ("theta-nan", "theory --n 8 --theta nan", 2, None, "finite"),
    ("tau-min-inf", "estimate --spectra {cache} --tau-min inf", 2, None, "finite"),
    ("tau-max-nan", "theory --n 8 --tau-max nan", 2, None, "finite"),
    ("tau-min-above-max", "theory --n 8 --tau-min 5 --tau-max 1", 2, None, "error:"),
    ("tau-beyond-phase-precision", "estimate --spectra {cache} --tau-min 1e299 --tau-max 1e300", 2, None,
     "phase limit 1e+08"),
    ("tau-beyond-bessel-range", "theory --n 256 --tau-min 25000 --tau-max 25000 --points 1", 2, None,
     "max_order"),
    ("missing-cache", "estimate --spectra {dir}/nope.bin", 3, None, "error:"),
    ("corrupt-cache", "estimate --spectra {bad_cache}", 3, None, "error:"),
    ("nan-cache", "estimate --spectra {nan_cache}", 3, None, "non-finite"),
    ("zero-m-cache", "estimate --spectra {m_zero}", 3, None, "positive integer"),
    ("float-m-cache", "estimate --spectra {m_float}", 3, None, "positive integer"),
    ("bool-m-cache", "estimate --spectra {m_bool}", 3, None, "positive integer"),
    ("bool-n-cache", "estimate --spectra {n_bool}", 3, None, "positive integer"),
    ("string-seed-cache", "estimate --spectra {seed_str}", 3, None, "master_seed"),
    ("negative-seed-cache", "estimate --spectra {seed_negative}", 3, None, "master_seed"),
    ("float-seed-cache", "estimate --spectra {seed_float}", 3, None, "master_seed"),
    ("null-seed-cache", "estimate --spectra {seed_null}", 3, None, "master_seed"),
    ("bool-seed-cache", "estimate --spectra {seed_bool}", 3, None, "master_seed"),
    ("renamed-kappa4-cache", "estimate --spectra {kappa4_renamed}", 3, None, "canonical"),
    ("extra-key-cache", "estimate --spectra {extra_key}", 3, None, "canonical"),
    ("reordered-keys-cache", "estimate --spectra {reordered_keys}", 3, None, "canonical"),
    ("ragged-row", "compare --estimate {ragged} --theory {thy}", 3, None, "fields"),
    ("non-numeric-field", "compare --estimate {non_numeric} --theory {thy}", 3, None, "abc"),
    ("no-header", "compare --estimate {no_header} --theory {thy}", 3, None, "no header"),
    ("bad-config-line", "compare --estimate {bad_config} --theory {thy}", 3, None, "error:"),
    ("binary-csv", "compare --estimate {binary} --theory {thy}", 3, None, "error:"),
    ("missing-column", "compare --estimate {est} --theory {est}", 3, None, "k_total"),
    ("missing-csv", "compare --estimate {dir}/nope.csv --theory {thy}", 3, None, "error:"),
]


@pytest.mark.parametrize(
    "argv, code, fault, message",
    [case[1:] for case in EXIT_CASES],
    ids=[case[0] for case in EXIT_CASES],
)
def test_exit_codes(exit_files, monkeypatch, capsys, argv, code, fault, message):
    if fault is not None:
        fault(monkeypatch)
    assert _exit_code(argv.format(**exit_files).split()) == code
    captured = capsys.readouterr()
    assert message in captured.err + captured.out


def _mutations(rng, blob, tokens):
    """Copies of blob with one seeded fault each: a flipped bit, a byte set,
    cut or doubled, or one of its tokens replaced by another."""
    for _ in range(600):
        at = int(rng.integers(len(blob)))
        kind = int(rng.integers(5))
        if kind == 0:
            yield blob[:at] + bytes([blob[at] ^ (1 << int(rng.integers(8)))]) + blob[at + 1:]
        elif kind == 1:
            yield blob[:at] + bytes([int(rng.integers(256))]) + blob[at + 1:]
        elif kind == 2:
            yield blob[:at] + blob[at + 1:]
        elif kind == 3:
            yield blob[:at] + blob[at:at + 1] * 2 + blob[at + 1:]
        else:
            old, new = (tokens[int(i)] for i in rng.choice(len(tokens), 2, replace=False))
            yield blob.replace(old, new, 1)


def test_mutated_caches_and_csvs_exit_cleanly(exit_files, tmp_path, capsys):
    """Seeded faults in a cache (through estimate) and in an estimate CSV
    (through compare --svg) end in exit code 0, 2 or 3, never an exception."""
    rng = np.random.default_rng(2029)
    cache = Path(exit_files["cache"]).read_bytes()
    cache_tokens = [b'"m":12', b'"m":1', b'"n":16', b'"n":8', b'"master_seed":5', b'"kappa4":0.0',
                    b'"kappa4":-1.0', b'"complex"', b'"real"', b'"format_version":1', b'"format_version":2',
                    b"{", b""]
    csv = Path(exit_files["est"]).read_bytes()
    csv_tokens = [b"nan", b"inf", b"-inf", b"0.0", b"-1e308", b"1e999", b"x", b",", b"", b"\n", b"k_mean",
                  b"# config: "]
    runs = [("estimate", blob) for blob in _mutations(rng, cache, cache_tokens)]
    runs += [("compare", blob) for blob in _mutations(rng, csv, csv_tokens)]
    for i, (command, blob) in enumerate(runs):
        path = tmp_path / f"case{i}"
        path.write_bytes(blob)
        if command == "estimate":
            argv = ["estimate", "--spectra", str(path), "--points", "6", "--out", str(tmp_path / "e.csv")]
        else:
            argv = ["compare", "--estimate", str(path), "--theory", exit_files["thy"],
                    "--out", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")]
        assert _exit_code(argv) in (0, 2, 3), (i, command, blob[:200])
    capsys.readouterr()
