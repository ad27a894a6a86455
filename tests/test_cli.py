"""Command-line interface: subcommands, exit codes, manifests, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import diffcomb
from diffcomb.cli import main

RS_JSON = '{"model": "rudin_shapiro"}'
COIN_JSON = '{"model": "bernoulli", "p": 0.25, "seed": 7}'
FLOAT_JSON = '{"model": "periodic", "pattern": [1, 0.5, 2]}'  # not +-1


def read_manifest(out_path):
    return json.loads(out_path.with_name(out_path.stem + ".manifest.json").read_text())


class TestGenerate:
    def test_constant_window(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["generate", "--model", "constant", "--first", "-2", "--last", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text() == "n,w\n-2,1\n-1,1\n0,1\n1,1\n2,1\n"

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["generate", "--model", COIN_JSON, "--first", "0", "--last", "9", "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["schema_version"] == 1
        assert manifest["command"] == "generate"
        assert manifest["config"]["first"] == 0
        assert manifest["config"]["last"] == 9
        assert manifest["seeds"] == [7]
        assert manifest["outputs"] == [str(out)]
        assert "package_version" in manifest and "numpy_version" in manifest
        assert manifest["timing_seconds"] >= 0

    def test_model_from_file(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(COIN_JSON)
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", str(model_path), "--out", str(out)]) == 0
        inline_out = tmp_path / "w2.csv"
        main(["generate", "--model", COIN_JSON, "--out", str(inline_out)])
        assert out.read_text() == inline_out.read_text()

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["generate", "--model", COIN_JSON, "--first", "-500", "--last", "500", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "w.json"
        main(["generate", "--model", "alternating", "--first", "0", "--last", "1",
              "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text())
        assert data == {"columns": ["n", "w"], "rows": [[0, 1], [1, -1]]}

    def test_empty_window_exits_2_without_file(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["generate", "--model", "constant", "--first", "3", "--last", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert not out.with_name("w.manifest.json").exists()

    def test_malformed_model_json(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["generate", "--model", '{"model": "constant", ', "--out", str(out)])
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_deeply_nested_model_json_exits_2(self, tmp_path, capsys, source):
        """5000 nested bernoullised objects overflow the recursion limit while decoding."""
        model = '{"model": "bernoullised", "base": ' * 5000 + RS_JSON + "}" * 5000
        if source == "file":
            (tmp_path / "deep.json").write_text(model)
            model = str(tmp_path / "deep.json")
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", model, "--out", str(out)]) == 2
        assert "model JSON is nested too deeply" in capsys.readouterr().err
        assert not out.exists() and not out.with_name("w.manifest.json").exists()

    def test_unknown_model_name(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", "penrose", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        '{"model": "periodic", "pattern": 5}',
        '{"model": "periodic", "pattern": [[1]]}',
        '{"model": "periodic", "pattern": "11"}',
        '{"model": "periodic", "pattern": [1, true]}',
        '{"model": "constant", "w": [1]}',
        '{"model": "constant", "w": true}',
        '{"model": "constant", "w": 1%s}' % ("0" * 400),
        '{"model": "bernoulli", "p": [0.5]}',
        '{"model": "bernoulli", "p": "0.5"}',
    ])
    def test_model_field_of_wrong_type_exits_2(self, tmp_path, model):
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", model, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model,field", [
        ('{"model": "rudin_shapiro", "p": 0.3, "seed": 7}', "p"),
        ('{"model": "alternating", "pattern": [1, 2]}', "pattern"),
        ('{"model": "constant", "w": 2, "seed": 1}', "seed"),
    ])
    def test_field_the_model_does_not_take_exits_2(self, tmp_path, capsys, model, field):
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", model, "--out", str(out)]) == 2
        assert f"model does not take '{field}'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("model", [
        '{"model": "periodic", "pattern": [1, NaN]}',
        '{"model": "periodic", "pattern": [1, -Infinity]}',
        '{"model": "constant", "w": Infinity}',
    ])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, model):
        """Python's json accepts NaN and +-Infinity; the model check refuses them."""
        out = tmp_path / "w.csv"
        assert main(["generate", "--model", model, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first,last", [(2**62 - 2, 2**62), (-(2**62), -(2**62) + 3)])
    def test_index_outside_lattice_domain_exits_2(self, tmp_path, first, last):
        out = tmp_path / "w.csv"
        code = main(["generate", "--model", "alternating",
                     "--first", str(first), "--last", str(last), "--out", str(out)])
        assert code == 2 and not out.exists()

    def test_failed_manifest_write_removes_data_file(self, tmp_path):
        out = tmp_path / "w.csv"
        (tmp_path / "w.manifest.json").mkdir()
        assert main(["generate", "--model", "constant", "--out", str(out)]) == 2
        assert not out.exists()

    def test_window_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "101")
        out = tmp_path / "w.csv"
        code = main(["generate", "--model", "rudin_shapiro", "--first", "-100", "--last", "100", "--out", str(out)])
        assert code == 2 and not out.exists()


# A weight whose square overflows a product cell: 2**256 * 2**256 * 2**256 * 2**256.
HUGE_JSON = '{"model": "constant", "w": %r}' % 2.0**256
# A weight whose square underflows to 0.
TINY_JSON = '{"model": "constant", "w": 1e-200}'


class TestFiniteAnswers:
    """An input whose answer would not be finite, or not right, exits 2 and writes nothing."""

    @pytest.mark.parametrize("argv,message", [
        (["autocorr", "--model", '{"model": "constant", "w": 1e200}', "--N", "10", "--M", "2"],
         "w must be 0 or of magnitude in [2**-128, 2**128], got 1e+200"),
        (["spectrum", "--model", TINY_JSON], "w must be 0 or of magnitude"),
        (["bragg", "--model", TINY_JSON, "--k0", "0", "--N-list", "64,256"],
         "w must be 0 or of magnitude"),
        (["product", "--a", HUGE_JSON, "--b", HUGE_JSON, "--mode", "diffraction"],
         "w must be 0 or of magnitude"),
        (["product", "--a", HUGE_JSON, "--b", HUGE_JSON, "--M", "1"], "w must be 0 or of magnitude"),
        (["diffract", "--model", '{"model": "periodic", "pattern": [1, 1e300]}', "--N", "8",
          "--G", "8"], "pattern entries must be 0 or of magnitude"),
        (["homometry", "--a", "rudin_shapiro", "--b", "alternating", "--analytic-a",
          "--analytic-b", "--M", "2", "--tol", "inf"], "tolerance must be finite and nonnegative"),
        (["homometry", "--mode", "spectral", "--a", "rudin_shapiro", "--b", "alternating",
          "--N", "8", "--G", "8", "--bins", "2", "--tol", "nan"],
         "tolerance must be finite and nonnegative"),
    ], ids=["autocorr-huge-w", "spectrum-tiny-w", "bragg-tiny-w", "product-diffraction-huge-w",
            "product-autocorr-huge-w", "diffract-huge-entry", "homometry-tol-inf",
            "homometry-spectral-tol-nan"])
    def test_exits_2(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_tolerance_is_checked_before_the_correlations(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("correlation computed before --tol was checked")

        monkeypatch.setattr("diffcomb.cli.empirical_autocorrelation", refuse)
        argv = ["homometry", "--a", RS_JSON, "--b", "rudin_shapiro", "--analytic-b",
                "--tol", "inf", "--out", str(tmp_path / "hom.json")]
        assert main(argv) == 2
        assert "tolerance must be finite and nonnegative, got inf" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_constant_square_is_correctly_rounded(self, tmp_path):
        """w * w, not pow: 9.25737882283e+60 would be the text of w**2."""
        model = '{"model": "constant", "w": 3.042594094325597e30}'
        spectrum, eta = tmp_path / "spec.json", tmp_path / "eta.csv"
        assert main(["spectrum", "--model", model, "--out", str(spectrum)]) == 0
        assert json.loads(spectrum.read_text())["bragg"] == [[0.0, 9.25737882282e60]]
        assert main(["autocorr", "--model", model, "--analytic", "--M", "1", "--out", str(eta)]) == 0
        assert eta.read_text() == "m,eta\n" + "".join(
            f"{m},9.25737882282e+60\n" for m in (-1, 0, 1)
        )


class TestAutocorr:
    def test_empirical_zero_lag_row(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = main(["autocorr", "--model", RS_JSON, "--N", "512", "--M", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,eta"
        assert len(lines) == 10
        assert "0,1" in lines

    def test_analytic_flag(self, tmp_path):
        out = tmp_path / "eta.csv"
        main(["autocorr", "--model", "alternating", "--analytic", "--M", "2", "--out", str(out)])
        assert out.read_text() == "m,eta\n-2,1\n-1,-1\n0,1\n1,-1\n2,1\n"

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "eta.csv"
        main(["autocorr", "--model", COIN_JSON, "--N", "100", "--M", "8", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            cell = line.split(",")[1]
            assert cell == format(float(cell), ".12g") or cell == str(int(float(cell)))


class TestDiffract:
    def test_periodogram_and_bins(self, tmp_path):
        out = tmp_path / "pg.csv"
        code = main(["diffract", "--model", RS_JSON, "--N", "256", "--G", "64",
                     "--bins", "16", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "k,intensity"
        bins_path = tmp_path / "pg.bins.csv"
        assert bins_path.exists()
        manifest = read_manifest(out)
        assert manifest["outputs"] == [str(out), str(bins_path)]

    def test_invalid_bins_leaves_nothing(self, tmp_path):
        out = tmp_path / "pg.csv"
        code = main(["diffract", "--model", RS_JSON, "--N", "64", "--G", "64",
                     "--bins", "7", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "pg.bins.csv").exists()

    def test_failed_bins_write_removes_periodogram(self, tmp_path):
        out = tmp_path / "pg.csv"
        (tmp_path / "pg.bins.csv").mkdir()
        code = main(["diffract", "--model", RS_JSON, "--N", "64", "--G", "64",
                     "--bins", "8", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "pg.manifest.json").exists()


class TestBragg:
    def test_constant_limit(self, tmp_path):
        out = tmp_path / "bragg.json"
        code = main(["bragg", "--model", "constant", "--k0", "0",
                     "--N-list", "64,256", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["limit"] == pytest.approx(1.0, rel=1e-12)
        assert data["growth"] == "pure-point"
        assert data["seeds"] is None

    @pytest.mark.parametrize("model", ['{"model": "periodic", "pattern": [1, -1, 0]}',
                                       '{"model": "constant", "w": 0}'], ids=["periodic", "constant"])
    def test_all_zero_weights_are_continuous(self, tmp_path, model):
        # every window's weight is exactly 0: no point mass, and no slope is fitted
        out = tmp_path / "bragg.json"
        assert main(["bragg", "--model", model, "--k0", "0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [w for _, w in data["entries"]] == [0.0, 0.0, 0.0]
        assert data["growth"] == "continuous"
        assert data["growth_slope"] is None

    def test_partly_zero_weights_are_indeterminate(self, tmp_path):
        out = tmp_path / "bragg.json"
        assert main(["bragg", "--model", '{"model": "periodic", "pattern": [1, -1, 0]}',
                     "--k0", "0", "--N-list", "1,2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["entries"][0] == [1, 0.0]
        assert data["growth"] == "indeterminate"
        assert data["growth_slope"] is None

    def test_empty_size_list_exits_2(self, tmp_path, capsys):
        argv = ["bragg", "--model", "constant", "--k0", "0", "--N-list", " , ",
                "--out", str(tmp_path / "bragg.json")]
        assert main(argv) == 2
        assert "N_list must be nonempty" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_seed_range_syntax(self, tmp_path):
        out = tmp_path / "bragg.json"
        code = main(["bragg", "--model", COIN_JSON, "--k0", "0",
                     "--N-list", "256,1024", "--seeds", "1:10", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["seeds"] == list(range(1, 11))
        manifest = read_manifest(out)
        assert manifest["seeds"] == list(range(1, 11))

    def test_fractional_wavenumber(self, tmp_path):
        out = tmp_path / "bragg.json"
        main(["bragg", "--model", "alternating", "--k0", "1/2",
              "--N-list", "64,256", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["position"] == 0.5
        assert data["limit"] == pytest.approx(1.0, rel=1e-12)

    def test_invalid_wavenumber(self, tmp_path):
        out = tmp_path / "bragg.json"
        assert main(["bragg", "--model", "alternating", "--k0", "2",
                     "--N-list", "64", "--out", str(out)]) == 2
        assert not out.exists()


class TestSpectrum:
    def test_alternating_measure(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--model", "alternating", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data == {"bragg": [[0.5, 1.0]], "ac_level": 0.0, "sc": "none-modelled"}

    def test_bernoullised_measure(self, tmp_path):
        out = tmp_path / "spec.json"
        model = '{"model": "bernoullised", "base": {"model": "alternating"}, "p": 0.25}'
        main(["spectrum", "--model", model, "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["bragg"] == [[0.5, 0.25]]
        assert data["ac_level"] == 0.75


class TestHomometry:
    def test_rs_versus_damped_copy_passes(self, tmp_path):
        out = tmp_path / "hom.json"
        damped = '{"model": "bernoullised", "base": {"model": "rudin_shapiro"}, "p": 0.25, "seed": 1}'
        code = main(["homometry", "--a", damped, "--b", "rudin_shapiro",
                     "--N", "4096", "--M", "32", "--analytic-b", "--tol", "0.05",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["mode"] == "autocorr"
        assert data["a"]["model"] == "bernoullised"

    def test_distinguishable_pair_exits_1(self, tmp_path):
        out = tmp_path / "hom.json"
        code = main(["homometry", "--a", "alternating", "--b", "rudin_shapiro",
                     "--M", "8", "--analytic-a", "--analytic-b", "--tol", "0.01",
                     "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["passed"] is False and data["distance"] == 1.0

    def test_spectral_mode(self, tmp_path):
        out = tmp_path / "hom.json"
        code = main(["homometry", "--a", RS_JSON, "--b", '{"model": "bernoulli"}',
                     "--mode", "spectral", "--N", "2048", "--G", "512", "--bins", "16",
                     "--tol", "0.03", "--seeds", "1:5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bins"] == 16 and len(data["masses_a"]) == 16

    @pytest.mark.parametrize("argv,message", [
        (["--seeds", "1:3", "--G", "7"], "--seeds applies to --mode spectral only"),
        (["--mode", "spectral", "--analytic-a"], "--analytic-a applies to --mode autocorr only"),
        (["--mode", "spectral", "--analytic-b", "--seeds", "1:3"],
         "--analytic-b applies to --mode autocorr only"),
    ], ids=["autocorr-seeds", "spectral-analytic-a", "spectral-analytic-b"])
    def test_a_flag_the_mode_does_not_read_exits_2(self, tmp_path, capsys, argv, message):
        argv = ["homometry", "--a", RS_JSON, "--b", "rudin_shapiro", "--N", "64", "--M", "4",
                "--G", "16", "--bins", "4", *argv, "--out", str(tmp_path / "hom.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["--G", "16"], "--G applies to --mode spectral only"),
        (["--bins", "4"], "--bins applies to --mode spectral only"),
        (["--mode", "spectral", "--M", "4"], "--M applies to --mode autocorr only"),
    ], ids=["autocorr-G", "autocorr-bins", "spectral-M"])
    def test_a_size_flag_the_mode_does_not_read_exits_2(self, tmp_path, capsys, argv, message):
        # refused before the tolerance is checked
        argv = ["homometry", "--a", RS_JSON, "--b", "rudin_shapiro", "--N", "64", "--tol", "nan",
                *argv, "--out", str(tmp_path / "hom.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_spectral_mode_on_deterministic_models_records_no_seeds(self, tmp_path):
        out = tmp_path / "hom.json"
        code = main(["homometry", "--a", "rudin_shapiro", "--b", "rudin_shapiro",
                     "--mode", "spectral", "--N", "64", "--G", "16", "--bins", "4",
                     "--out", str(out)])
        assert code == 0
        assert read_manifest(out)["seeds"] is None


class TestEntropy:
    def test_stochastic_model(self, tmp_path):
        out = tmp_path / "ent.json"
        code = main(["entropy", "--model", COIN_JSON, "--N", "4096", "--k", "4", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert data["exact_entropy"] == pytest.approx(expected, rel=1e-9)

    def test_deterministic_with_patches(self, tmp_path):
        out = tmp_path / "ent.json"
        code = main(["entropy", "--model", "rudin_shapiro", "--N", "2048", "--k", "4",
                     "--L-max", "8", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["exact_entropy"] == 0.0
        assert data["patch_counts"]["counts"][-1] == [8, 56]

    def test_patches_on_stochastic_model_exit_2(self, tmp_path):
        out = tmp_path / "ent.json"
        code = main(["entropy", "--model", COIN_JSON, "--N", "4096", "--k", "4",
                     "--L-max", "4", "--out", str(out)])
        assert code == 2 and not out.exists()

    def test_block_length_is_checked_before_the_patch_counts(self, tmp_path, capsys, monkeypatch):
        """--k is refused before any subword of the --L-max counts is ranked."""
        def refuse(*args):
            raise AssertionError("subwords ranked before --k was checked")

        monkeypatch.setattr("diffcomb.order._subword_ranks", refuse)
        argv = ["entropy", "--model", "rudin_shapiro", "--N", "1000000", "--L-max", "16",
                "--k", "100", "--out", str(tmp_path / "ent.json")]
        assert main(argv) == 2
        assert "window of 2000001 sites is too small for k=100" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("k", [20000, 10**12])
    def test_huge_block_length_exits_2(self, tmp_path, capsys, k):
        """Refused before 100 * 2**k is formed, with the bound in the message."""
        argv = ["entropy", "--model", "rudin_shapiro", "--N", "4096", "--k", str(k),
                "--out", str(tmp_path / "ent.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"window of 8193 sites is too small for k={k}; need 2N+1 >= 100 * 2**{k}" in err
        assert len(err) < 200
        assert not any(tmp_path.iterdir())


class TestComplexity:
    def test_alternating_counts(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["complexity", "--model", "alternating", "--N", "256", "--L-max", "4",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == "L,count\n1,2\n2,2\n3,2\n4,2\n"

    def test_stochastic_model_exits_2(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["complexity", "--model", COIN_JSON, "--N", "2048", "--L-max", "4",
                     "--out", str(out)])
        assert code == 2 and not out.exists()


class TestProduct:
    def test_analytic_autocorr_grid(self, tmp_path):
        out = tmp_path / "prod.csv"
        code = main(["product", "--a", "rudin_shapiro", "--b", "alternating",
                     "--M", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m1,m2,eta"
        assert len(lines) == 10
        assert "0,0,1" in lines

    def test_empirical_mode(self, tmp_path):
        out = tmp_path / "prod.csv"
        code = main(["product", "--a", RS_JSON, "--b", COIN_JSON, "--mode", "autocorr",
                     "--empirical", "--N", "128", "--M", "2", "--out", str(out)])
        assert code == 0

    def test_diffraction_mode(self, tmp_path):
        out = tmp_path / "prod.json"
        code = main(["product", "--a", "constant", "--b", "alternating",
                     "--mode", "diffraction", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["point_masses"] == [[[0.0, 0.5], 1.0]]
        assert data["plane_level"] == 0.0

    @pytest.mark.parametrize("flag", [["--M", "3"], ["--N", "5"], ["--empirical"],
                                      ["--format", "csv"]],
                             ids=["M", "N", "empirical", "format"])
    def test_diffraction_mode_refuses_autocorr_flags(self, tmp_path, capsys, flag):
        argv = ["product", "--a", "rudin_shapiro", "--b", "alternating", "--mode", "diffraction",
                *flag, "--out", str(tmp_path / "prod.json")]
        assert main(argv) == 2
        assert f"{flag[0]} applies to --mode autocorr only" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestVerifyRs:
    def test_passes(self, tmp_path):
        out = tmp_path / "check.json"
        code = main(["verify-rs", "--max", "64", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data == {"max_index": 64, "checked": 258, "violations": []}

    def test_invalid_range_exits_2(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["verify-rs", "--max", "0", "--out", str(out)]) == 2
        assert not out.exists()


class TestLagRangeCap:
    @pytest.mark.parametrize("argv", [
        ["autocorr", "--model", "rudin_shapiro", "--analytic", "--M", "10000000000"],
        ["product", "--a", "rudin_shapiro", "--b", "alternating", "--M", "5"],
        ["verify-rs", "--max", "50"],
        ["bragg", "--model", "rudin_shapiro", "--k0", "0", "--N-list", f"4,{2**61}"],
    ])
    def test_exits_2_with_cap_message(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert "exceeds the cap of 100" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_product_grid_at_the_cap_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "81")
        out = tmp_path / "prod.csv"
        assert main(["product", "--a", "rudin_shapiro", "--b", "alternating", "--M", "4",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 82


class TestEnsembleBudget:
    """Seeds x sites of an ensemble are bounded by 64 window caps (6400 sites at a cap of 100)."""

    @pytest.mark.parametrize("seeds,work", [
        ("0:999999", "1000000 seeds x 9 sites"),
        # longer than len() of a range can report: drawn only one seed past the budget
        (f"0:{2**64 - 1}", "712 seeds x 9 sites"),
    ])
    def test_seed_range_is_checked_before_it_is_expanded(
        self, tmp_path, monkeypatch, capsys, seeds, work
    ):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        argv = ["bragg", "--model", COIN_JSON, "--k0", "1/2", "--N-list", "4",
                "--seeds", seeds, "--out", str(tmp_path / "b.json")]
        assert main(argv) == 2
        assert f"{work} exceed the ensemble budget of 6400 sites" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,work", [
        (["bragg", "--model", COIN_JSON, "--k0", "1/2", "--N-list", "4,20", "--seeds", "1:200"],
         "200 seeds x 41 sites"),
        (["homometry", "--mode", "spectral", "--a", COIN_JSON, "--b", "rudin_shapiro",
          "--N", "40", "--G", "64", "--bins", "16", "--seeds", "1:80"], "80 seeds x 81 sites"),
    ])
    def test_over_budget_exits_2(self, tmp_path, monkeypatch, capsys, argv, work):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"{work} exceed the ensemble budget of 6400 sites" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_patch_count_over_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "20000")
        argv = ["complexity", "--model", "alternating", "--N", "4999", "--L-max", "65",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "65 lengths x 19997 sites exceed the work budget" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_periodic_closed_form_over_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        """min(2M + 1, q) cyclic dot products of length q are held to the work budget."""
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"model": "periodic", "pattern": [1, -1] * 50}))
        out = tmp_path / "eta.csv"
        argv = ["autocorr", "--model", str(pattern), "--analytic", "--out", str(out)]
        assert main([*argv, "--M", "49"]) == 2
        assert "99 lags x 100 sites exceed the work budget of 6400 sites" in capsys.readouterr().err
        assert not out.exists() and not out.with_name("eta.manifest.json").exists()
        assert main([*argv, "--M", "31"]) == 0  # 63 lags x 100 sites

    @pytest.mark.parametrize("argv", [
        ["autocorr", "--model", FLOAT_JSON],
        ["homometry", "--a", FLOAT_JSON, "--b", FLOAT_JSON],
        ["product", "--a", FLOAT_JSON, "--b", FLOAT_JSON, "--empirical"],
    ], ids=["autocorr", "homometry", "product"])
    def test_float_lag_sums_over_budget_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        """[-511, 511] fits a cap of 1024, but the (M + 1) x (2N + 1) multiply-adds of
        a float window exceed 64 caps: refused before any window is generated."""
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "1024")
        calls = []
        monkeypatch.setattr("diffcomb.correlation.generate_window",
                            lambda *args: calls.append(args))
        argv = [*argv, "--N", "255", "--M", "256", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert "257 lags x 511 sites exceed the work budget of 65536 sites" in capsys.readouterr().err
        assert calls == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("cap,argv,work", [
        ("1024", ["--model", "rudin_shapiro", "--N-list", ",".join(map(str, range(1, 512)))],
         "1 streams x 262143 sites"),
        ("100", ["--model", COIN_JSON, "--N-list", "4,12", "--seeds", "1:256"],
         "256 streams x 34 sites"),
    ], ids=["deterministic", "coin-ensemble"])
    def test_bragg_terms_over_budget_exit_2(self, tmp_path, monkeypatch, capsys, cap, argv, work):
        """Every window of the N-list fits the cap, and a coin ensemble its budget, but
        streams x the sum of all windows' terms exceed 64 caps."""
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", cap)
        budget = 64 * int(cap)
        assert main(["bragg", *argv, "--k0", "1/2", "--out", str(tmp_path / "b.json")]) == 2
        assert f"{work} exceed the work budget of {budget} sites" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_ensemble_at_the_budget_runs(self, tmp_path, monkeypatch):
        """256 seeds x 25 sites meet both the ensemble and the Bragg term budget exactly."""
        monkeypatch.setenv("DIFFCOMB_MAX_WINDOW", "100")
        out = tmp_path / "b.json"
        argv = ["bragg", "--model", COIN_JSON, "--k0", "1/2", "--N-list", "12",
                "--seeds", "1:256", "--out", str(out)]
        assert main(argv) == 0
        assert len(json.loads(out.read_text())["seeds"]) == 256


class TestDefaultOut:
    @pytest.mark.parametrize("argv,name", [
        (["generate", "--model", "constant"], "generate.csv"),
        (["generate", "--model", "constant", "--format", "json"], "generate.json"),
        (["product", "--a", "constant", "--b", "alternating", "--M", "1"], "product.csv"),
        (["product", "--a", "constant", "--b", "alternating", "--mode", "diffraction"],
         "product.json"),
        (["spectrum", "--model", "alternating"], "spectrum.json"),
    ])
    def test_suffix_matches_written_format(self, tmp_path, monkeypatch, argv, name):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        stem, suffix = name.split(".")
        assert sorted(path.name for path in tmp_path.iterdir()) == [name, f"{stem}.manifest.json"]
        text = (tmp_path / name).read_text()
        if suffix == "json":
            json.loads(text)
        else:
            assert not text.startswith("{")

    def test_bins_follow_the_default_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["diffract", "--model", "alternating", "--N", "8", "--G", "8",
                     "--bins", "2", "--format", "json"]) == 0
        assert read_manifest(Path("diffract.json"))["outputs"] == [
            "diffract.json", "diffract.bins.json"
        ]


class TestParsing:
    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["generate", "--model", "constant", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "diffcomb" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["bragg", "--model", "constant", "--k0", "0", "--N-list", "4,x"],
         "--N-list takes comma-separated integers '64,256', got '4,x'"),
        (["bragg", "--model", COIN_JSON, "--k0", "0", "--N-list", "64", "--seeds", "1:x"],
         "--seeds takes comma-separated integers '1,2,3' or an inclusive range '1:50', got '1:x'"),
        (["homometry", "--mode", "spectral", "--a", COIN_JSON, "--b", "rudin_shapiro",
          "--seeds", "a,b"], "--seeds takes comma-separated integers '1,2,3' or an inclusive"
                             " range '1:50', got 'a,b'"),
    ], ids=["bragg-N-list", "bragg-seed-range", "homometry-seed-list"])
    def test_a_list_of_non_integers_names_the_flag(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and "invalid literal" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["autocorr", "--model", "rudin_shapiro", "--analytic", "--N", "5", "--M", "1"],
         "--N applies only without --analytic"),
        (["product", "--a", "rudin_shapiro", "--b", "alternating", "--N", "5", "--M", "1"],
         "--N applies only with --empirical"),
        (["homometry", "--a", "rudin_shapiro", "--b", "rudin_shapiro", "--analytic-a",
          "--analytic-b", "--N", "5", "--M", "1", "--tol", "nan"],
         "--N applies only where a side reads a window, not with both --analytic-a and"),
    ], ids=["autocorr-analytic", "product-analytic", "homometry-both-analytic"])
    def test_a_window_size_where_no_window_is_read_exits_2(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["bragg", "--model", "alternating", "--k0", "0.5", "--N-list", "16,64"],
         "--seeds applies only where the model is stochastic"),
        (["homometry", "--mode", "spectral", "--a", "rudin_shapiro", "--b", "alternating",
          "--N", "64", "--G", "16", "--bins", "4", "--tol", "nan"],
         "--seeds applies only where a model is stochastic"),
    ], ids=["bragg", "homometry-spectral"])
    def test_seeds_where_no_model_is_stochastic_exit_2(self, tmp_path, capsys, argv, message):
        # refused before the seeds are parsed (and before homometry's tolerance)
        assert main([*argv, "--seeds", "1:x", "--out", str(tmp_path / "out.json")]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())



def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == diffcomb.__version__


def test_importing_the_cli_loads_only_numpy_the_standard_library_and_diffcomb():
    """Every run pays the CLI's imports in its setup time: past what `import numpy`
    loads, importing diffcomb.cli may load standard-library and diffcomb modules
    only (numpy.random, for one, stays unloaded)."""
    code = ("import json, sys, numpy; before = set(sys.modules); import diffcomb.cli;"
            " print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(Path(diffcomb.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    loaded = json.loads(run.stdout)
    assert "diffcomb.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] != "diffcomb"
            and name.split(".")[0] not in sys.stdlib_module_names] == []


# ── Golden runs ────────────────────────────────────────────────────────────
# Every subcommand on small inputs, each run alone in an empty directory with
# relative output paths.  The expected digests, stdout and manifests live in
# cli_golden.json; `PYTHONPATH=src python tests/test_cli.py` re-records them.

RSB_JSON = '{"model": "bernoullised", "base": {"model": "rudin_shapiro"}, "p": 0.25, "seed": 3}'
PERIODIC_JSON = '{"model": "periodic", "pattern": [1, 1, -1]}'
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN_CASES = {
    "generate-csv": ["generate", "--model", "rudin_shapiro", "--first", "-20", "--last", "20",
                     "--out", "w.csv"],
    "generate-json": ["generate", "--model", COIN_JSON, "--first", "-10", "--last", "10",
                      "--format", "json", "--out", "w.json"],
    "autocorr-empirical": ["autocorr", "--model", RSB_JSON, "--N", "128", "--M", "8",
                           "--out", "eta.csv"],
    "autocorr-json": ["autocorr", "--model", PERIODIC_JSON, "--N", "64", "--M", "6",
                      "--format", "json", "--out", "eta.json"],
    "autocorr-analytic-stochastic": ["autocorr", "--model", COIN_JSON, "--analytic", "--M", "4",
                                     "--out", "eta.csv"],
    "diffract-bins": ["diffract", "--model", "rudin_shapiro", "--N", "64", "--G", "32",
                      "--bins", "4", "--out", "pg.csv"],
    "diffract-json": ["diffract", "--model", COIN_JSON, "--N", "64", "--G", "16",
                      "--format", "json", "--out", "pg.json"],
    "bragg-ensemble": ["bragg", "--model", RSB_JSON, "--k0", "1/2", "--N-list", "64,256",
                       "--seeds", "1:3", "--out", "bragg.json"],
    "bragg-deterministic": ["bragg", "--model", "alternating", "--k0", "0.5",
                            "--N-list", "16,64"],
    "spectrum-periodic": ["spectrum", "--model", PERIODIC_JSON, "--out", "spec.json"],
    "spectrum-stochastic": ["spectrum", "--model", RSB_JSON],
    "homometry-autocorr": ["homometry", "--a", RSB_JSON, "--b", "rudin_shapiro", "--analytic-b",
                           "--N", "256", "--M", "8", "--tol", "0.5", "--out", "hom.json"],
    "homometry-fail": ["homometry", "--a", "alternating", "--b", "rudin_shapiro", "--M", "4",
                       "--analytic-a", "--analytic-b", "--tol", "0.01", "--out", "hom.json"],
    "homometry-spectral-ensemble": ["homometry", "--mode", "spectral", "--a", RSB_JSON,
                                    "--b", "rudin_shapiro", "--N", "64", "--G", "16",
                                    "--bins", "4", "--seeds", "1:3", "--tol", "0.5",
                                    "--out", "hom.json"],
    "homometry-spectral-deterministic": ["homometry", "--mode", "spectral", "--a", "rudin_shapiro",
                                         "--b", PERIODIC_JSON, "--N", "64", "--G", "12",
                                         "--bins", "3", "--tol", "1", "--out", "hom.json"],
    "entropy-deterministic": ["entropy", "--model", "rudin_shapiro", "--N", "1024", "--k", "4",
                              "--L-max", "4", "--out", "ent.json"],
    "entropy-stochastic": ["entropy", "--model", COIN_JSON, "--N", "1024", "--k", "3",
                           "--out", "ent.json"],
    "complexity-csv": ["complexity", "--model", "rudin_shapiro", "--N", "256", "--L-max", "5",
                       "--out", "p.csv"],
    "complexity-json": ["complexity", "--model", PERIODIC_JSON, "--N", "256", "--L-max", "4",
                        "--format", "json", "--out", "p.json"],
    "product-analytic": ["product", "--a", "rudin_shapiro", "--b", PERIODIC_JSON, "--M", "2",
                         "--out", "prod.csv"],
    "product-json": ["product", "--a", "alternating", "--b", PERIODIC_JSON, "--M", "1",
                     "--format", "json", "--out", "prod.json"],
    "product-empirical": ["product", "--a", RSB_JSON, "--b", COIN_JSON, "--empirical",
                          "--N", "64", "--M", "2", "--out", "prod.csv"],
    "product-diffraction": ["product", "--a", PERIODIC_JSON, "--b", "alternating",
                            "--mode", "diffraction", "--out", "prod.json"],
    "verify-rs": ["verify-rs", "--max", "16"],
}


def run_golden_case(argv, workdir):
    """Exit code, stdout, data-file digests and manifest of one run in workdir.

    The manifest drops timing_seconds, which varies between runs, and
    numpy_version, which is checked against the running numpy instead.
    """
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
    finally:
        os.chdir(previous)
    (manifest_path,) = Path(workdir).glob("*.manifest.json")
    manifest = json.loads(manifest_path.read_text())
    del manifest["timing_seconds"]
    assert manifest.pop("numpy_version") == np.__version__
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(workdir).iterdir())
        if path != manifest_path
    }
    return {"code": code, "stdout": stdout.getvalue(), "files": files, "manifest": manifest}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_run(case, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[case]
    assert run_golden_case(GOLDEN_CASES[case], tmp_path) == expected


def record_golden() -> None:
    golden = {}
    for case, argv in sorted(GOLDEN_CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            golden[case] = run_golden_case(argv, workdir)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="ascii")


if __name__ == "__main__":
    record_golden()
