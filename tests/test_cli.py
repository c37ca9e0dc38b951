import argparse
import json

import numpy as np
import pytest

from uqdvr import cli
from uqdvr.cli import main, parse_camera, parse_dims, parse_size, run_experiment
from uqdvr.render import Camera, Image, save_image
from uqdvr.synth import NoiseSpec, make_ensemble, sample_field, save_ensemble
from uqdvr.volcore import DistributionVolume, QuantileModel, VolumeError, load_qvol, save_qvol


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDiffCommand:
    def test_identical_images_print_rmse_zero(self, tmp_path, capsys):
        from uqdvr.render import Image, save_image

        img = Image(4, 3, np.random.default_rng(0).random((3, 4, 4)).astype(np.float32))
        save_image(img, tmp_path / "a.ppm")
        code, out, _ = run_cli(
            ["diff", "--img", str(tmp_path / "a.ppm.f32"), "--ref", str(tmp_path / "a.ppm.f32")],
            capsys)
        assert code == 0
        assert "rmse=0" in out


class TestArgumentParsers:
    """--dims and --size share one parser, in which x, X and commas all
    separate; --camera takes a preset or ten numbers."""

    @pytest.mark.parametrize("text", ["64x32x16", "64X32X16", "64,32,16", "64X32,16"])
    def test_dims(self, text):
        assert parse_dims(text) == (64, 32, 16)

    @pytest.mark.parametrize("text", ["256x128", "256X128", "256,128"])
    def test_size(self, text):
        assert parse_size(text) == (256, 128)

    @pytest.mark.parametrize("parse, text", [(parse_dims, "64x64"), (parse_dims, "1x2x3x4"),
                                             (parse_size, "8x8x8"), (parse_size, "8")])
    def test_wrong_count_is_an_argument_error(self, parse, text):
        with pytest.raises(argparse.ArgumentTypeError, match="integers"):
            parse(text)

    def test_upper_case_dims_on_the_command_line(self, tmp_path, capsys):
        code, _, _ = run_cli(["gen", "--field", "tangle", "--dims", "4X4X4", "--members", "2",
                              "--out", str(tmp_path / "e")], capsys)
        assert code == 0 and (tmp_path / "e" / "member_001.f32raw").exists()

    def test_explicit_camera(self):
        cam = parse_camera("3,3,3,0.5,0.5,0.5,0,0,1,30", None, 8, 6)
        assert cam == Camera((3.0, 3.0, 3.0), (0.5, 0.5, 0.5), (0.0, 0.0, 1.0), 30.0, 8, 6)

    def test_wrong_dims_count_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--field", "tangle", "--dims", "4x4", "--out", str(tmp_path / "e")])
        assert exc.value.code == 2 and "WxHxD" in capsys.readouterr().err


class TestLoadErrors:
    def test_bad_inputs_exit_2_without_traceback(self, tmp_path, capsys):
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "ensemble.txt").write_bytes(b"\x80members=2\n")
        for ens in ("missing", "bad"):
            code, _, err = run_cli(["estimate", "--ensemble", str(tmp_path / ens),
                                    "--model", "mean", "--out", str(tmp_path / "m.dvol")], capsys)
            assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        (tmp_path / "empty.f32").write_bytes(b"0 5\n")
        for img in ("missing.f32", "empty.f32"):
            path = str(tmp_path / img)
            code, _, err = run_cli(["diff", "--img", path, "--ref", path], capsys)
            assert code == 2 and err.startswith("error: ")


class TestMalformedInput:
    MANIFESTS = {
        "empty-manifest": "{}",
        "manifest-array": "[1]",
        "bad-json": "{",
        "unknown-model": json.dumps({"field": "tangle", "dims": [4, 4, 4], "size": [8, 8],
                                     "noise": {"kind": "gaussian"}, "members": [2],
                                     "models": ["nope"]}),
        "noise-key": json.dumps({"field": "tangle", "dims": [4, 4, 4],
                                 "noise": {"kind": "gaussian", "sigmaa": 1.0}}),
        "short-dims": json.dumps({"field": "tangle", "dims": [4, 4]}),
        **{case: json.dumps({"field": "tangle", "dims": [4, 4, 4], "size": [8, 8],
                             **({} if bad.get("mode") == "hixel" else
                                {"noise": {"kind": "gaussian"}, "members": [2]}), **bad})
           for case, bad in (("seed-text", {"seed": "x"}), ("seed-negative", {"seed": -1}),
                             ("step-text", {"step": "a"}), ("size-text", {"size": [8, "x"]}),
                             ("k-zero", {"k": 0, "models": ["gmm-ordered"]}),
                             ("quantile-model", {"models": ["quantile-mean"]}),
                             ("tf2d-model", {"models": ["tf2d"]}),
                             ("mean-quantile-scheme", {"qvals": [0.5],
                                                       "quantile_schemes": ["mean"]}),
                             ("unknown-mode", {"mode": "bricks"}),
                             ("dims-fraction", {"dims": [4.5, 4, 4]}),
                             ("members-fraction", {"members": [2.5]}),
                             ("lattice-fraction", {"kde_lattice": 100.5}),
                             ("brick-zero", {"mode": "hixel", "brick": [0, 4, 4]}),
                             ("brick-indivisible", {"mode": "hixel", "brick": [3, 4, 4]}),
                             ("field-number", {"field": 5}), ("tf-number", {"tf": 5}),
                             ("camera-number", {"camera": 5}),
                             ("qval-not-unit-fraction", {"qvals": [0.3]}),
                             ("members-one", {"members": [1], "models": ["gaussian"]}),
                             ("hixel-brick-one", {"mode": "hixel", "brick": [1, 1, 1],
                                                  "qvals": [0.5]}),
                             ("k-above-members", {"members": [4], "models": ["gmm-ordered"],
                                                  "k": 9}),
                             ("unknown-key", {"qval": [0.25]}),
                             ("hixel-members", {"mode": "hixel", "members": [2]}),
                             ("members-empty", {"members": []}),
                             ("members-repeated", {"members": [2, 3, 2]}),
                             ("models-repeated", {"models": ["mean", "gaussian", "mean"]}),
                             ("quantile-schemes-repeated",
                              {"qvals": [0.5], "quantile_schemes": ["quantile-mean"] * 2}),
                             ("qvals-same-q", {"qvals": [0.25, 0.25 + 1e-12]}))},
    }

    # Outputs that cannot be written; these fail after a stage line is printed.
    OUT_CASES = ("estimate-out-missing-dir", "estimate-out-dot", "estimate-hixel-out-dot",
                 "render-out-missing-dir", "quartiles-out-dot", "diff-out-missing-dir",
                 "gen-out-file")

    @pytest.mark.parametrize("case", ["camera", "noise", "field", "empty-manifest", "bad-json",
                                      "unknown-model", "noise-key", "short-dims",
                                      "tf-path", "seed-text", "seed-negative",
                                      "step-text", "size-text", "k-zero", "quantile-model",
                                      "tf2d-model",
                                      "mean-quantile-scheme", "unknown-mode", "dims-fraction",
                                      "members-fraction", "lattice-fraction",
                                      "brick-zero", "brick-indivisible", "estimate-brick-zero",
                                      "estimate-brick-negative", "field-number", "tf-number",
                                      "camera-number", "qval-not-unit-fraction", "members-one",
                                      "hixel-brick-one", "k-above-members", "unknown-key",
                                      "hixel-members", "members-empty", "members-repeated",
                                      "models-repeated", "quantile-schemes-repeated",
                                      "qvals-same-q",
                                      "diff-scale-negative", "manifest-array",
                                      "estimate-no-input", "estimate-brick-without-volume",
                                      *OUT_CASES])
    def test_exit_2_without_traceback(self, tmp_path, capsys, monkeypatch, case):
        raw = tmp_path / "v.f32raw"
        raw.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        render = ["render", "--scheme", "mean", "--volume", str(raw), "--dims", "2,2,2",
                  "--size", "8x8", "--out", str(tmp_path / "o.ppm")]
        gen = ["gen", "--dims", "4,4,4", "--out", str(tmp_path / "ens")]
        manifest = tmp_path / "m.json"
        manifest.write_text(self.MANIFESTS.get(case, "{}"))
        save_image(Image(2, 2, np.zeros((2, 2, 4))), tmp_path / "a.ppm")
        diff = ["diff", "--img", str(tmp_path / "a.ppm.f32"), "--ref", str(tmp_path / "a.ppm.f32")]
        save_ensemble(make_ensemble(sample_field("constant(0.5)", (2, 2, 2)),
                                    NoiseSpec("gaussian", members=2)), tmp_path / "e")
        estimate = ["estimate", "--ensemble", str(tmp_path / "e"), "--model", "mean"]
        save_qvol(DistributionVolume((2, 2, 2), (1, 1, 1), (0, 0, 0),
                                     QuantileModel(0.25, np.tile(np.linspace(0, 1, 5), (8, 1)))),
                  tmp_path / "q.qvol")
        nodir = str(tmp_path / "nodir" / "x")
        argv = {
            "camera": render + ["--tf", "preset:tangle", "--camera", "1,2,x,0,0,0,0,0,1,30"],
            "noise": gen + ["--field", "tangle", "--noise", "bimodal:foo"],
            "field": gen + ["--field", "linear(a,b,c)"],
            "tf-path": render + ["--tf", str(tmp_path / "missing.tf")],
            "estimate-brick-zero": ["estimate", "--volume", str(raw), "--dims", "2,2,2",
                                    "--brick", "0,4,4", "--model", "mean",
                                    "--out", str(tmp_path / "h.dvol")],
            "estimate-brick-negative": ["estimate", "--volume", str(raw), "--dims", "2,2,2",
                                        "--brick=-2,4,4", "--model", "mean",
                                        "--out", str(tmp_path / "h.dvol")],
            "diff-scale-negative": diff + ["--scale", "-1"],
            "estimate-no-input": ["estimate", "--model", "mean", "--out", str(tmp_path / "m")],
            "estimate-brick-without-volume": ["estimate", "--brick", "2,2,2", "--model", "mean",
                                              "--out", str(tmp_path / "m")],
            "estimate-out-missing-dir": estimate + ["--out", nodir],
            "estimate-out-dot": estimate + ["--out", "."],
            "estimate-hixel-out-dot": ["estimate", "--volume", str(raw), "--dims", "2,2,2",
                                       "--brick", "1,1,1", "--model", "mean", "--out", "."],
            "render-out-missing-dir": render + ["--tf", "preset:tangle", "--out", nodir],
            "quartiles-out-dot": ["quartiles", "--volume", str(tmp_path / "q.qvol"),
                                  "--size", "8x8", "--tf", "preset:tangle", "--out", "."],
            "diff-out-missing-dir": diff + ["--out", nodir],
            "gen-out-file": gen + ["--field", "tangle", "--out", str(raw)],
        }.get(case, ["experiment", "--manifest", str(manifest), "--out", str(tmp_path / "x")])
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err.splitlines()[-1].startswith("error: "), err
        assert "Traceback" not in err and (err.startswith("error: ") or case in self.OUT_CASES)
        assert not (tmp_path / "ens").exists() and not (tmp_path / "nodir").exists()
        assert not (tmp_path / "x").exists()  # the experiment output directory

    @pytest.mark.parametrize("case", ["threads-zero", "threads-negative", "gen", "experiment"])
    def test_thread_counts_below_one_exit_2(self, tmp_path, capsys, case):
        raw = tmp_path / "v.f32raw"
        raw.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"field": "tangle", "dims": [4, 4, 4], "size": [8, 8],
                                        "members": [2]}))
        out = tmp_path / "out"
        command = {
            "gen": ["gen", "--field", "tangle", "--dims", "4,4,4", "--out", str(out)],
            "experiment": ["experiment", "--manifest", str(manifest), "--out", str(out)],
        }.get(case, ["render", "--scheme", "mean", "--volume", str(raw), "--dims", "2,2,2",
                     "--size", "8x8", "--tf", "preset:tangle", "--out", str(out)])
        threads = ["--threads=-1"] if case == "threads-negative" else ["--threads", "0"]
        code, _, err = run_cli(threads + command, capsys)
        assert code == 2 and err.splitlines()[-1].startswith("error: threads"), err
        assert "Traceback" not in err and not out.exists()

    def test_run_experiment_checks_threads_before_output(self, tmp_path):
        manifest = {"field": "tangle", "dims": [4, 4, 4], "size": [8, 8], "members": [2]}
        with pytest.raises(VolumeError, match="threads"):
            run_experiment(manifest, tmp_path / "x", threads=0)
        assert not (tmp_path / "x").exists()


class TestPipelineSmoke:
    def test_gen_estimate_constant_gives_flat_qvol(self, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        code, _, _ = run_cli(["gen", "--field", "constant(0.5)", "--dims", "6,6,6",
                              "--members", "4", "--noise", "gaussian:sigma=0",
                              "--seed", "1", "--out", str(ens_dir)], capsys)
        assert code == 0
        qvol_path = tmp_path / "c.qvol"
        code, _, _ = run_cli(["estimate", "--ensemble", str(ens_dir), "--model", "quantile",
                              "--qval", "0.25", "--out", str(qvol_path)], capsys)
        assert code == 0
        vol = load_qvol(qvol_path)
        assert np.all(vol.model.boundaries == 0.5)

    def test_render_and_quartiles(self, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        run_cli(["gen", "--field", "tangle", "--dims", "8,8,8", "--members", "6",
                 "--noise", "bimodal:sigma=0.05,offset=0.7", "--seed", "2",
                 "--out", str(ens_dir)], capsys)
        qvol_path = tmp_path / "t.qvol"
        run_cli(["estimate", "--ensemble", str(ens_dir), "--model", "quantile",
                 "--qval", "0.125", "--out", str(qvol_path)], capsys)
        img = tmp_path / "img.ppm"
        code, _, _ = run_cli(["render", "--scheme", "quantile-mean", "--volume", str(qvol_path),
                              "--tf", "preset:tangle", "--camera", "preset:tangle",
                              "--size", "16x12", "--out", str(img)], capsys)
        assert code == 0
        assert img.exists() and img.with_suffix(".ppm.f32").exists()
        qimg = tmp_path / "quart.ppm"
        code, _, _ = run_cli(["quartiles", "--volume", str(qvol_path),
                              "--tf", "preset:tangle", "--camera", "preset:tangle",
                              "--size", "12x10", "--out", str(qimg)], capsys)
        assert code == 0
        for name in ("lower", "middle", "upper"):
            assert (tmp_path / f"quart.{name}.ppm").exists()

    def test_idempotent_outputs(self, tmp_path, capsys):
        ens_dir = tmp_path / "ens"
        run_cli(["gen", "--field", "tangle", "--dims", "6,6,6", "--members", "5",
                 "--noise", "bimodal", "--seed", "3", "--out", str(ens_dir)], capsys)
        member = (ens_dir / "member_000.f32raw").read_bytes()
        run_cli(["gen", "--field", "tangle", "--dims", "6,6,6", "--members", "5",
                 "--noise", "bimodal", "--seed", "3", "--out", str(ens_dir)], capsys)
        assert (ens_dir / "member_000.f32raw").read_bytes() == member

    @pytest.mark.parametrize("argv", [
        ["gen", "--field", "tangle", "--dims", "4,4,4", "--frobnicate"],
        ["estimate", "--ensemble", "e", "--model", "mean", "--seed", "1"],
        ["quartiles", "--volume", "q.qvol", "--seed", "1"],
        ["quartiles", "--volume", "q.qvol", "--mc-samples", "2"],
        ["quartiles", "--volume", "q.qvol", "--dims", "2,2,2"],
    ], ids=["gen-frobnicate", "estimate-seed", "quartiles-seed", "quartiles-mc-samples",
            "quartiles-dims"])
    def test_unknown_flag_is_hard_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code != 0
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_every_subcommand_has_help(self, capsys):
        for sub in ("gen", "estimate", "render", "quartiles", "diff", "experiment"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--out" in out or "--manifest" in out or "--img" in out

    def test_hixel_estimate(self, tmp_path, capsys):
        from uqdvr.synth import sample_field
        from uqdvr.volcore import save_raw

        hi = sample_field("nested-spheres", (16, 16, 16))
        raw = tmp_path / "hi.f32raw"
        save_raw(hi, raw, "f32")
        out = tmp_path / "hix.qvol"
        code, _, _ = run_cli(["estimate", "--volume", str(raw), "--dims", "16,16,16",
                              "--brick", "4,4,4", "--model", "quantile", "--qval", "0.25",
                              "--out", str(out)], capsys)
        assert code == 0
        vol = load_qvol(out)
        assert vol.dims == (4, 4, 4)
        assert out.with_suffix(".mean.f32raw").exists()

    def test_missing_input_fails_nonzero(self, tmp_path, capsys):
        code, _, err = run_cli(["render", "--scheme", "mean", "--volume",
                                str(tmp_path / "nope.dvol"), "--tf", "preset:tangle",
                                "--size", "8x8", "--out", str(tmp_path / "o.ppm")], capsys)
        assert code != 0


class TestOneValueDomain:
    """gen, estimate and render through files give the bytes of the same
    experiment in memory: both hold float32 grids and models."""

    MANIFEST = {"mode": "ensemble", "field": "tangle", "dims": [10, 9, 8],
                "noise": {"kind": "bimodal", "sigma": 0.05, "offset": 0.7}, "members": [6],
                "models": ["mean", "uniform", "gaussian", "gmm-ordered", "gmm-mc"], "k": 2,
                "qvals": [0.25], "quantile_schemes": ["quantile-mean", "quantile-range"],
                "tf": "preset:tangle", "camera": "preset:tangle", "size": [16, 12], "seed": 3}
    # (scheme, estimate options, experiment image)
    RUNS = (("mean", ["--model", "mean"], "mean_m6"),
            ("uniform", ["--model", "uniform"], "uniform_m6"),
            ("gaussian", ["--model", "gaussian"], "gaussian_m6"),
            ("gmm-ordered", ["--model", "gmm", "--k", "2"], "gmm-ordered_m6"),
            ("gmm-mc", ["--model", "gmm", "--k", "2"], "gmm-mc_m6"),
            ("quantile-mean", ["--model", "quantile", "--qval", "0.25"], "quantile-mean_q4_m6"),
            ("quantile-range", ["--model", "quantile", "--qval", "0.25"], "quantile-range_q4_m6"))

    def test_gen_estimate_render_is_the_experiment_image(self, tmp_path, capsys):
        run_experiment(self.MANIFEST, tmp_path / "x")
        ens = str(tmp_path / "ens")
        assert run_cli(["gen", "--field", "tangle", "--dims", "10x9x8", "--members", "6",
                        "--noise", "bimodal:sigma=0.05,offset=0.7", "--seed", "3",
                        "--out", ens], capsys)[0] == 0
        for scheme, options, image in self.RUNS:
            vol, img = str(tmp_path / f"{scheme}.vol"), tmp_path / f"{scheme}.ppm"
            assert run_cli(["estimate", "--ensemble", ens, *options, "--out", vol], capsys)[0] == 0
            assert run_cli(["render", "--scheme", scheme, "--volume", vol, "--tf", "preset:tangle",
                            "--camera", "preset:tangle", "--size", "16x12", "--seed", "3",
                            "--out", str(img)], capsys)[0] == 0
            want = (tmp_path / "x" / f"{image}.ppm.f32").read_bytes()
            assert (tmp_path / f"{scheme}.ppm.f32").read_bytes() == want, scheme


class TestExperimentCommand:
    def test_small_manifest_writes_csv(self, tmp_path, capsys):
        manifest = {
            "mode": "ensemble",
            "field": "tangle",
            "dims": [8, 8, 8],
            "noise": {"kind": "bimodal", "sigma": 0.05, "offset": 0.7},
            "members": [6],
            "models": ["mean"],
            "qvals": [0.25],
            "quantile_schemes": ["quantile-mean"],
            "tf": "preset:tangle",
            "camera": "preset:tangle",
            "size": [16, 12],
            "seed": 4,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        outdir = tmp_path / "exp"
        code, out, _ = run_cli(["experiment", "--manifest", str(mpath),
                                "--out", str(outdir)], capsys)
        assert code == 0
        csv_text = (outdir / "results.csv").read_text()
        assert csv_text.splitlines()[0] == "scheme,q,M,rmse"
        assert "quantile-mean" in csv_text
        assert "rmse=" in out

    def test_experiment_deterministic(self, tmp_path):
        manifest = {
            "mode": "ensemble", "field": "tangle", "dims": [6, 6, 6],
            "noise": {"kind": "gaussian", "sigma": 0.05}, "members": [4],
            "models": ["mean"], "qvals": [], "tf": "preset:tangle",
            "camera": "preset:tangle", "size": [10, 8], "seed": 5,
        }
        a = run_experiment(manifest, tmp_path / "a")
        b = run_experiment(manifest, tmp_path / "b")
        assert a == b
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())

    def test_each_kind_is_fitted_once_per_sample_set(self, tmp_path, monkeypatch):
        manifest = {"field": "tangle", "dims": [6, 6, 6], "noise": {"kind": "gaussian"},
                    "members": [4, 5], "models": ["gmm-ordered", "mean", "gmm-mc"], "k": 2,
                    "size": [8, 8], "seed": 2}
        alone = run_experiment({**manifest, "models": ["gmm-mc"]}, tmp_path / "alone")
        build, fits = cli.build_distribution_volume, []

        def counting(ens, kind, **fit):
            fits.append((ens.member_count, kind))
            return build(ens, kind, **fit)

        monkeypatch.setattr(cli, "build_distribution_volume", counting)
        rows = run_experiment(manifest, tmp_path / "x")
        assert fits == [(4, "gmm"), (4, "mean"), (5, "gmm"), (5, "mean")]
        assert [(r["scheme"], r["M"]) for r in rows] == [
            (s, m) for m in (4, 5) for s in manifest["models"]]
        assert [r for r in rows if r["scheme"] == "gmm-mc"] == alone
        for m in (4, 5):
            image = f"gmm-mc_m{m}.ppm.f32"
            assert (tmp_path / "x" / image).read_bytes() == (tmp_path / "alone" / image).read_bytes()


class TestExperimentModes:
    """Both modes of run_experiment on tiny manifests.  The fits and renders
    are deterministic, so the recorded RMSE values must match to 1e-9."""

    ENSEMBLE = {"mode": "ensemble", "field": "tangle", "dims": [8, 8, 8],
                "noise": {"kind": "bimodal", "sigma": 0.05, "offset": 0.7},
                "members": [4, 6], "models": ["mean", "uniform", "gaussian", "gmm-ordered"],
                "k": 2, "qvals": [0.5, 0.25],
                "quantile_schemes": ["quantile-mean", "quantile-range"],
                "tf": "preset:tangle", "camera": "preset:tangle", "size": [16, 16], "seed": 3,
                "kde_bandwidth": 0.03}
    HIXEL = {"mode": "hixel", "field": "nested-spheres", "dims": [16, 16, 16], "brick": [4, 4, 4],
             "models": ["mean", "gaussian"], "qvals": [0.25, 0.125],
             "quantile_schemes": ["quantile-mean"], "tf": "preset:spheres",
             "camera": "preset:spheres", "size": [16, 16], "seed": 3, "kde_bandwidth": 0.02}
    ENSEMBLE_ROWS = [
        ("mean", "", 4, 0.03113473985474516),
        ("uniform", "", 4, 0.02617806635438501),
        ("gaussian", "", 4, 0.030891432100808535),
        ("gmm-ordered", "", 4, 0.022070850602009473),
        ("quantile-mean", 2, 4, 0.03170683854668495),
        ("quantile-range", 2, 4, 0.03811405420635252),
        ("quantile-mean", 4, 4, 0.028629512093567823),
        ("quantile-range", 4, 4, 0.034036721225459664),
        ("mean", "", 6, 0.03109476788467773),
        ("uniform", "", 6, 0.027123161629386893),
        ("gaussian", "", 6, 0.03211896205328799),
        ("gmm-ordered", "", 6, 0.022325163164759614),
        ("quantile-mean", 2, 6, 0.032289261271251694),
        ("quantile-range", 2, 6, 0.04148673070537598),
        ("quantile-mean", 4, 6, 0.029510793264877787),
        ("quantile-range", 4, 6, 0.03653033177387774),
    ]
    HIXEL_ROWS = [
        ("mean", "", 64, 0.08651696471319428),
        ("gaussian", "", 64, 0.10330409130191164),
        ("quantile-mean", 4, 64, 0.1266556988734038),
        ("quantile-mean", 8, 64, 0.11582190566143687),
    ]

    @pytest.mark.parametrize("mode", ["ensemble", "hixel"])
    def test_outputs_and_rmse(self, tmp_path, mode):
        manifest, want = ((self.ENSEMBLE, self.ENSEMBLE_ROWS) if mode == "ensemble"
                          else (self.HIXEL, self.HIXEL_ROWS))
        rows = run_experiment(manifest, tmp_path)
        if mode == "ensemble":
            names = ["ground_truth"] + [f"{s}_m{m}" if q == "" else f"{s}_q{q}_m{m}"
                                        for s, q, m, _ in want]
        else:
            names = ["full_resolution"] + [f"hixel_{s}" if q == "" else f"hixel_{s}_q{q}"
                                           for s, q, m, _ in want]
        files = sorted(p.name for p in tmp_path.iterdir())
        images = [f"{n}.ppm{x}" for n in names for x in ("", ".f32")]
        assert files == sorted(["results.csv"] + images)
        assert [(r["scheme"], r["q"], r["M"]) for r in rows] == [w[:3] for w in want]
        csv_rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [tuple(line.split(",")[:3]) for line in csv_rows] == [
            (s, str(q), str(m)) for s, q, m, _ in want]
        for r, w in zip(rows, want):
            assert abs(r["rmse"] - w[3]) <= 1e-9, (r, w)
