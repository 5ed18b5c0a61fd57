import json
import math

import pytest
from click.testing import CliRunner

from spinweave.cli import main
from spinweave.control import NumericalDiagnosticError
from spinweave.harness import (
    ConfigError,
    _sweep_preset,
    config_digest,
    run_preset,
    run_sweep,
    sweep_rows_to_csv,
    sweep_rows_to_json,
    validate_config,
)

TINY_SWEEP = {
    "sequences": ["WHH"],
    "n_spins": 2,
    "n_coupling_sets": 2,
    "sweep": {"parameter": "tau_s", "grid": [2e-6, 4e-6]},
    "base_seed": 7,
}

# Each value was once accepted or crashed with a traceback.
MALFORMED = {
    "coupling-sigma-string": {"coupling_sigma_hz": "abc"},
    "tau-null": {"tau_s": None},
    "rotation-error-string": {"rotation_error": "x"},
    "offset-infinite": {"global_offset_hz": float("inf")},
    "rotation-error-nan": {"rotation_error": float("nan")},
    "coupling-sets-bool": {"n_coupling_sets": True},
    "spins-float": {"n_spins": 4.0},
    "transient-negative": {"transient": -0.01},
    "pulse-wider-than-window": {
        "tau_s": 4e-6,
        "pulse_width_s": 5e-6,
        "sweep": {"parameter": "rotation_error", "grid": [0.0]},
    },
    "grid-pulse-wider-than-window": {
        "tau_s": 4e-6,
        "sweep": {"parameter": "pulse_width_s", "grid": [1e-6, 5e-6]},
    },
    "grid-tau-shorter-than-pulse": {
        "pulse_width_s": 1e-6,
        "sweep": {"parameter": "tau_s", "grid": [5e-7, 2e-6]},
    },
    "grid-transient-negative": {"sweep": {"parameter": "transient", "grid": [-0.01, 0.01]}},
    "grid-bool": {"sweep": {"parameter": "rotation_error", "grid": [False, 0.1]}},
    "grid-string": {"sweep": {"parameter": "global_offset_hz", "grid": ["1", 2.0]}},
    "grid-nan": {"sweep": {"parameter": "disorder_sigma_hz", "grid": [float("nan")]}},
    "grid-not-list": {"sweep": {"parameter": "tau_s", "grid": "2e-6"}},
    "parameter-unhashable": {"sweep": {"parameter": ["tau_s"], "grid": [2e-6]}},
    "sequences-string": {"sequences": "WHH"},
    "config-not-object": ["n_spins", 4],
    "seed-key-overflow": {
        "sequences": ["WHH"],
        "n_spins": 2,
        "n_coupling_sets": 2,
        "base_seed": 2**128 - 1,
    },
}

# Config SHA-256 digests that committed result files embed; they must not drift.
PINNED_DIGESTS = {
    "default": "252e121336878da136c36691d60f58c4986e2674f6e898171fffd9ed919ececd",
    "fig2a": "7a0fbab30139d53ba52fc08a7a0b42856ca03d15d895b3e4487436298337ed87",
    "fig6b": "8cb68af03ee8fdb455b1eb561659b4acc693e3ed422304766a18d2bea3a33dec",
    "fig8b": "59461c9700e9700a2a20c8c091c0630fec8ea63a89c9b2205f12d90f7bc856fc",
}


def embedded_config(text):
    """The config document and digest a result file's comment header carries."""
    lines = text.splitlines()
    config = [l for l in lines if l.startswith("# config: ")]
    digest = [l for l in lines if l.startswith("# config_sha256: ")]
    assert len(config) == len(digest) == 1
    return json.loads(config[0][len("# config: "):]), digest[0][len("# config_sha256: "):]


class TestValidateConfig:
    def test_empty_config_echoes_full_size_defaults(self):
        cfg = validate_config({})
        doc = cfg.document
        assert doc["n_spins"] == 8
        assert doc["n_coupling_sets"] == 16
        assert doc["coupling_sigma_hz"] == pytest.approx(5000.0 / 3.0)
        assert doc["base_seed"] == 2026
        assert set(doc["sequences"]) == {
            "WHH", "MREV8", "MREV16", "BR24", "CORY48", "YXX24", "YXX48",
        }

    def test_round_trips_through_loader(self):
        cfg = validate_config(TINY_SWEEP)
        again = validate_config(cfg.document)
        assert again.document == cfg.document
        assert config_digest(again.document) == config_digest(cfg.document)

    def test_rejects_too_many_spins(self):
        with pytest.raises(ConfigError, match="n_spins"):
            validate_config({"n_spins": 12})

    def test_rejects_descending_grid(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            validate_config({"sweep": {"parameter": "tau_s", "grid": [4e-6, 2e-6]}})

    def test_rejects_unknown_fields_and_sequences(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"spins": 4, "sequences": ["WHH", "NOPE"]})
        text = str(err.value)
        assert "unknown fields" in text and "NOPE" in text

    def test_error_list_aggregates(self):
        with pytest.raises(ConfigError) as err:
            validate_config(
                {"n_spins": 1, "tau_s": -1.0, "sweep": {"parameter": "bogus", "grid": []}}
            )
        assert len(err.value.errors) >= 3

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_is_config_error(self, case, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(MALFORMED[case])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MALFORMED[case]))
        result = CliRunner().invoke(
            main, ["sweep", "--config", str(path), "--output", str(tmp_path / "out.csv")]
        )
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "out.csv").exists()

    def test_largest_seed_runs(self):
        # the disorder stream's last key, base_seed + 2**20 + 1, is 2**128 - 1
        doc = {
            "sequences": ["WHH"],
            "n_spins": 2,
            "n_coupling_sets": 2,
            "n_disorder_samples": 2,
            "disorder_sigma_hz": 10.0,
            "sweep": {"parameter": "tau_s", "grid": [4e-6]},
            "base_seed": 2**128 - 2**20 - 2,
        }
        assert len(run_sweep(validate_config(doc), threads=1)) == 1
        with pytest.raises(ConfigError, match="2\\*\\*128"):
            validate_config({**doc, "base_seed": doc["base_seed"] + 1})

    def test_set_string_value_exits_2(self, tmp_path):
        result = CliRunner().invoke(
            main, ["sweep", "--set", 'rotation_error="x"', "--output", str(tmp_path / "out.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "rotation_error must be a number" in result.output

    def test_overflowing_pulse_drive_sweeps_finite(self, tmp_path):
        # the drive (pi/2) / pulse_width overflows; the pulse is built from its angle
        args = [
            "--set", "pulse_width_s=1e-320", "--set", "n_spins=3", "--set", "n_coupling_sets=1",
            "--set", 'sequences=["WHH"]', "--set", "sweep.parameter=rotation_error", "--set", "sweep.grid=[0.0]",
        ]
        result = CliRunner().invoke(main, ["sweep", *args, "--output", str(tmp_path / "out.csv")])
        assert result.exit_code == 0, result.output
        rows = [l for l in (tmp_path / "out.csv").read_text().splitlines() if not l.startswith("#")]
        infidelity = float(rows[1].split(",")[rows[0].split(",").index("mean_infidelity")])
        assert 0.0 <= infidelity < 1e-6

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_config_digest_is_pinned(self, name):
        doc = {} if name == "default" else _sweep_preset(name, "ci")
        assert config_digest(validate_config(doc).document) == PINNED_DIGESTS[name]

    def test_rejects_empty_and_nonfinite_grids(self):
        with pytest.raises(ConfigError, match="empty"):
            validate_config({"sweep": {"parameter": "tau_s", "grid": []}})
        with pytest.raises(ConfigError, match="non-finite"):
            validate_config({"sweep": {"parameter": "tau_s", "grid": [1e-6, float("inf")]}})


class TestEmission:
    def test_empty_rows_give_header_only(self):
        cfg = validate_config(TINY_SWEEP)
        text = sweep_rows_to_csv(cfg, [])
        lines = text.strip().splitlines()
        assert lines[-1].startswith("sweep_param,")
        assert len([l for l in lines if not l.startswith("#")]) == 1

    def test_rerun_is_byte_identical(self):
        cfg = validate_config(TINY_SWEEP)
        a = sweep_rows_to_csv(cfg, run_sweep(cfg, threads=1))
        b = sweep_rows_to_csv(cfg, run_sweep(cfg, threads=2))
        assert a == b

    def test_json_round_trips_through_config_loader(self):
        cfg = validate_config(TINY_SWEEP)
        rows = run_sweep(cfg, threads=1)
        doc = sweep_rows_to_json(cfg, rows)
        assert validate_config(doc["config"]).document == cfg.document
        assert doc["config_sha256"] == config_digest(cfg.document)
        assert len(doc["rows"]) == 2

    def test_json_keeps_document_key_order(self):
        doc = sweep_rows_to_json(validate_config(TINY_SWEEP), [])
        assert list(doc) == ["config", "config_sha256", "columns", "rows"]
        assert list(doc["config"]) == [
            "sequences",
            "n_spins",
            "n_coupling_sets",
            "coupling_sigma_hz",
            "n_disorder_samples",
            "disorder_sigma_hz",
            "global_offset_hz",
            "tau_s",
            "pulse_width_s",
            "rotation_error",
            "transient",
            "sweep",
            "base_seed",
        ]

    def test_csv_embeds_config(self, tmp_path):
        cfg = validate_config(TINY_SWEEP)
        embedded, digest = embedded_config(sweep_rows_to_csv(cfg, run_sweep(cfg, threads=1)))
        assert validate_config(embedded).document == cfg.document
        assert digest == config_digest(cfg.document)
        # the experiment CSVs carry the same header
        runner = CliRunner()
        commands = {
            "ac.csv": ["exp", "autocorr", "--seq", "WHH", "--spins", "2", "--blocks", "0,1,2"],
            "mqc.csv": ["exp", "mqc", "--spins", "2", "--window", "free:1e-5"],
        }
        for name, args in commands.items():
            out = tmp_path / name
            result = runner.invoke(main, args + ["--output", str(out)])
            assert result.exit_code == 0, result.output
            embedded, digest = embedded_config(out.read_text())
            assert embedded["n_spins"] == 2
            assert digest == config_digest(embedded)


class TestPresets:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_preset("fig99", outdir=tmp_path)

    def test_bad_profile(self, tmp_path):
        with pytest.raises(ConfigError, match="profile"):
            run_preset("fig2a", profile="huge", outdir=tmp_path)

    def test_figA3_structure(self, tmp_path):
        (path,) = run_preset("figA3", profile="ci", outdir=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["config"]["preset"] == "figA3"
        terms = {(r["sequence"], r["term"], r["order"]) for r in doc["rows"]}
        assert ("WHH", "dipolar", 4) in terms
        assert ("CORY48", "cross", 1) in terms
        assert len({s for s, _, _ in terms}) == 7


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_seq_lint_builtin(self):
        result = self.runner.invoke(main, ["seq", "lint", "MREV8"])
        assert result.exit_code == 0
        assert "windows (M): 12" in result.output
        assert "pulses: 8" in result.output
        assert "cyclic: yes" in result.output
        assert "row sums" in result.output

    def test_seq_lint_file_and_noncyclic_exit_code(self, tmp_path):
        good = tmp_path / "solid_echo_pair.seq"
        good.write_text("# two opposing pulses\ntau - x - tau - -x - tau\n")
        result = self.runner.invoke(main, ["seq", "lint", str(good)])
        assert result.exit_code == 0
        bad = tmp_path / "bad.seq"
        bad.write_text("tau - x - tau\n")
        result = self.runner.invoke(main, ["seq", "lint", str(bad)])
        assert result.exit_code == 3

    def test_seq_lint_cycle_without_delay(self, tmp_path):
        # four x pulses make -I with no delay window, so M = 0
        path = tmp_path / "pulses_only.seq"
        path.write_text("x - x - x - x\n")
        result = self.runner.invoke(main, ["seq", "lint", str(path)])
        assert result.exit_code == 0, result.output
        assert "windows (M): 0" in result.output
        assert "cyclic: yes, sign -1" in result.output
        assert "row sums (X, Y, Z): [0, 0, 0]" in result.output

    def test_seq_lint_non_cardinal_cycle(self, tmp_path):
        # cyclic, and accepted by cycle_unitary and fidelity, but with no F-matrix
        path = tmp_path / "p45.seq"
        path.write_text("tau - p45 - tau - p225 - tau\n")
        result = self.runner.invoke(main, ["seq", "lint", str(path)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[-2:] == ["cyclic: yes, sign +1", "F-matrix: none (frame matrix requires cardinal pulse phases)"]

    def test_seq_lint_unknown_source(self):
        result = self.runner.invoke(main, ["seq", "lint", "NOSUCH"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", [b"tau - q - tau\n", b"\xff\xfe tau", None], ids=["not-dsl", "not-utf8", "directory"])
    @pytest.mark.parametrize("command", [["seq", "lint"], ["aht", "terms", "--seq"], ["exp", "autocorr", "--seq"]])
    def test_unreadable_sequence_file_is_a_usage_error(self, tmp_path, content, command):
        # each once ended in a traceback with exit 1
        path = tmp_path / "bad.seq"
        path.mkdir() if content is None else path.write_bytes(content)
        out = tmp_path / "out"
        result = self.runner.invoke(main, command + [str(path)] + ([] if command[0] == "seq" else ["--output", str(out)]))
        assert result.exit_code == 2, result.output
        assert f"sequence file {str(path)!r}" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_sweep_with_overrides(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = self.runner.invoke(
            main,
            [
                "sweep",
                "--set", 'sequences=["WHH"]',
                "--set", "n_spins=2",
                "--set", "n_coupling_sets=1",
                "--set", 'sweep={"parameter": "tau_s", "grid": [2e-6, 4e-6]}',
                "--output", str(out),
                "--threads", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[-1].split(",")[0] == "tau_s"

    def test_sweep_bad_config_exits_2(self, tmp_path):
        result = self.runner.invoke(main, ["sweep", "--set", "n_spins=40"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "settings",
        [["sweep.parameter=rotation_error", "sweep.grid=[-1.7e308]"], ["transient=1.7e308"]],
    )
    def test_sweep_overflowing_pulse_angle_exits_2(self, tmp_path, settings):
        # once ran the sweep to "defect nan" (exit 3)
        args = [arg for setting in settings for arg in ("--set", setting)]
        result = self.runner.invoke(main, ["sweep", *args, "--output", str(tmp_path / "s.csv")])
        assert result.exit_code == 2, result.output
        assert "overflows its rotation angle" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "preset"])
    def test_bad_threads_variable_exits_2(self, tmp_path, command, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(TINY_SWEEP))
        args = {
            "sweep": ["sweep", "--config", str(config), "--output", str(tmp_path / "rows.csv")],
            "preset": ["preset", "figA3", "--outdir", str(tmp_path / "out")],
        }[command]
        result = self.runner.invoke(main, args, env={"SPINWEAVE_THREADS": value})
        assert result.exit_code == 2, result.output
        assert "SPINWEAVE_THREADS" in result.output
        assert repr(value) in result.output
        assert not (tmp_path / "rows.csv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "preset"])
    def test_threads_option_below_one_exits_2(self, tmp_path, command, threads):
        args = {
            "sweep": ["sweep", "--set", "n_spins=2", "--output", str(tmp_path / "rows.csv")],
            "preset": ["preset", "figA3", "--outdir", str(tmp_path / "out")],
        }[command]
        result = self.runner.invoke(main, args + ["--threads", threads])
        assert result.exit_code == 2, result.output
        assert "--threads" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_threads_option_overrides_bad_variable(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(TINY_SWEEP))
        out = tmp_path / "rows.csv"
        result = self.runner.invoke(
            main,
            ["sweep", "--config", str(config), "--output", str(out), "--threads", "1"],
            env={"SPINWEAVE_THREADS": "abc"},
        )
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_aht_terms_json(self):
        result = self.runner.invoke(
            main, ["aht", "terms", "--seq", "WHH", "--orders", "2", "--spins", "2"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert [t["order"] for t in doc["terms"]] == [0, 1, 2]
        for term in doc["terms"]:
            assert set(term) == {
                "order",
                "magnitude_dipolar_normalized",
                "trace_residual",
                "hermiticity_residual",
            }

    def test_exp_autocorr_with_fit(self, tmp_path):
        out = tmp_path / "ac.csv"
        result = self.runner.invoke(
            main,
            [
                "exp", "autocorr", "--seq", "WHH", "--spins", "2",
                "--blocks", "0,1,2,4,8,16,32",
                "--fit", "stretched",
                "--output", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "time_s,c_xx,c_yy,c_zz,c_avg"
        fit_doc = json.loads((tmp_path / "ac.csv.fit.json").read_text())
        assert fit_doc["model"] == "stretched"

    def test_exp_autocorr_fit_needs_six_blocks(self, tmp_path):
        out = tmp_path / "ac.csv"
        result = self.runner.invoke(
            main,
            [
                "exp", "autocorr", "--seq", "WHH", "--spins", "3",
                "--blocks", "0,1,2,4,8", "--fit", "stretched",
                "--output", str(out),
            ],
        )
        assert result.exit_code == 2, result.output
        assert "--fit needs at least 6" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_exp_mqc(self, tmp_path):
        out = tmp_path / "mqc.csv"
        result = self.runner.invoke(
            main,
            [
                "exp", "mqc", "--spins", "3", "--tau-dq", "1e-4",
                "--window", "free:1e-4", "--output", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "order,intensity"
        assert len(body) == 1 + 7  # orders -3..3
        assert (tmp_path / "mqc.csv.signal.csv").exists()

    def test_exp_mqc_bad_window(self):
        result = self.runner.invoke(
            main, ["exp", "mqc", "--spins", "2", "--window", "sideways:1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args,named",
        [
            (["aht", "terms", "--seq", "WHH", "--spins", "1"], "--spins"),
            (["aht", "terms", "--seq", "WHH", "--spins", "11"], "--spins"),
            (["aht", "terms", "--seq", "WHH", "--seed", "-1"], "--seed"),
            (["exp", "autocorr", "--seq", "WHH", "--tau", "0"], "--tau"),
            (["exp", "autocorr", "--seq", "WHH", "--pulse-width", "5e-6"], "--pulse-width"),
            (["exp", "autocorr", "--seq", "WHH", "--blocks", "-1,2"], "--blocks"),
            (["exp", "autocorr", "--seq", "WHH", "--blocks", "0,100000000000000000000"], "--blocks"),
            (["exp", "autocorr", "--seq", "WHH", "--blocks", ","], "--blocks"),
            (["exp", "autocorr", "--seq", "WHH", "--coupling-sigma-hz", "0"], "--coupling-sigma-hz"),
            (["exp", "mqc", "--phi-count", "3"], "--phi-count"),
            (["exp", "mqc", "--spins", "11"], "--spins"),
            (["exp", "mqc", "--window", "protected:WHH:2:-1e-6"], "tau must be positive"),
            (["exp", "mqc", "--spins", "3", "--window", "protected:WHH:-2"], "nonnegative integer"),
            (["exp", "mqc", "--spins", "3", "--window", "protected:WHH:2.5"], "--window"),
            (["exp", "mqc", "--spins", "3", "--window", "free:-1"], "finite and nonnegative"),
            (["aht", "terms", "--seq", "WHH", "--tau", "inf"], "--tau"),
            (["exp", "autocorr", "--seq", "WHH", "--offset-hz", "nan"], "--offset-hz"),
            (["exp", "mqc", "--tau-dq", "nan"], "--tau-dq"),
            (["exp", "mqc", "--tau-dq", "-1e-4"], "--tau-dq"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, args, named):
        out = ["--output", str(tmp_path / "out.csv")]
        result = self.runner.invoke(main, args + out)
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert list(tmp_path.iterdir()) == []

    def test_exp_autocorr_overflowing_pulse_drive_is_finite(self, tmp_path):
        # the drive (pi/2) / pulse_width overflows; the pulse is built from its angle
        out = tmp_path / "ac.csv"
        args = ["exp", "autocorr", "--seq", "WHH", "--spins", "3", "--pulse-width", "1e-320", "--output", str(out)]
        result = self.runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        values = [float(v) for row in rows for v in row]
        assert rows and all(math.isfinite(v) for v in values)

    def test_absurd_pulse_width_exits_3(self, tmp_path):
        # h_int t_w overflows at t_w = 1e306 s
        args = ["exp", "autocorr", "--seq", "WHH", "--spins", "2", "--tau", "1e306", "--pulse-width", "1e306"]
        result = self.runner.invoke(main, args + ["--output", str(tmp_path / "ac.csv")])
        assert result.exit_code == 3, result.output
        assert "pulse generator h_int t_w overflows" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_magnus_terms_exit_3(self, tmp_path):
        # H t overflows in the Dyson recursion; the terms were once written as NaN
        args = ["aht", "terms", "--seq", "WHH", "--tau", "1e300", "--output", str(tmp_path / "terms.json")]
        result = self.runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert "Dyson terms through order 5 overflow" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--set", "n_spins=4", "--set", 'sequences=["WHH"]', "--set", "n_coupling_sets=2", "--set", setting]
            for setting in (
                "coupling_sigma_hz=1e307",
                "coupling_sigma_hz=6e307",
                "coupling_sigma_hz=1e308",
                "global_offset_hz=1e308",
                "disorder_sigma_hz=1e308",
            )
        ]
        + [["exp", "autocorr", "--seq", "WHH", "--offset-hz", "1e308"], ["exp", "mqc", "--coupling-sigma-hz", "1e308"]],
    )
    def test_overflowing_hamiltonian_exits_3(self, args, tmp_path):
        # finite inputs whose draws, Hamiltonian or eigh overflow once ended in a traceback (exit 1)
        result = self.runner.invoke(main, args + ["--output", str(tmp_path / "out.csv")])
        assert result.exit_code == 3, result.output
        assert "numerical diagnostic failure" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_still_exits_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalDiagnosticError("propagator is not unitary")

        monkeypatch.setattr("spinweave.cli.mqc_experiment", fail)
        result = self.runner.invoke(main, ["exp", "mqc", "--output", str(tmp_path / "m.csv")])
        assert result.exit_code == 3
        assert "not unitary" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_preset_unknown_exits_2(self, tmp_path):
        result = self.runner.invoke(main, ["preset", "fig99", "--outdir", str(tmp_path)])
        assert result.exit_code == 2

    def test_preset_figA3(self, tmp_path):
        result = self.runner.invoke(main, ["preset", "figA3", "--outdir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "figA3.json").exists()
