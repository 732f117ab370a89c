"""End-to-end tests for the CLI: ingestion, persistence, exit codes."""
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import cli, traceio
from countmix.cli import (
    DataError,
    EXIT_CONVERGENCE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SAMPLER,
    _parse_categorical,
    export_dataset,
    ingest,
    parse_config,
    run,
)
from countmix.model import CovariateColumn, Dataset, ModelSpec, generate_synthetic
from countmix.sampler import SamplerConfig, SamplerError, Trace


def read_csv_table(path):
    """An emitted table as a list of dicts (strings)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _rewrite_manifest(directory):
    """Re-hash every file checksums.txt lists, as anyone who edits one may."""
    with open(os.path.join(directory, traceio.CHECKSUM_FILE)) as fh:
        names = [line.rstrip("\n").split("  ", 1)[1] for line in fh]
    traceio.write_checksums(directory, names)


def _categorical_fit(root):
    """A short two-chain fit of 200 rows whose column site (levels a, b) is categorical."""
    gen = np.random.default_rng(16)
    n = 200
    levels = gen.choice(["a", "b"], size=n)
    y = np.where(gen.random(n) < 0.5, gen.poisson(2.0, n), gen.poisson(30.0, n))
    path = _write(root / "d.csv", "y,site\n"
                  + "".join(f"{y[i]},{levels[i]}\n" for i in range(n)))
    fit_dir = str(root / "fit")
    code = run(["fit", "--input", path, "--categorical", "site=a", "--out", fit_dir,
                "--kmax", "3", "--iters", "200", "--burnin", "100", "--chains", "2",
                "--seed", "5"])
    assert code in (EXIT_OK, EXIT_CONVERGENCE)
    return fit_dir


class TestConfig:
    def test_parse_config(self, tmp_path):
        path = _write(tmp_path / "run.cfg",
                      "iters = 500\n# comment\nmodel = zinb\nchains=2  # inline\n")
        assert parse_config(path) == {"iters": "500", "model": "zinb", "chains": "2"}

    def test_parse_config_rejects_bare_lines(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "just-a-word\n")
        with pytest.raises(DataError):
            parse_config(path)

    def test_parse_categorical(self):
        out = _parse_categorical("treatment=none:none|chemo|radio; district=rural")
        assert out == {"treatment": ("none", ("none", "chemo", "radio")),
                       "district": ("rural", None)}
        with pytest.raises(DataError):
            _parse_categorical("nodirective")

    def test_precedence_flag_over_config_over_default(self, tmp_path):
        cfg = _write(tmp_path / "run.cfg", "iters = 700\nburnin = 300\nchains = 2\n"
                                           f"input = {tmp_path}/d.csv\n")
        parser = cli.build_parser()
        args = parser.parse_args(["fit", "--config", cfg, "--iters", "900"])
        _, _, sampler_cfg = cli._fit_settings(args)
        assert sampler_cfg.iterations == 900   # flag wins
        assert sampler_cfg.burn_in == 300      # config wins over default
        assert sampler_cfg.thin == 1           # default

    def test_defaults_are_the_dataclass_defaults(self):
        args = cli.build_parser().parse_args(["fit", "--input", "d.csv"])
        _, spec, sampler_cfg = cli._fit_settings(args)
        assert spec == ModelSpec()
        assert sampler_cfg == SamplerConfig()

    # A value other than the default for every field of both dataclasses.
    FIELD_VALUES = {"variant": "zinb", "alpha0": 0.5, "m0": 1.0, "s0": 5.0, "a0": -1.0,
                    "b0": 3.0, "k_max": 5, "iterations": 600, "burn_in": 300, "thin": 2,
                    "chains": 3, "master_seed": 7, "target_accept": 0.4}

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_every_field_is_a_setting(self, tmp_path, source):
        fields = [f for cls in (ModelSpec, SamplerConfig) for f in dataclasses.fields(cls)]
        assert sorted(f.name for f in fields) == sorted(self.FIELD_VALUES)
        key_of = {field: key for key, field in cli._FIELD_NAMES.items()}
        argv = ["fit", "--input", "d.csv"]
        for f in fields:
            assert self.FIELD_VALUES[f.name] != f.default, f.name
            key = key_of.get(f.name, f.name)
            if source == "flag":
                argv += ["--" + key.replace("_", "-"), str(self.FIELD_VALUES[f.name])]
            else:
                with open(tmp_path / "run.cfg", "a") as fh:
                    fh.write(f"{key} = {self.FIELD_VALUES[f.name]}\n")
        if source == "config":
            argv += ["--config", str(tmp_path / "run.cfg")]
        _, spec, sampler_cfg = cli._fit_settings(cli.build_parser().parse_args(argv))
        assert {**dataclasses.asdict(spec), **dataclasses.asdict(sampler_cfg)} == self.FIELD_VALUES

    @pytest.mark.parametrize("config,categorical,named", [
        ("kmax = 3\nkmax = 5\n", "t=a", ["run.cfg:2:", "'kmax'"]),
        ("", "t=a;t=b", ["'t'"]),
    ], ids=["config-key", "categorical-column"])
    def test_setting_given_twice_exits_before_running(self, tmp_path, monkeypatch, capsys,
                                                      config, categorical, named):
        # The last value once replaced the first without a word.
        cfg = _write(tmp_path / "run.cfg", config)
        path = _write(tmp_path / "d.csv", "y,t\n3,a\n2,b\n")
        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *a, **k: calls.append(a))
        assert run(["fit", "--config", cfg, "--input", path, "--categorical", categorical,
                    "--out", str(tmp_path / "o")]) == EXIT_INPUT and not calls
        assert not os.path.exists(tmp_path / "o")
        err = capsys.readouterr().err
        assert all(part in err for part in named), err

    @pytest.mark.parametrize("command,line", [
        ("fit", "iterations = 50"), ("fit", "burn_in = 10"), ("simulate", "kmax = 3"),
    ])
    def test_unknown_config_key_exits_before_running(self, tmp_path, monkeypatch, capsys,
                                                     command, line):
        # A key outside the command's table was once ignored without a word.
        cfg = _write(tmp_path / "run.cfg", line + "\n")
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "generate_synthetic", lambda *a, **k: calls.append(a))
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "fit":
            argv += ["--input", path]
        assert run(argv) == EXIT_INPUT and not calls
        assert not os.path.exists(tmp_path / "o")
        err = capsys.readouterr().err
        assert repr(line.split(" =")[0]) in err and "valid keys: " in err
        assert ("iters" in err) == (command == "fit")


class TestIngest:
    def test_dummy_coding(self, tmp_path):
        path = _write(tmp_path / "d.csv",
                      "y,age,treatment\n"
                      "3,0.5,none\n"
                      "0,-1.0,chemo\n"
                      "7,0.2,radio\n"
                      "2,1.1,chemo\n")
        data = ingest(path, categorical={"treatment": ("none", None)})
        assert data.column_names == ("intercept", "age", "treatment=chemo",
                                     "treatment=radio")
        np.testing.assert_array_equal(data.X[:, 2], [0, 1, 0, 1])
        np.testing.assert_array_equal(data.X[:, 3], [0, 0, 1, 0])
        np.testing.assert_array_equal(data.categorical_raw["treatment"],
                                      ["none", "chemo", "radio", "chemo"])

    @pytest.mark.parametrize("delim", [",", "\t"], ids=["comma", "tab"])
    def test_byte_order_mark_is_skipped(self, tmp_path, delim):
        # Excel's "CSV UTF-8" format starts the file with one.
        path = tmp_path / "d.csv"
        path.write_bytes(f"\ufeffy{delim}x\n3{delim}1\n2{delim}0\n".encode())
        data = ingest(str(path))
        assert data.column_names == ("intercept", "x")
        np.testing.assert_array_equal(data.y, [3, 2])
        np.testing.assert_array_equal(data.X[:, 1], [1.0, 0.0])

    def test_tab_delimiter(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "y\tx\n4\t0.5\n1\t-0.5\n")
        data = ingest(path)
        assert data.n == 2 and data.column_names == ("intercept", "x")

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            ingest(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,x\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest(path)

    def test_negative_outcome_row_addressed(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n-2,0.2\n")
        with pytest.raises(DataError, match=r"d\.csv:3.*negative"):
            ingest(path)

    def test_non_integer_outcome(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,x\n3.5,0.1\n")
        with pytest.raises(DataError, match=r"d\.csv:2.*not an integer"):
            ingest(path)

    def test_unknown_category(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,t\n3,none\n2,weird\n")
        with pytest.raises(DataError, match="unknown category 'weird'"):
            ingest(path, categorical={"t": ("none", ("none", "chemo"))})

    def test_missing_reference_level(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,t\n3,a\n2,b\n")
        with pytest.raises(DataError, match="reference level"):
            ingest(path, categorical={"t": ("zzz", None)})

    def test_declared_reference_level_absent_from_the_data(self, tmp_path):
        # Once accepted: the dummies t=a and t=b then summed to the intercept
        # column, a design of rank 2 of 3, with no warning.
        path = _write(tmp_path / "d.csv", "y,t\n3,a\n2,b\n1,a\n")
        with pytest.raises(DataError, match="reference level 'none' absent from column 't'"):
            ingest(path, categorical={"t": ("none", ("none", "a", "b"))})

    def test_categorical_outcome_column(self, tmp_path, capsys):
        # The directive was once dropped without a word.
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        with pytest.raises(DataError, match="categorical column 'y' is the outcome column"):
            ingest(path, categorical={"y": ("3", None)})
        assert run(["fit", "--input", path, "--categorical", "y=3",
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT
        assert "categorical column 'y' is the outcome column" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "f")

    def test_path_separator_in_categorical_column(self, tmp_path, capsys):
        # report names a file crosstab_<column>.csv: a column 'site/ward' once
        # let the fit run, and report then failed to open crosstab_site/ward.csv.
        name = f"site{os.sep}ward"
        path = _write(tmp_path / "d.csv", f"y,{name}\n3,north\n2,south\n1,north\n")
        message = f"categorical column {name!r} holds a path separator"
        with pytest.raises(DataError, match=re.escape(message)):
            ingest(path, categorical={name: ("north", None)})
        assert run(["fit", "--input", path, "--categorical", f"{name}=north",
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "f")

    def test_missing_outcome_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "count,x\n3,0.1\n")
        with pytest.raises(DataError, match="outcome column"):
            ingest(path)

    def test_declared_levels(self, tmp_path, caplog):
        # Dummy columns follow the sorted declared levels; radio, declared but
        # absent, gives an all-zero column that only the prior informs.
        path = _write(tmp_path / "d.csv", "y,t\n3,none\n0,chemo\n2,none\n")
        with caplog.at_level("WARNING", logger="countmix"):
            data = ingest(path, categorical={"t": ("none", ("radio", "none", "chemo"))})
        assert data.column_names == ("intercept", "t=chemo", "t=radio")
        np.testing.assert_array_equal(data.X[:, 1:], [[0, 0], [1, 0], [0, 0]])
        np.testing.assert_array_equal(data.categorical_raw["t"], ["none", "chemo", "none"])
        assert [rec.getMessage() for rec in caplog.records] == ["column 't=radio' is constant"]

    def test_constant_column_warns(self, tmp_path, caplog):
        path = _write(tmp_path / "d.csv", "y,x\n3,1.0\n2,1.0\n")
        with caplog.at_level("WARNING", logger="countmix"):
            ingest(path)
        assert any("constant" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_row_addressed(self, tmp_path, cell):
        path = _write(tmp_path / "d.csv", f"y,x\n3,0.1\n2,{cell}\n")
        with pytest.raises(DataError, match=rf"d\.csv:3: non-finite value '{cell}' in column 'x'"):
            ingest(path)
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT

    @pytest.mark.parametrize("row, message", [("3,abc", "non-numeric value 'abc'"),
                                              ("x,0.1", "outcome 'x' is not an integer")],
                             ids=["covariate", "outcome"])
    def test_row_address_counts_blank_lines(self, tmp_path, row, message):
        path = _write(tmp_path / "d.csv", f"y,x1\n1,0.5\n\n2,0.1\n{row}\n")
        with pytest.raises(DataError, match=rf"d\.csv:5: {message}"):
            ingest(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,x\n3,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            ingest(path)

    @pytest.mark.parametrize("char", ["\r", "\x1b", "\x85"], ids=["cr", "esc", "nel"])
    def test_control_character_in_name(self, tmp_path, capsys, char):
        # A quoted header cell may hold a bare carriage return; the CSV
        # files a fit writes would not carry it intact, so ingest refuses
        # every C0 and C1 control character in a name.
        name = f"a{char}b"
        path = _write(tmp_path / "d.csv", f'y,"{name}"\n3,0.1\n2,0.2\n')
        with pytest.raises(DataError, match=re.escape(f"column name {name!r} holds a control")):
            ingest(path)
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT
        assert repr(name) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "f")

    def test_control_character_in_category_level(self, tmp_path):
        path = _write(tmp_path / "d.csv", 'y,site\n3,north\n2,"a\rb"\n')
        with pytest.raises(DataError, match=re.escape("column name 'site=a\\rb'")):
            ingest(path, categorical={"site": ("north", None)})

    def test_control_character_in_reference_level(self, tmp_path, capsys):
        # The reference level names no dummy column, but assignments.csv
        # holds it, and report could not read a bare carriage return back.
        path = _write(tmp_path / "d.csv", "y,site\n" + '3,north\n2,"a\rb"\n' * 4)
        message = f"{path}: reference level 'a\\rb' of column 'site' holds a control character"
        with pytest.raises(DataError, match=re.escape(message)):
            ingest(path, categorical={"site": ("a\rb", None)})
        capsys.readouterr()
        assert run(["fit", "--input", path, "--categorical", "site=a\rb",
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "f")

    @pytest.mark.parametrize("header,message", [
        ("y,y", "duplicate column name 'y'"),
        ("y,x,x", "duplicate column name 'x'"),
        ("y,intercept", "duplicate column name 'intercept'"),
        ("y,,x", "column 2 has an empty name"),
    ], ids=["outcome", "covariate", "intercept", "empty"])
    def test_duplicate_or_empty_name(self, tmp_path, capsys, header, message):
        # Before, these raised KeyError, failed in numpy, or fitted two
        # "intercept" rows per component into irr_forest.csv.
        width = header.count(",") + 1
        path = _write(tmp_path / "d.csv", header + "\n"
                      + "".join(f"{i}" + ",0.5" * (width - 1) + "\n" for i in (3, 2, 5)))
        with pytest.raises(DataError, match=re.escape(message)):
            ingest(path)
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "f")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_malformed_input_is_a_data_error(self, tmp_path_factory, data):
        # Duplicate or empty names, ragged rows, bad outcomes and cells:
        # ingest returns a Dataset or raises DataError, never anything else.
        name = st.sampled_from(["y", "x", "t", "intercept", "", " ", "t=b"])
        cell = st.sampled_from(["0", "3", " 4 ", "-1", "2.5", "nan", "inf", "-inf", "1e400",
                                "oops", "", "a", "b"]) | st.integers(-3, 10 ** 20).map(str)
        header = data.draw(st.lists(name, min_size=1, max_size=4))
        rows = data.draw(st.lists(st.lists(cell, min_size=max(len(header) - 1, 0),
                                           max_size=len(header) + 1), max_size=5))
        categorical = data.draw(st.sampled_from([{}, {"t": ("a", None)},
                                                 {"t": ("a", ("a", "b"))}]))
        path = tmp_path_factory.mktemp("bad") / "d.csv"
        _write(path, "".join(",".join(line) + "\n" for line in [header] + rows))
        try:
            result = ingest(str(path), categorical=categorical)
        except DataError:
            return
        assert isinstance(result, Dataset)

    def test_round_trip(self, tmp_path):
        data, _ = generate_synthetic(
            [0.5, 0.5], [[1.0, 0.2, -0.1], [2.0, -0.3, 0.4]], [2.0, 5.0], 80,
            [CovariateColumn("x1", "normal"), CovariateColumn("b1", "binary")],
            seed=17)
        path = tmp_path / "export.csv"
        export_dataset(data, str(path))
        again = ingest(str(path))
        np.testing.assert_array_equal(again.y, data.y)
        np.testing.assert_array_equal(again.X, data.X)
        assert again.column_names == data.column_names

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip_any_names(self, tmp_path_factory, data):
        name = st.text(st.sampled_from('ab ,"=\'é') | st.characters(
            blacklist_categories=("Cc", "Cs")), min_size=1, max_size=8).filter(
            lambda s: s == s.strip() and s != "y")
        names = data.draw(st.lists(name, min_size=1, max_size=4, unique=True))
        n = data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        X = np.array(data.draw(st.lists(st.lists(finite, min_size=len(names),
                                                 max_size=len(names)),
                                        min_size=n, max_size=n)))
        y = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        dataset = Dataset(y, np.column_stack([np.ones(n), X]), ["intercept"] + names)
        path = str(tmp_path_factory.mktemp("rt") / "export.csv")
        export_dataset(dataset, path)
        again = ingest(path)
        np.testing.assert_array_equal(again.y, dataset.y)
        np.testing.assert_array_equal(again.X, dataset.X)
        assert again.column_names == dataset.column_names


class TestTraceIO:
    def _trace(self, zinb=False):
        gen = np.random.default_rng(2)
        s, k, d = 25, 3, 2
        from countmix.sampler import Trace
        return Trace(
            c=gen.dirichlet(np.ones(k), size=s),
            beta=gen.normal(0, 1, size=(s, k, d)),
            psi=np.exp(gen.normal(0, 1, size=(s, k))),
            counts=None,
            pi=gen.uniform(0, 1, size=(s, k)) if zinb else None,
            column_names=("intercept", "x1"),
        )

    @pytest.mark.parametrize("zinb", [False, True])
    def test_round_trip_lossless(self, tmp_path, zinb):
        trace = self._trace(zinb)
        path = str(tmp_path / "chain_0.csv")
        traceio.save_trace(trace, path)
        arrays, cols = traceio.load_trace(path)
        assert cols == trace.column_names
        np.testing.assert_array_equal(arrays["c"], trace.c)
        np.testing.assert_array_equal(arrays["beta"], trace.beta)
        np.testing.assert_array_equal(arrays["psi"], trace.psi)
        if zinb:
            np.testing.assert_array_equal(arrays["pi"], trace.pi)
        else:
            assert arrays["pi"] is None

    @pytest.mark.parametrize("name,index,value", [
        ("c", (0, 1), 1.5), ("c", (3, 0), -0.1), ("pi", (2, 2), 1.0001),
        ("pi", (0, 0), np.nan), ("psi", (1, 0), 0.0), ("beta", (4, 1, 0), -np.inf),
    ], ids=["c-above-1", "c-negative", "pi-above-1", "pi-nan", "psi-zero", "beta-inf"])
    def test_a_value_no_fit_stores_is_a_data_error(self, tmp_path, name, index, value):
        trace = self._trace(zinb=True)
        getattr(trace, name)[index] = value
        path = str(tmp_path / "chain_0.csv")
        traceio.save_trace(trace, path)
        with pytest.raises(DataError, match=r"chain_0\.csv: a value is non-finite"):
            traceio.load_trace(path)

    def test_weights_off_1_beyond_rounding_are_a_data_error(self, tmp_path):
        # Every c[j] stays in [0, 1]; only state 4's sum moves off 1.
        path = str(tmp_path / "chain_0.csv")
        trace = self._trace()
        trace.c[4] *= 1.0 + 1e-12
        traceio.save_trace(trace, path)
        traceio.load_trace(path)
        trace.c[4] *= 0.9
        traceio.save_trace(trace, path)
        with pytest.raises(DataError, match=r"chain_0\.csv: the c\[j\] of state 4 sum to 0\.9"):
            traceio.load_trace(path)

    def test_header_without_rows_is_a_data_error(self, tmp_path):
        # numpy once warned "input contained no data", and the message then
        # read "1 values per row".
        path = str(tmp_path / "chain_0.csv")
        traceio.save_trace(self._trace(), path)
        with open(path) as fh:
            header = fh.readline()
        _write(path, header)
        with pytest.raises(DataError, match=r"chain_0\.csv holds no stored states"):
            traceio.load_trace(path)

    def test_checksums(self, tmp_path):
        trace = self._trace()
        traceio.save_trace(trace, str(tmp_path / "chain_0.csv"))
        traceio.write_checksums(str(tmp_path), ["chain_0.csv"])
        assert traceio.verify_checksums(str(tmp_path)) == {"chain_0.csv"}
        with open(tmp_path / "chain_0.csv", "a") as fh:
            fh.write("tampered\n")
        with pytest.raises(DataError, match="chain_0.csv"):
            traceio.verify_checksums(str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            traceio.verify_checksums(str(tmp_path))

    def test_manifest_line_without_separator(self, tmp_path):
        traceio.save_trace(self._trace(), str(tmp_path / "chain_0.csv"))
        traceio.write_checksums(str(tmp_path), ["chain_0.csv"])
        manifest = tmp_path / traceio.CHECKSUM_FILE
        manifest.write_text(manifest.read_text().replace("  ", " "))
        with pytest.raises(DataError, match=r"checksums\.txt:1: expected"):
            traceio.verify_checksums(str(tmp_path))


SMALL_PARAMS = {
    "weights": [0.4, 0.6],
    "beta": [[0.7, 0.3], [3.9, -0.3]],
    "psi": [50.0, 50.0],
    "covariates": [["x1", "normal"]],
    "n": 2000,
    "seed": 30,
}

FIT_FLAGS = ["--kmax", "4", "--iters", "800", "--burnin", "400",
             "--chains", "2", "--seed", "3"]


@pytest.fixture(scope="module")
def small_fit(tmp_path_factory):
    """simulate -> fit on a small well-separated instance, shared per module."""
    root = tmp_path_factory.mktemp("cli_fit")
    params = _write(root / "params.json", json.dumps(SMALL_PARAMS))
    sim_dir = str(root / "sim")
    assert run(["simulate", "--params", params, "--out", sim_dir]) == EXIT_OK
    fit_dir = str(root / "fit")
    code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                "--out", fit_dir] + FIT_FLAGS)
    assert code == EXIT_OK
    return sim_dir, fit_dir


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        params = _write(tmp_path / "p.json", json.dumps(SMALL_PARAMS))
        for d in ("a", "b"):
            assert run(["simulate", "--params", params,
                        "--out", str(tmp_path / d)]) == EXIT_OK
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a == b

    def test_truth_file_written(self, tmp_path):
        params = _write(tmp_path / "p.json", json.dumps(SMALL_PARAMS))
        assert run(["simulate", "--params", params,
                    "--out", str(tmp_path / "s")]) == EXIT_OK
        truth = json.loads((tmp_path / "s" / "truth.json").read_text())
        assert len(truth["z"]) == SMALL_PARAMS["n"]
        assert truth["weights"] == SMALL_PARAMS["weights"]

    def test_bad_weights_exit_code(self, tmp_path):
        bad = dict(SMALL_PARAMS, weights=[0.5, 0.6])
        params = _write(tmp_path / "p.json", json.dumps(bad))
        assert run(["simulate", "--params", params,
                    "--out", str(tmp_path / "s")]) == EXIT_INPUT

    @pytest.mark.parametrize("missing", [None, "weights", "beta", "psi", "covariates"])
    def test_malformed_params_exit_code(self, tmp_path, capsys, missing):
        # A params file that is not an object, or lacks a field the generator
        # needs, is an input error that names what is wrong.
        params = (list(SMALL_PARAMS.values()) if missing is None
                  else {k: v for k, v in SMALL_PARAMS.items() if k != missing})
        path = _write(tmp_path / "p.json", json.dumps(params))
        capsys.readouterr()
        assert run(["simulate", "--params", path, "--out", str(tmp_path / "s")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"no {missing!r} field" if missing else "must hold a JSON object") in err

    @pytest.mark.parametrize("field, value, named", [
        ("covariates", [5], "'covariates' entry 0"),
        ("covariates", [["x1"]], "'covariates' entry 0"),
        ("covariates", [["x1", "binary", [1]]], "'covariates' entry 0"),
        ("n", [5], "field 'n'"),
        ("seed", 1.5, "field 'seed'"),
        ("psi", [50.0], "psi must hold one value per component"),
        ("pi", [0.1], "pi must hold one value in [0, 1] per component"),
    ], ids=["not-a-list", "no-kind", "list-param", "n-list", "seed-float",
            "short-psi", "short-pi"])
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, value, named):
        # A field of the wrong type or length is an input error that names
        # the field, or the covariates entry, not a traceback.
        path = _write(tmp_path / "p.json", json.dumps(dict(SMALL_PARAMS, **{field: value})))
        capsys.readouterr()
        assert run(["simulate", "--params", path, "--out", str(tmp_path / "s")]) == EXIT_INPUT
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"weights": {"a": 1}}, "field 'weights'"),
        ({"beta": [1.0, 0.5]}, "field 'beta'"),
        ({"beta": [[0.7, 0.3], [3.9]]}, "field 'beta'"),
        ({"beta": [[float("nan"), 0.3], [3.9, -0.3]]}, "field 'beta'"),
        ({"psi": [5, "a"]}, "field 'psi'"),
        ({"weights": [True, False], "psi": [5, "5"]}, "field 'weights'"),
        ({"covariates": [["y", "normal"]]}, "duplicate column name 'y'"),
        ({"covariates": [["a\rb", "normal"]]}, "column name 'a\\rb' holds a control"),
        ({"covariates": [["x1", "binary", 1.5]]}, "binary covariate 'x1'"),
        ({"psi": [5, -1]}, "psi must hold one value per component (2), each > 0"),
        ({"weights": [0.5, 0.25, 0.25]}, "weights must hold one value per component (2)"),
        ({"seed": -3}, "seed must be >= 0, not -3"),
    ], ids=["weights-object", "beta-flat", "beta-ragged", "beta-nan", "psi-str",
            "bools", "covariate-named-y", "covariate-cr", "binary-p", "psi-negative",
            "weights-long", "seed-negative"])
    def test_rejected_params_write_nothing(self, tmp_path, capsys, fields, named):
        # Every params fault exits 2 with a message naming the field, the entry
        # or the column, before --out is made; a data.csv that fit would then
        # refuse is never written.
        path = _write(tmp_path / "p.json", json.dumps(dict(SMALL_PARAMS, **fields)))
        capsys.readouterr()
        assert run(["simulate", "--params", path, "--out", str(tmp_path / "s")]) == EXIT_INPUT
        assert named in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "s")

    @pytest.mark.parametrize("case", ["config-missing", "params-missing", "params-not-json",
                                      "params-too-deep", "seed-negative"])
    def test_rejected_input_exit_code(self, tmp_path, capsys, case):
        # json.load recurses once per level, so deep nesting exhausts the stack.
        params = _write(tmp_path / "p.json", {
            "params-not-json": "{\"weights\": [0.4,",
            "params-too-deep": "[" * 200000 + "]" * 200000,
        }.get(case, json.dumps(SMALL_PARAMS)))
        missing = str(tmp_path / "nope")
        flags, named = {
            "config-missing": (["--params", params, "--config", missing], missing),
            "params-missing": (["--params", missing], missing),
            "params-not-json": (["--params", params], params),
            "params-too-deep": (["--params", params], params),
            "seed-negative": (["--params", params, "--seed", "-3"], "seed must be >= 0, not -3"),
        }[case]
        capsys.readouterr()
        assert run(["simulate", "--out", str(tmp_path / "s")] + flags) == EXIT_INPUT
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "s")

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        # simulate --n 1000000000000 asks numpy for 36.4 TiB; the draw is
        # faked here, since a real attempt may fill the memory of the host.
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 36.4 TiB for an array")

        monkeypatch.setattr(cli, "generate_synthetic", too_big)
        capsys.readouterr()
        assert run(["simulate", "--n", "1000000000000", "--out", str(tmp_path / "s")]) == EXIT_INPUT
        assert "Unable to allocate 36.4 TiB" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "s")

    def test_n_zero_exit_code(self, tmp_path):
        params = _write(tmp_path / "p.json", json.dumps(SMALL_PARAMS))
        assert run(["simulate", "--params", params, "--n", "0",
                    "--out", str(tmp_path / "s")]) == EXIT_INPUT


class TestFit:
    def test_outputs_present(self, small_fit):
        _, fit_dir = small_fit
        for name in ["summary.txt", "prevalence.csv", "irr_forest.csv",
                     "pmf_curves.csv", "assignments.csv", "run_meta.json",
                     "chain_0.csv", "chain_1.csv", "checksums.txt"]:
            assert os.path.exists(os.path.join(fit_dir, name)), name

    def test_manifest_lists_what_report_reads(self, small_fit):
        _, fit_dir = small_fit
        assert traceio.verify_checksums(fit_dir) == {
            "assignments.csv", "chain_0.csv", "chain_1.csv", "run_meta.json"}

    def test_two_occupied_components(self, small_fit):
        _, fit_dir = small_fit
        meta = json.loads(open(os.path.join(fit_dir, "run_meta.json")).read())
        assert len(meta["occupied"]) == 2
        summary = open(os.path.join(fit_dir, "summary.txt")).read()
        assert "occupied components: 2" in summary

    def test_run_meta_records_every_field(self, small_fit):
        _, fit_dir = small_fit
        meta = json.loads(open(os.path.join(fit_dir, "run_meta.json")).read())
        args = cli.build_parser().parse_args(["fit", "--input", "d.csv"] + FIT_FLAGS)
        _, spec, sampler_cfg = cli._fit_settings(args)
        assert meta["model"] == dataclasses.asdict(spec)
        assert meta["sampler"] == dataclasses.asdict(sampler_cfg)
        # The variant and k_max are recorded once, under model.
        assert not {"variant", "k_max"} & set(meta)

    def test_emitted_tables_reparse(self, small_fit):
        _, fit_dir = small_fit
        for name in ["prevalence.csv", "irr_forest.csv", "pmf_curves.csv"]:
            for row in read_csv_table(os.path.join(fit_dir, name)):
                for key, value in row.items():
                    if key not in ("component", "covariate", "occupied",
                                   "excludes_one", "y"):
                        float(value)  # full-precision repr parses losslessly

    def test_missing_input_exit_code(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT

    def test_negative_count_exit_code(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n-1,0.2\n")
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT

    def test_unknown_category_exit_code(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,t\n3,none\n2,weird\n")
        assert run(["fit", "--input", path, "--categorical", "t=none:none|chemo",
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_INPUT

    def test_sampler_failure_exit_code(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")

        def boom(*args, **kwargs):
            raise SamplerError("numeric fault in chain 0")

        monkeypatch.setattr(cli, "run_chains", boom)
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_SAMPLER

    @pytest.mark.parametrize("flags,samples", [
        (["--iters", "30", "--burnin", "22", "--chains", "2"], False),
        (["--iters", "29", "--burnin", "10", "--chains", "1"], False),
        (["--iters", "1000", "--burnin", "100", "--thin", "300", "--chains", "8"], False),
        (["--iters", "32", "--burnin", "22", "--chains", "2"], True),
        (["--iters", "24", "--burnin", "20", "--chains", "5"], True),
    ], ids=["16-pooled", "19-pooled-one-chain", "3-per-chain", "20-pooled", "4-per-chain"])
    def test_too_short_fit_exits_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                 flags, samples):
        # At least 20 pooled stored states (HPD intervals) and, with two or
        # more chains, 4 per chain (R-hat); a shorter fit must not sample.
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            raise SamplerError("stopped before sampling")

        monkeypatch.setattr(cli, "run_chains", record)
        code = run(["fit", "--input", path, "--out", str(tmp_path / "f")] + flags)
        if samples:
            assert code == EXIT_SAMPLER and len(calls) == 1
        else:
            assert code == EXIT_INPUT and not calls
            assert "at least 20 in all" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--s0", "nan"), ("--m0", "inf"), ("--b0", "inf"), ("--alpha0", "nan"), ("--a0", "-inf"),
        ("--rhat-threshold", "nan"), ("--rhat-threshold", "inf"),
        ("--occupancy-threshold", "nan"), ("--occupancy-threshold", "1.5"),
        ("--occupancy-threshold", "-0.1"),
    ])
    def test_non_finite_setting_exits_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                      flag, value):
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args, **kwargs: calls.append(args))
        capsys.readouterr()
        code = run(["fit", "--input", path, "--out", str(tmp_path / "f")] + FIT_FLAGS
                   + [f"{flag}={value}"])
        assert code == EXIT_INPUT and not calls
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_negative_seed_exits_before_reading_the_input(self, tmp_path, monkeypatch, capsys):
        # The seed once reached numpy only in the forked chain workers.
        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        calls = []
        monkeypatch.setattr(cli, "ingest", lambda *args: calls.append(args))
        capsys.readouterr()
        assert run(["fit", "--input", path, "--out", str(tmp_path / "f")] + FIT_FLAGS
                   + ["--seed", "-3"]) == EXIT_INPUT and not calls
        assert "master_seed >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("case, named", [
        ("kmax = ten", "config key kmax: cannot parse 'ten'"),
        ("model = poisson", "config key model: 'poisson' is not one of ('nb', 'zinb')"),
        ("huge-outcome", "d.csv:3: outcome 9223372036854775808 is too large"),
        ("no-input", "fit requires --input"),
    ])
    def test_rejected_setting_or_input_exit_code(self, tmp_path, capsys, case, named):
        path = _write(tmp_path / "d.csv", f"y,x\n3,0.1\n{2 ** 63},0.2\n" if case == "huge-outcome"
                      else "y,x\n3,0.1\n2,0.2\n")
        # FIT_FLAGS less --kmax: a flag would keep the config value unread.
        argv = ["fit", "--out", str(tmp_path / "f")] + FIT_FLAGS[2:]
        if case != "no-input":
            argv += ["--input", path]
        if "=" in case:
            argv += ["--config", _write(tmp_path / "run.cfg", case + "\n")]
        capsys.readouterr()
        assert run(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "f")

    def test_crashed_worker_exit_code(self, tmp_path, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from countmix import sampler

        path = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")

        class CrashingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                raise BrokenProcessPool("a worker was killed")

        monkeypatch.setattr(sampler, "ProcessPoolExecutor", CrashingPool)
        assert run(["fit", "--input", path,
                    "--out", str(tmp_path / "f")] + FIT_FLAGS) == EXIT_SAMPLER

    def test_convergence_failure_exit_code(self, small_fit, tmp_path):
        sim_dir, _ = small_fit
        # An unattainable threshold forces the convergence exit path.
        code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                    "--out", str(tmp_path / "f"), "--rhat-threshold", "1.0"]
                   + FIT_FLAGS)
        assert code == EXIT_CONVERGENCE

    def test_infinite_rhat_is_null_in_run_meta(self, small_fit, tmp_path, monkeypatch, capsys):
        # Chains stuck on distinct constants have within-chain variance 0.
        sim_dir, _ = small_fit
        monkeypatch.setattr(cli, "rhat", lambda x: np.full(np.shape(x)[2:], np.inf))
        out = tmp_path / "f"
        code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                    "--out", str(out)] + FIT_FLAGS)
        assert code == EXIT_CONVERGENCE
        assert "R-hat inf" in capsys.readouterr().err

        def reject(constant):
            raise AssertionError(f"run_meta.json holds {constant}")

        meta = json.loads((out / "run_meta.json").read_text(), parse_constant=reject)
        assert meta["rhat"] and all(v is None for v in meta["rhat"].values())

    def test_degenerate_fit_exit_code(self, small_fit, tmp_path, capsys):
        sim_dir, _ = small_fit
        code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                    "--out", str(tmp_path / "f"), "--occupancy-threshold", "0.99"]
                   + FIT_FLAGS)
        assert code == EXIT_INPUT
        assert "no component clears the occupancy threshold" in capsys.readouterr().err

    def test_single_chain_warns(self, small_fit, tmp_path, caplog):
        sim_dir, _ = small_fit
        flags = ["--kmax", "3", "--iters", "300", "--burnin", "150",
                 "--chains", "1", "--seed", "3"]
        with caplog.at_level("WARNING", logger="countmix"):
            code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                        "--out", str(tmp_path / "f1")] + flags)
        assert code == EXIT_OK
        assert any("single chain" in rec.message for rec in caplog.records)
        summary = open(tmp_path / "f1" / "summary.txt").read()
        assert "R-hat unavailable" in summary


class TestReport:
    def test_report_runs_and_tables_round_trip(self, small_fit, tmp_path):
        _, fit_dir = small_fit
        out = str(tmp_path / "rep")
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_OK
        irr = read_csv_table(os.path.join(out, "irr_table.csv"))
        assert irr
        for row in irr:
            assert float(row["hpdi_lo"]) <= float(row["mean"]) * 1.5
            reparsed = repr(float(row["mean"]))
            assert reparsed == row["mean"]
        pmf = read_csv_table(os.path.join(out, "pmf_table.csv"))
        by_comp = {}
        for row in pmf:
            by_comp.setdefault(row["component"], 0.0)
            by_comp[row["component"]] += float(row["probability"])
        # The pmf grid stops at y_max + 50; only far-tail mass is missing.
        for total in by_comp.values():
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_crosstab_shares_sum_to_100(self, tmp_path):
        # A fit with a declared categorical column produces cross-tabs.
        gen = np.random.default_rng(14)
        n = 300
        levels = gen.choice(["none", "chemo", "radio"], size=n)
        y = np.where(gen.random(n) < 0.5, gen.poisson(2.0, n), gen.poisson(30.0, n))
        lines = ["y,treatment"] + [f"{y[i]},{levels[i]}" for i in range(n)]
        path = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        fit_dir = str(tmp_path / "fit")
        code = run(["fit", "--input", path, "--categorical", "treatment=none",
                    "--out", fit_dir, "--kmax", "3", "--iters", "600",
                    "--burnin", "300", "--chains", "2", "--seed", "5"])
        assert code in (EXIT_OK, EXIT_CONVERGENCE)
        out = str(tmp_path / "rep")
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_OK
        rows = read_csv_table(os.path.join(out, "crosstab_treatment.csv"))
        assert rows
        totals = []
        for row in rows:
            totals.append(sum(float(v) for k, v in row.items() if k != "component"))
        # Components with no hard-assigned rows report zero shares.
        assert any(t == pytest.approx(100.0, abs=1e-9) for t in totals)
        for t in totals:
            assert t == pytest.approx(100.0, abs=1e-9) or t == 0.0

    @pytest.mark.parametrize("name", ["row", "component"])
    def test_crosstab_of_a_column_named_like_the_assignment_columns(self, tmp_path, name):
        gen = np.random.default_rng(15)
        n = 200
        levels = gen.choice(["a", "b"], size=n)
        y = np.where(gen.random(n) < 0.5, gen.poisson(2.0, n), gen.poisson(30.0, n))
        lines = [f"y,{name}"] + [f"{y[i]},{levels[i]}" for i in range(n)]
        path = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        fit_dir, out = str(tmp_path / "fit"), str(tmp_path / "rep")
        code = run(["fit", "--input", path, "--categorical", f"{name}=a",
                    "--out", fit_dir, "--kmax", "3", "--iters", "200",
                    "--burnin", "100", "--chains", "2", "--seed", "5"])
        assert code in (EXIT_OK, EXIT_CONVERGENCE)
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_OK
        rows = read_csv_table(os.path.join(out, f"crosstab_{name}.csv"))
        assert rows and all(set(row) == {"component", "a", "b"} for row in rows)
        assert any(float(row["a"]) + float(row["b"]) == pytest.approx(100.0) for row in rows)

    @pytest.mark.parametrize("model", ["nb", "zinb"])
    def test_tables_equal_the_fits(self, tmp_path, model):
        # Eleven chains: chain_10 must be pooled after chain_9, as in the fit.
        sim_dir, fit_dir, out = (str(tmp_path / d) for d in ("sim", "fit", "rep"))
        assert run(["simulate", "--model", model, "--n", "400", "--seed", "8",
                    "--out", sim_dir]) == EXIT_OK
        code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"), "--model", model,
                    "--kmax", "3", "--iters", "120", "--burnin", "60", "--chains", "11",
                    "--seed", "4", "--out", fit_dir])
        assert code in (EXIT_OK, EXIT_CONVERGENCE)
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_OK
        for fit_name, report_name in zip(cli.FIT_TABLES, cli.REPORT_TABLES):
            with open(os.path.join(fit_dir, fit_name), "rb") as a, \
                    open(os.path.join(out, report_name), "rb") as b:
                assert a.read() == b.read(), report_name

    def test_missing_chain_file_exit_code(self, small_fit, tmp_path):
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        os.remove(os.path.join(broken, "chain_1.csv"))
        with open(os.path.join(broken, traceio.CHECKSUM_FILE)) as fh:
            kept = [line for line in fh if not line.endswith("chain_1.csv\n")]
        with open(os.path.join(broken, traceio.CHECKSUM_FILE), "w") as fh:
            fh.writelines(kept)
        assert run(["report", "--traces", broken]) == EXIT_INPUT

    def test_edited_assignments_exit_code(self, tmp_path, capsys):
        # Every component-0 row moved to component 1 once gave exit 0 and a
        # crosstab_site.csv whose component-0 shares read 0.0.
        fit_dir, out = _categorical_fit(tmp_path), str(tmp_path / "rep")
        path = os.path.join(fit_dir, "assignments.csv")
        with open(path) as fh:
            lines = fh.readlines()
        moved = [re.sub(r"^(\d+),0,", r"\1,1,", line) for line in lines]
        assert moved != lines
        _write(path, "".join(moved))
        capsys.readouterr()
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_INPUT
        assert "checksum mismatch for assignments.csv" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_covariate_names_come_from_the_chain_headers(self, small_fit, tmp_path, capsys):
        # Renamed covariates in run_meta.json once reached irr_table.csv.
        _, fit_dir = small_fit
        edited, out = str(tmp_path / "edited"), str(tmp_path / "rep")
        shutil.copytree(fit_dir, edited)
        meta_path = os.path.join(edited, "run_meta.json")
        meta = json.loads(open(meta_path).read())
        meta["column_names"] = ["a", "b"]
        _write(meta_path, json.dumps(meta))
        capsys.readouterr()
        assert run(["report", "--traces", edited, "--out", out]) == EXIT_INPUT
        assert "checksum mismatch for run_meta.json" in capsys.readouterr().err
        _rewrite_manifest(edited)
        assert run(["report", "--traces", edited, "--out", out]) == EXIT_OK
        with open(os.path.join(fit_dir, "irr_forest.csv"), "rb") as a, \
                open(os.path.join(out, "irr_table.csv"), "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("change", ["covariates", "components", "model"])
    def test_chain_header_unlike_chain_0s_exit_code(self, small_fit, tmp_path, capsys, change):
        # chain_1.csv from a fit of another shape, under a rewritten manifest;
        # numpy once refused it with a message that named no file.
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        path = os.path.join(broken, "chain_1.csv")
        arrays, columns = traceio.load_trace(path)
        k = arrays["c"].shape[1] - (change == "components")
        d = len(columns) - (change == "covariates")
        c = arrays["c"][:, :k] / arrays["c"][:, :k].sum(axis=1, keepdims=True)  # a fit's sum to 1
        traceio.save_trace(Trace(
            c=c, beta=arrays["beta"][:, :k, :d], psi=arrays["psi"][:, :k],
            counts=None, pi=arrays["c"][:, :k] if change == "model" else None,
            column_names=columns[:d]), path)
        _rewrite_manifest(broken)
        capsys.readouterr()
        assert run(["report", "--traces", broken]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "the header of chain_1.csv differs from that of chain_0.csv" in err

    @pytest.mark.parametrize("kept", [10, 0])
    def test_chain_with_other_state_count_exit_code(self, small_fit, tmp_path, capsys, kept):
        # chain_1.csv cut to 10 states once gave exit 0 and a prevalence
        # table no fit made; cut to its header, numpy warned on stderr.
        _, fit_dir = small_fit
        broken, out = str(tmp_path / "broken"), str(tmp_path / "rep")
        shutil.copytree(fit_dir, broken)
        path = os.path.join(broken, "chain_1.csv")
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:1 + kept])
        _rewrite_manifest(broken)
        capsys.readouterr()
        assert run(["report", "--traces", broken, "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        states = len(lines) - 1
        assert err.strip().endswith(f"chain_1.csv holds {kept} states, chain_0.csv {states}"
                                    if kept else "chain_1.csv holds no stored states")
        assert "Warning" not in err and not os.path.exists(out)

    @pytest.mark.parametrize("name", ["assignments.csv", "run_meta.json", "chain_1.csv"])
    def test_listed_file_missing_exit_code(self, small_fit, tmp_path, capsys, name):
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        os.remove(os.path.join(broken, name))
        capsys.readouterr()
        assert run(["report", "--traces", broken]) == EXIT_INPUT
        assert f"missing file {name}, listed in" in capsys.readouterr().err

    def test_manifest_of_a_fit_from_before_it_listed_every_input(self, small_fit, tmp_path,
                                                                 capsys):
        # Such a manifest lists the chain files alone; the fit must be re-run.
        _, fit_dir = small_fit
        old = str(tmp_path / "old")
        shutil.copytree(fit_dir, old)
        traceio.write_checksums(old, ["chain_0.csv", "chain_1.csv"])
        capsys.readouterr()
        assert run(["report", "--traces", old]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "run_meta.json is not listed in" in err and "re-run the fit" in err

    def test_degenerate_fit_exit_code(self, small_fit, tmp_path):
        _, fit_dir = small_fit
        edited = str(tmp_path / "edited")
        shutil.copytree(fit_dir, edited)
        meta_path = os.path.join(edited, "run_meta.json")
        meta = json.loads(open(meta_path).read())
        meta["occupancy_threshold"] = 0.99
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        _rewrite_manifest(edited)
        assert run(["report", "--traces", edited]) == EXIT_INPUT

    @pytest.mark.parametrize("key", [None, "sampler.chains", "y_max", "reference_x",
                                     "occupancy_threshold"])
    def test_malformed_meta_exit_code(self, small_fit, tmp_path, capsys, key):
        _, fit_dir = small_fit
        edited = str(tmp_path / "edited")
        shutil.copytree(fit_dir, edited)
        meta_path = os.path.join(edited, "run_meta.json")
        meta = json.loads(open(meta_path).read())
        if key is None:
            meta = [1, 2]                   # valid JSON, but not an object
        else:
            del (meta["sampler"] if key == "sampler.chains" else meta)[key.split(".")[-1]]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        _rewrite_manifest(edited)
        capsys.readouterr()
        assert run(["report", "--traces", edited]) == EXIT_INPUT
        assert repr(key or "sampler.chains") in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("sampler.chains", "3"), ("sampler.chains", 0), ("sampler.chains", True),
        ("y_max", 40.0), ("y_max", -1),
        ("reference_x", [1.0]), ("reference_x", [1.0, "a"]), ("reference_x", [2.0, 0.0]),
        ("occupancy_threshold", None), ("occupancy_threshold", "0.01"),
    ], ids=["chains-str", "chains-0", "chains-bool", "y_max-float", "y_max-negative",
            "reference_x-short", "reference_x-str", "reference_x-intercept",
            "threshold-null", "threshold-str"])
    def test_mistyped_meta_exit_code(self, small_fit, tmp_path, capsys, key, value):
        # A field of the wrong type or shape is named, never computed with.
        _, fit_dir = small_fit
        edited = str(tmp_path / "edited")
        shutil.copytree(fit_dir, edited)
        meta_path = os.path.join(edited, "run_meta.json")
        meta = json.loads(open(meta_path).read())
        (meta["sampler"] if key == "sampler.chains" else meta)[key.split(".")[-1]] = value
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        _rewrite_manifest(edited)
        capsys.readouterr()
        assert run(["report", "--traces", edited]) == EXIT_INPUT
        assert f"field {key!r} must be" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(edited, "pmf_table.csv"))

    @pytest.mark.parametrize("row", ["7,1\n", "7,x,a\n"], ids=["short", "component"])
    def test_malformed_assignments_exit_code(self, tmp_path, capsys, row):
        # A bad row under a rewritten manifest is named by file and line, and
        # nothing is written.
        fit_dir, out = _categorical_fit(tmp_path), str(tmp_path / "rep")
        assign_path = os.path.join(fit_dir, "assignments.csv")
        with open(assign_path) as fh:
            lines = fh.readlines()
        lines[3] = row
        with open(assign_path, "w") as fh:
            fh.writelines(lines)
        _rewrite_manifest(fit_dir)
        capsys.readouterr()
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_INPUT
        assert "assignments.csv:4: expected 3 fields" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_corrupted_trace_exit_code(self, small_fit, tmp_path):
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        with open(os.path.join(broken, "chain_0.csv"), "a") as fh:
            fh.write("tampered\n")
        assert run(["report", "--traces", broken]) == EXIT_INPUT

    @pytest.mark.parametrize("fault", ["header", "ragged", "short"])
    def test_malformed_chain_file_exit_code(self, small_fit, tmp_path, capsys, fault):
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        path = os.path.join(broken, "chain_1.csv")
        with open(path) as fh:
            lines = fh.readlines()
        if fault == "header":
            lines[0] = lines[0].replace("psi[0]", "phi[0]")
        elif fault == "ragged":
            lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        else:
            lines[1:] = [line.rsplit(",", 1)[0] + "\n" for line in lines[1:]]
        with open(path, "w") as fh:
            fh.writelines(lines)
        _rewrite_manifest(broken)
        traceio.verify_checksums(broken)
        capsys.readouterr()
        assert run(["report", "--traces", broken]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "chain_1.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("column,value,states,message", [
        ("psi[0]", "-1.0", "every", "a value is non-finite"),
        ("c[0]", "inf", "one", "a value is non-finite"),
        ("c[1]", "1.5", "one", "a value is non-finite"),
        ("beta[1].intercept", "nan", "one", "a value is non-finite"),
        ("c[0]", "0.9", "every", "the c[j] of state 0 sum to"),
    ], ids=["psi-negative", "c-inf", "c-above-1", "beta-nan", "c-sum-off-1"])
    def test_chain_value_no_fit_stores_exit_code(self, small_fit, tmp_path, capsys,
                                                 column, value, states, message):
        # Under a rewritten manifest these once gave exit 0: a psi[0] of -1
        # in every state wrote nan pmf rows, an inf c an inf prevalence, and
        # a c[0] of 0.9 prevalences that summed to more than 1.
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        path = os.path.join(broken, "chain_0.csv")
        with open(path) as fh:
            lines = fh.readlines()
        j = lines[0].rstrip("\n").split(",").index(column)
        for i in range(1, len(lines) if states == "every" else 2):
            cells = lines[i].rstrip("\n").split(",")
            cells[j] = value
            lines[i] = ",".join(cells) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        _rewrite_manifest(broken)
        capsys.readouterr()
        assert run(["report", "--traces", broken]) == EXIT_INPUT
        assert f"chain_0.csv: {message}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(broken, "pmf_table.csv"))

    def test_names_with_commas_and_quotes(self, tmp_path):
        gen = np.random.default_rng(21)
        n = 300
        site = gen.choice(["north,east", 'o"hare', "south"], size=n)
        dose = gen.normal(size=n)
        y = np.where(gen.random(n) < 0.5, gen.poisson(2.0, n), gen.poisson(30.0, n))
        lines = ["y\tdose,mg\tsite"] + [f"{y[i]}\t{float(dose[i])!r}\t{site[i]}" for i in range(n)]
        path = _write(tmp_path / "d.tsv", "\n".join(lines) + "\n")
        fit_dir, out = str(tmp_path / "fit"), str(tmp_path / "rep")
        code = run(["fit", "--input", path, "--categorical", "site=south",
                    "--out", fit_dir, "--kmax", "3", "--iters", "400",
                    "--burnin", "200", "--chains", "2", "--seed", "5"])
        assert code in (EXIT_OK, EXIT_CONVERGENCE)
        assert run(["report", "--traces", fit_dir, "--out", out]) == EXIT_OK
        expected = {"intercept", "dose,mg", "site=north,east", 'site=o"hare'}
        for table in (os.path.join(fit_dir, "irr_forest.csv"),
                      os.path.join(out, "irr_table.csv")):
            with open(table, newline="") as fh:
                assert {row["covariate"] for row in csv.DictReader(fh)} == expected
        with open(os.path.join(out, "crosstab_site.csv"), newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["component", "north,east", 'o"hare', "south"]
        _, cols = traceio.load_trace(os.path.join(fit_dir, "chain_0.csv"))
        assert cols == ("intercept", "dose,mg", "site=north,east", 'site=o"hare')

    def test_missing_meta_exit_code(self, tmp_path):
        os.makedirs(tmp_path / "empty_dir", exist_ok=True)
        assert run(["report", "--traces", str(tmp_path / "empty_dir")]) == EXIT_INPUT

    def test_deeply_nested_meta_exit_code(self, small_fit, tmp_path, capsys):
        _, fit_dir = small_fit
        edited = str(tmp_path / "edited")
        shutil.copytree(fit_dir, edited)
        meta_path = _write(os.path.join(edited, "run_meta.json"), "[" * 200000 + "]" * 200000)
        _rewrite_manifest(edited)
        capsys.readouterr()
        assert run(["report", "--traces", edited]) == EXIT_INPUT
        assert f"cannot read {meta_path}" in capsys.readouterr().err


class TestFileFaults:
    """A file that cannot be made or read exits 2, names the file and prints no
    traceback.  Inputs are read as UTF-8 whatever the locale."""

    @pytest.mark.parametrize("command", ["simulate", "fit", "report"])
    def test_out_is_a_file(self, small_fit, tmp_path, monkeypatch, capsys, command):
        # Each command once ended in a FileExistsError traceback; fit only
        # after the whole sampling run.
        sim_dir, fit_dir = small_fit
        out = _write(tmp_path / "taken", "")
        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args, **kwargs: calls.append(args))
        argv = {"simulate": ["simulate", "--n", "50"],
                "fit": ["fit", "--input", os.path.join(sim_dir, "data.csv")] + FIT_FLAGS,
                "report": ["report", "--traces", fit_dir]}[command]
        capsys.readouterr()
        assert run(argv + ["--out", out]) == EXIT_INPUT and not calls
        err = capsys.readouterr().err
        assert out in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, content", [
        ("--input", b"y,x\n3,0.\xe9\n2,0.1\n"),
        ("--input", b"y,x\n3," + b"1" * 131073 + b"\n"),
        ("--config", b"iters = 5\xe9\n"),
        ("--params", b'{"weights": "\xe9"}'),
    ], ids=["input-not-utf8", "input-field-limit", "config-not-utf8", "params-not-utf8"])
    def test_unreadable_input(self, tmp_path, capsys, flag, content):
        path = tmp_path / "bad"
        path.write_bytes(content)
        good = _write(tmp_path / "d.csv", "y,x\n3,0.1\n2,0.2\n")
        argv = {"--input": ["fit", "--input", str(path)] + FIT_FLAGS,
                "--config": ["fit", "--input", good, "--config", str(path)] + FIT_FLAGS,
                "--params": ["simulate", "--params", str(path)]}[flag]
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("name, fault", [
        ("run_meta.json", "not-utf8"), ("run_meta.json", "not-json"),
        ("assignments.csv", "not-utf8"), ("assignments.csv", "field-limit"),
        ("chain_1.csv", "not-utf8"), ("chain_1.csv", "field-limit"),
        ("checksums.txt", "not-utf8"),
    ])
    def test_unreadable_fit_file(self, small_fit, tmp_path, capsys, name, fault):
        # Each edit but the manifest's own is made under a regenerated manifest.
        _, fit_dir = small_fit
        broken = str(tmp_path / "broken")
        shutil.copytree(fit_dir, broken)
        path = os.path.join(broken, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        raw = {"not-utf8": raw.replace(b"\n", b"\xe9\n", 1),
               "not-json": b"{1: 2}\n",
               "field-limit": raw.replace(b"\n", b"," + b"1" * 131073 + b"\n", 1)}[fault]
        with open(path, "wb") as fh:
            fh.write(raw)
        if name != traceio.CHECKSUM_FILE:
            _rewrite_manifest(broken)
        capsys.readouterr()
        assert run(["report", "--traces", broken, "--out", str(tmp_path / "rep")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "rep")

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        # Files were once read, and report's stdout is still written, in the
        # locale's encoding: 'ascii' here.
        params = tmp_path / "p.json"
        params.write_bytes(json.dumps(dict(SMALL_PARAMS, covariates=[["âge", "normal"]]),
                                      ensure_ascii=False).encode("utf-8"))
        config = tmp_path / "run.cfg"
        config.write_bytes("# covariate âge\n".encode("utf-8"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        sim_dir, fit_dir = str(tmp_path / "sim"), str(tmp_path / "fit")
        for argv, codes in [
            (["simulate", "--params", str(params), "--n", "200", "--out", sim_dir], (0,)),
            (["fit", "--input", os.path.join(sim_dir, "data.csv"), "--config", str(config),
              "--kmax", "3", "--iters", "60", "--burnin", "30", "--chains", "2",
              "--out", fit_dir], (EXIT_OK, EXIT_CONVERGENCE)),
            # report prints the covariate name; stdout cannot encode it here.
            (["report", "--traces", fit_dir], (EXIT_OK,)),
        ]:
            done = subprocess.run([sys.executable, "-m", "countmix.cli", *argv], env=env,
                                  capture_output=True)
            assert done.returncode in codes, done.stderr
            assert b"Traceback" not in done.stderr
        assert b"\\xe2ge" in done.stdout
        for name in ("irr_forest.csv", "irr_table.csv"):
            with open(os.path.join(fit_dir, name), encoding="utf-8") as fh:
                assert "âge" in fh.read()


def test_cli_import_is_numpy_only():
    code = ("import sys, countmix.cli; "
            "print(sorted({'scipy', 'mpmath', 'pandas'} & "
            "{m.split('.')[0] for m in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
