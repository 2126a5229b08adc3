import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from biasaudit.cli import KEYS, _feature_sets, main, read_config_file, resolve_config
from biasaudit.errors import SchemaError
from biasaudit.gaussmath import log_bingham_constant
from biasaudit.models import ConfoundedModelSpec, JointVector
from biasaudit.seeding import fingerprint
from biasaudit.tabular import CauseSpec, build_design, load_csv, standardize_column

VALID_CSV = (
    "subject_id,dataset,age,sex,diagnosis,vol_a,thick_b\n"
    "s1,A,30,M,control,1.0,2.0\n"
    "s2,A,40,F,control,1.5,2.5\n"
    "s3,A,50,1,scz,2.0,3.0\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestValidate:
    def test_valid_file(self, runner, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(VALID_CSV, encoding="utf-8")
        result = invoke(runner, ["validate", "--input", str(path)])
        assert result.exit_code == 0
        assert "valid rows: 3" in result.output
        assert "A" in result.output

    def test_wrong_header_names_missing_column(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,dataset,age,vol_a\ns1,A,30,1.0\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 2
        assert "sex" in result.output

    def test_unreadable_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--input",
                                      str(tmp_path / "missing.csv")])
        assert result.exit_code != 0

    def test_input_from_config_file(self, runner, tmp_path):
        csv_path = tmp_path / "ok.csv"
        csv_path.write_text(VALID_CSV, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {csv_path}\n", encoding="utf-8")
        result = invoke(runner, ["validate", "--config", str(cfg)])
        assert result.exit_code == 0


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nseed = 7\n\nfamily = mean-field # inline\n",
                       encoding="utf-8")
        values = read_config_file(cfg)
        assert values == {"seed": "7", "family": "mean-field"}

    def test_hash_inside_a_value_is_text(self, runner, tmp_path):
        csv_path = tmp_path / "d#1.csv"
        csv_path.write_text(VALID_CSV, encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"  # a whole-line comment\ninput = {csv_path}\nseed = 3  # note\n",
                       encoding="utf-8")
        assert read_config_file(cfg) == {"input": str(csv_path), "seed": "3"}
        assert resolve_config("score", cfg, {})["seed"] == 3
        assert invoke(runner, ["validate", "--config", str(cfg)]).exit_code == 0

    def test_byte_order_mark_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_iterations = 5\nseed = 7\n", encoding="utf-8-sig")
        assert read_config_file(cfg) == {"max_iterations": "5", "seed": "7"}

    def test_readme_config_section_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file\n", 1)[1].split("\n#", 1)[0]
        assert [key for key in KEYS if f"`{key}`" not in section] == []

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_config_file(cfg)

    def test_flag_overrides_file(self, runner, tmp_path):
        (tmp_path / "out").mkdir()
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "d",
                        "--n", "40", "--m", "1", "--seed", "1"])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"input = {tmp_path / 'd.csv'}\nseed = 3\n"
                       "max_iterations = 400\ntargets = vol_y\n"
                       "causes = vol_x1\n", encoding="utf-8")
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        invoke(runner, ["score", "--config", str(cfg), "--out", str(out1)])
        invoke(runner, ["score", "--config", str(cfg), "--out", str(out2),
                        "--seed", "3"])  # explicit flag equal to file value
        j1 = json.loads((out1 / "scores.json").read_text())
        j2 = json.loads((out2 / "scores.json").read_text())
        assert j1["config"]["seed"] == 3
        assert j1["records"] == j2["records"]


def simulate_and_score(runner, tmp_path, out_name, seed="5", alpha="1.0",
                       extra=()):
    data = tmp_path / "sim.csv"
    if not data.exists():
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim",
                        "--alpha", alpha, "--n", "80", "--seed", "2"])
    out = tmp_path / out_name
    config = tmp_path / "score.cfg"
    if not config.exists():
        config.write_text("max_iterations = 1500\n", encoding="utf-8")
    result = invoke(runner, [
        "score", "--input", str(data), "--out", str(out), "--seed", seed,
        "--causes", "vol_x1,vol_x2,vol_x3", "--targets", "vol_y",
        "--config", str(config), *extra])
    return result, out


class TestScore:
    def test_writes_reports_and_positive_delta(self, runner, tmp_path):
        result, out = simulate_and_score(runner, tmp_path, "run", extra=("--method", "advi"))
        assert result.exit_code == 0
        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "dataset,target,n,L_ca,L_co,delta,delta_per_sample,converged"
        assert len(scores) == 2
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "dataset,mean_delta,sd_delta,n_targets"
        assert float(agg[1].split(",")[1]) > 0  # pure-causal data
        payload = json.loads((out / "scores.json").read_text())
        assert payload["fingerprint"]
        assert payload["records"][0]["diagnostics"]["causal"]["method"] == "advi"

    def test_walkthrough_fit_stops_are_pinned(self, runner, tmp_path, monkeypatch):
        # the iteration counts README's modeling notes and advi.fit quote
        monkeypatch.chdir(tmp_path)
        invoke(runner, ["simulate", "--out", "demo", "--name", "toy", "--alpha", "1.0",
                        "--n", "500", "--seed", "7"])
        stops = {}
        for method in ("closed-form", "advi"):
            result = invoke(runner, ["score", "--input", "demo/toy.csv", "--out", method,
                                     "--seed", "7", "--causes", "vol_x1,vol_x2,vol_x3",
                                     "--targets", "vol_y", "--method", method])
            assert result.exit_code == 0
            (record,) = json.loads(Path(method, "scores.json").read_text())["records"]
            stops[method] = [record["diagnostics"][side]["iterations"]
                             for side in ("causal", "confounded")]
        assert stops == {"closed-form": [0, 0], "advi": [3200, 400]}

    def test_rerun_byte_identical(self, runner, tmp_path):
        _, out1 = simulate_and_score(runner, tmp_path, "rep")
        first = {name: (out1 / name).read_bytes()
                 for name in ("scores.csv", "scores.json", "aggregate.csv")}
        _, out2 = simulate_and_score(runner, tmp_path, "rep")
        for name, blob in first.items():
            assert (out2 / name).read_bytes() == blob

    def test_missing_column_fails_all(self, runner, tmp_path):
        data = tmp_path / "sim.csv"
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim",
                        "--n", "40", "--seed", "2"])
        result = runner.invoke(main, [
            "score", "--input", str(data), "--out", str(tmp_path / "o"),
            "--causes", "vol_x1", "--targets", "no_such"])
        assert result.exit_code == 3

    def test_closed_form_method(self, runner, tmp_path):
        result, out = simulate_and_score(runner, tmp_path, "cf",
                                         extra=("--method", "closed-form"))
        assert result.exit_code == 0
        payload = json.loads((out / "scores.json").read_text())
        assert payload["records"][0]["diagnostics"]["causal"]["method"] == "closed_form"

    def test_partial_failure_exits_zero_with_failure_section(self, runner, tmp_path):
        data = tmp_path / "sim.csv"
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim",
                        "--n", "60", "--seed", "2"])
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("max_iterations = 800\n", encoding="utf-8")
        out = tmp_path / "partial"
        result = runner.invoke(main, [
            "score", "--input", str(data), "--out", str(out),
            "--causes", "vol_x1,vol_x2,vol_x3",
            "--targets", "vol_y,no_such_column", "--config", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads((out / "scores.json").read_text())
        assert len(payload["records"]) == 1
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["target"] == "no_such_column"

    def test_target_whose_sd_overflows_fails_its_own_pair(self, runner, tmp_path):
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim",
                        "--n", "60", "--seed", "2"])
        with open(tmp_path / "sim.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:  # squares of 1e200 overflow, so np.std reads inf
            row["vol_y"] = repr(1e200 * float(row["vol_y"]))
        with open(tmp_path / "big.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, [
                "score", "--input", str(tmp_path / "big.csv"), "--out", str(out),
                "--causes", "vol_x1,vol_x2", "--targets", "vol_x3,vol_y"])
        assert result.exit_code == 0
        payload = json.loads((out / "scores.json").read_text())
        assert [r["target"] for r in payload["records"]] == ["vol_x3"]
        (failure,) = payload["failures"]
        assert failure["target"] == "vol_y"
        assert failure["error"].startswith("DegenerateColumnError: non-finite mean or SD")

    def test_non_finite_code_length_fails_its_pair(self, runner, tmp_path):
        # (x / sigma_x) ** 2 overflows in the cause prior, so L_ca would be inf, delta -inf
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim",
                        "--n", "60", "--seed", "2"])
        (tmp_path / "tiny.cfg").write_text("sigma_x = 1e-200\n", encoding="utf-8")
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "score", "--input", str(tmp_path / "sim.csv"), "--out", str(out),
            "--causes", "vol_x1,vol_x2,vol_x3", "--targets", "vol_y",
            "--config", str(tmp_path / "tiny.cfg")])

        def refuse(constant):
            raise ValueError(f"scores.json holds {constant}, which strict JSON refuses")

        json.loads((out / "scores.json").read_text(), parse_constant=refuse)
        assert result.exit_code == 3
        assert ("failed (sim, vol_y): EstimationError: closed_form code length is inf, "
                "not finite") in result.output

    def test_each_failed_pair_is_reported_once_alike_at_any_job_count(self, runner, tmp_path):
        invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets", "3", "--n", "30",
                        "--out", str(tmp_path), "--name", "multi", "--seed", "1"])
        with open(tmp_path / "multi.csv", "a", encoding="utf-8") as fh:
            # a dataset too small to score any target, and one rejected row
            fh.write("t1,tiny,30,M,control,1,2,3,4\nt2,tiny,40,F,control,2,3,4,5\n"
                     "t3,tiny,-3,F,control,2,3,4,5\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
        runs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            runs[jobs] = subprocess.run(
                [sys.executable, "-m", "biasaudit.cli", "score", "--input",
                 str(tmp_path / "multi.csv"), "--out", str(out), "--jobs", jobs,
                 "--targets", "vol_f1,thick_f2,no_such"],
                env=env, capture_output=True, timeout=120)
            assert runs[jobs].returncode == 0, runs[jobs].stderr
        failures = json.loads((tmp_path / "jobs1" / "scores.json").read_text())["failures"]
        assert len(failures) == 6  # no_such in every dataset, and every tiny target
        lines = runs["1"].stderr.decode().splitlines()
        for f in failures:
            pair = f"({f['dataset']}, {f['target']})"
            assert [line for line in lines if pair in line] == [f"  failed {pair}: {f['error']}"]
            assert re.match(r"(KeyError|ValueError): ", f["error"])
        assert lines.count("dataset tiny: no scored pair, left out of aggregate.csv") == 1
        assert f"{tmp_path / 'multi.csv'}: rejected 1 row(s)" in lines
        assert not [line for line in lines if line.startswith(("WARNING", "INFO"))]
        assert runs["2"].stderr == runs["1"].stderr

    def test_every_pair_failed_still_writes_the_reports(self, runner, tmp_path):
        invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets", "2", "--n", "30",
                        "--out", str(tmp_path), "--name", "multi", "--seed", "1"])
        out = tmp_path / "o"
        result = runner.invoke(main, ["score", "--input", str(tmp_path / "multi.csv"),
                                      "--out", str(out), "--targets", "no_such,gone"])
        assert result.exit_code == 3
        payload = json.loads((out / "scores.json").read_text())
        assert payload["records"] == []
        pairs = [(d, t) for d in ("ds00", "ds01") for t in ("no_such", "gone")]
        assert [(f["dataset"], f["target"]) for f in payload["failures"]] == pairs
        assert (out / "scores.csv").read_text().count("\n") == 1  # the header alone
        assert (out / "aggregate.csv").read_text() == "dataset,mean_delta,sd_delta,n_targets\n"
        # stdout's one line, then stderr: each failure once, each dataset once, the error
        assert result.output.splitlines() == (
            [f"scored 0 pairs (4 failures) -> {out}"]
            + [f"  failed ({f['dataset']}, {f['target']}): {f['error']}"
               for f in payload["failures"]]
            + [f"dataset {d}: no scored pair, left out of aggregate.csv" for d in ("ds00", "ds01")]
            + ["error: every (dataset, target) fit failed"])

    def test_alpha_sweep_monotone_end_to_end(self, runner, tmp_path):
        """Generated files per alpha, scored through the CLI: the mean
        score rises with the causal mixing weight."""
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("max_iterations = 4000\n", encoding="utf-8")
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
        seeds = range(10)
        means = []
        for alpha in alphas:
            deltas = []
            for seed in seeds:
                name = f"a{int(alpha * 100)}s{seed}"
                invoke(runner, ["simulate", "--out", str(tmp_path), "--name",
                                name, "--alpha", str(alpha), "--n", "150",
                                "--seed", str(100 + seed)])
                out = tmp_path / f"out_{name}"
                invoke(runner, ["score", "--input", str(tmp_path / f"{name}.csv"),
                                "--out", str(out), "--seed", str(seed),
                                "--causes", "vol_x1,vol_x2,vol_x3",
                                "--targets", "vol_y", "--config", str(cfg)])
                body = (out / "scores.csv").read_text().splitlines()[1]
                deltas.append(float(body.split(",")[5]))
            means.append(np.mean(deltas))
        assert all(a <= b for a, b in zip(means, means[1:])), means


class TestClassify:
    def setup_data(self, runner, tmp_path):
        invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets",
                        "2", "--n", "40", "--shift", "2.0", "--out",
                        str(tmp_path), "--name", "multi", "--seed", "4"])
        return tmp_path / "multi.csv"

    def test_reports_and_confusion_sums(self, runner, tmp_path):
        data = self.setup_data(runner, tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("fractions = 0.3,0.6\n", encoding="utf-8")
        out = tmp_path / "cls"
        result = invoke(runner, ["classify", "--input", str(data), "--out",
                                 str(out), "--seed", "1", "--repetitions", "2",
                                 "--trees", "5", "--config", str(cfg)])
        assert result.exit_code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "feature_set,fraction,mean_acc,sd_acc,repetitions"
        # 4 feature sets x 2 fractions
        assert len(curve) == 1 + 8
        confusion = (out / "confusion.csv").read_text().splitlines()
        counts = sum(int(line.split(",")[2]) for line in confusion[1:])
        heldout = 40 - round(0.6 * 40)
        assert counts == 2 * heldout * 2  # reps x heldout x datasets

    def test_rerun_byte_identical(self, runner, tmp_path):
        data = self.setup_data(runner, tmp_path)
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            invoke(runner, ["classify", "--input", str(data), "--out", str(out),
                            "--seed", "1", "--repetitions", "2", "--trees", "5"])
            outs.append(out)
        assert (outs[0] / "curve.csv").read_bytes() == (outs[1] / "curve.csv").read_bytes()
        assert (outs[0] / "confusion.csv").read_bytes() == (outs[1] / "confusion.csv").read_bytes()

    def test_json_report_records_tree_count(self, runner, tmp_path):
        data = self.setup_data(runner, tmp_path)
        out = tmp_path / "fp"
        invoke(runner, ["classify", "--input", str(data), "--out", str(out),
                        "--seed", "1", "--repetitions", "1", "--trees", "7"])
        payload = json.loads((out / "classify.json").read_text())
        assert payload["fingerprint"]
        assert payload["config"]["trees"] == 7

    @pytest.mark.parametrize("lo, hi", [(1.0000000000000002, 1.0000000000000004),
                                        (1.5e308, 1.7e308), (-5e-324, 0.0)])
    def test_datasets_one_double_apart_are_told_apart(self, runner, tmp_path,
                                                      bounded_growth, lo, hi):
        # the midpoint of lo and hi, in floats, does not lie below hi
        rows = [f"{name}{i},{name},30,M,control,{value!r}\n"
                for name, value in (("A", lo), ("B", hi)) for i in range(20)]
        data = tmp_path / "close.csv"
        data.write_text("subject_id,dataset,age,sex,diagnosis,vol_a\n" + "".join(rows),
                        encoding="utf-8")
        assert invoke(runner, ["validate", "--input", str(data)]).exit_code == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("fractions = 0.5\n", encoding="utf-8")
        out = tmp_path / "cls"
        result = invoke(runner, ["classify", "--input", str(data), "--out", str(out),
                                 "--seed", "1", "--repetitions", "2", "--trees", "5",
                                 "--config", str(cfg)])
        assert result.exit_code == 0
        curve = [line.split(",") for line in (out / "curve.csv").read_text().splitlines()]
        assert [float(row[2]) for row in curve if row[0] == "volume"] == [1.0]

    def test_single_dataset_rejected(self, runner, tmp_path):
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "solo",
                        "--n", "40", "--seed", "3"])
        result = runner.invoke(main, ["classify", "--input",
                                      str(tmp_path / "solo.csv"),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2


    def test_feature_sets_follow_feature_prefixes(self, runner, tmp_path):
        invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets", "3",
                        "--n", "40", "--shift", "2.0", "--out", str(tmp_path),
                        "--name", "multi", "--seed", "4"])
        data = tmp_path / "multi.csv"
        data.write_text(data.read_text().replace("vol_f", "feat_").replace("thick_f", "feat2_"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("feature_prefixes = feat_,feat2_\nfractions = 0.5\n", encoding="utf-8")
        out = tmp_path / "cls"
        result = invoke(runner, ["classify", "--input", str(data), "--out", str(out),
                                 "--seed", "1", "--repetitions", "2", "--trees", "5",
                                 "--config", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads((out / "classify.json").read_text())
        assert payload["config"]["feature_sets"] == {
            "age_sex": ["age", "sex"], "feat": ["feat_1", "feat_2"],
            "feat2": ["feat2_1", "feat2_2"],
            "feat_feat2": ["feat_1", "feat_2", "feat2_1", "feat2_2"]}
        curve = [line.split(",") for line in (out / "curve.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in curve] == ["age_sex", "feat", "feat2", "feat_feat2"]
        assert float(curve[-1][2]) > 0.6  # 2-SD shifts; chance is 1/3


@pytest.mark.parametrize("prefixes, names", [
    (("vol_", "volume_", "thick_"), "'vol_' and 'volume_' both name the feature set 'volume'"),
    (("age_sex_", "vol_"), "the age and sex columns and 'age_sex_'"),
    (("age_", "sex_"), "the age and sex columns and the union of 'age_' and 'sex_'"),
], ids=["two_prefixes", "demographic_prefix", "demographic_union"])
def test_feature_sets_of_one_name_rejected(prefixes, names):
    columns = ("vol_a", "volume_b", "thick_c", "age_sex_d", "age_e", "sex_f")
    with pytest.raises(SchemaError, match=re.escape(names)):
        _feature_sets(columns, prefixes)
    # a prefix without columns makes no set, so names none
    assert list(_feature_sets(columns, ("vol_", "volume_x", "thick_"))) == [
        "age_sex", "volume", "thickness", "volume_thickness"]


class TestSimulate:
    def test_writes_csv_and_sidecar(self, runner, tmp_path):
        result = invoke(runner, ["simulate", "--out", str(tmp_path), "--name",
                                 "toy", "--alpha", "1.0", "--n", "500",
                                 "--seed", "6"])
        assert result.exit_code == 0
        lines = (tmp_path / "toy.csv").read_text().splitlines()
        assert len(lines) == 501
        sidecar = json.loads((tmp_path / "toy.truth.json").read_text())
        assert sidecar["alpha"] == 1.0

    def test_sidecar_replay_exact(self, runner, tmp_path):
        invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "rep",
                        "--alpha", "0.3", "--n", "60", "--seed", "7"])
        sidecar = json.loads((tmp_path / "rep.truth.json").read_text())
        from biasaudit.tabular import load_csv
        table, _ = load_csv(tmp_path / "rep.csv")
        causes = np.column_stack([table.column(c)
                                  for c in sidecar["cause_columns"]])
        replay = (sidecar["alpha"] * (causes @ np.array(sidecar["weights"]))
                  + (1 - sidecar["alpha"]) * (np.array(sidecar["latents"])
                                              @ np.array(sidecar["latent_loadings"]))
                  + np.array(sidecar["noise"]))
        np.testing.assert_array_equal(replay, table.column(sidecar["target_column"]))

    @pytest.mark.parametrize("flags, field", [
        (["--kind", "multidataset", "--n", "0"], "n_per_dataset"),
        (["--kind", "multidataset", "--n", "-3"], "n_per_dataset"),
        (["--noise-sd", "nan"], "noise_sd"),
        (["--noise-sd", "inf"], "noise_sd"),
        (["--kind", "multidataset", "--shift", "nan"], "shifts"),
    ])
    def test_bad_generator_value_exits_2_naming_the_field(self, runner, tmp_path,
                                                          flags, field):
        result = invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "bad",
                                 *flags])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and field in errors[0], result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "bad.csv").exists()

    def test_rerun_byte_identical(self, runner, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            invoke(runner, ["simulate", "--out", str(tmp_path / sub), "--name",
                            "same", "--alpha", "0.5", "--n", "30", "--seed", "8"])
        assert ((tmp_path / "a" / "same.csv").read_bytes()
                == (tmp_path / "b" / "same.csv").read_bytes())
        assert ((tmp_path / "a" / "same.truth.json").read_bytes()
                == (tmp_path / "b" / "same.truth.json").read_bytes())


TWO_DATASET_CSV = VALID_CSV + (
    "s4,B,35,F,control,1.2,2.2\n"
    "s5,B,45,M,control,1.7,2.7\n"
    "s6,B,55,0,control,2.2,3.2\n"
)
DUPLICATE_ID_CSV = VALID_CSV + "s1,B,35,F,control,1.2,2.2\n"
# dataset B has diseased rows only, so controls filtering leaves A alone
ONE_CONTROL_DATASET_CSV = VALID_CSV + "s4,B,35,F,scz,1.2,2.2\ns5,B,45,M,ad,1.7,2.7\n"
REPEATED_COLUMN_CSV = "subject_id,dataset,age,sex,vol_a,vol_a,vol_b\n" + "".join(
    f"s{i},{'AB'[i % 2]},{30 + i},M,{i},{100 * i},{i % 3}\n" for i in range(1, 7))

# 2 datasets x 10 rows: at fraction 0.99 every row trains and none is left to test
TWENTY_ROW_CSV = VALID_CSV.split("\n", 1)[0] + "\n" + "".join(
    f"r{i},{'AB'[i % 2]},{30 + i},M,control,{i},{i % 3}\n" for i in range(20))
# datasets of 2 and 100 rows: at fraction 0.8 both ds00 rows train
UNEVEN_CSV = VALID_CSV.split("\n", 1)[0] + "\n" + "".join(
    f"u{i},ds{min(i // 2, 1):02d},{30 + i % 40},F,control,{i % 7},{i % 5}\n"
    for i in range(102))

# every row rejected: an invalid age, then an unknown sex code
ALL_REJECTED_CSV = VALID_CSV.split("\n", 1)[0] + "\ns1,A,-3,M,control,1.0,2.0\n" + (
    "s2,A,40,X,control,1.5,2.5\n")

# (command and flags, config file text or None, a word the error line must name);
# "{csv}", "{dup}", "{latin1}", "{twenty}", "{uneven}", "{repeated}", "{one_control}",
# "{rejected}" and "{missing}" stand for files the test writes (or not)
MALFORMED = {
    "validate_duplicate_ids": (["validate", "--input", "{dup}"], None, "dup.csv"),
    "classify_duplicate_ids": (["classify", "--input", "{dup}"], None, "dup.csv"),
    "score_duplicate_ids": (["score", "--input", "{dup}"], None, "dup.csv"),
    "validate_non_utf8": (["validate", "--input", "{latin1}"], None, "latin1.csv"),
    "every_row_rejected": (["validate", "--input", "{rejected}"], None,
                           "no valid rows after ingestion (2 rejected; line 2: invalid age -3.0)"),
    "validate_repeated_column": (["validate", "--input", "{repeated}"], None, "'vol_a'"),
    "score_repeated_column": (["score", "--input", "{repeated}"], None, "'vol_a'"),
    "classify_non_utf8": (["classify", "--input", "{latin1}"], None, "latin1.csv"),
    "int_key": (["score", "--input", "{csv}"], "max_iterations = abc", "max_iterations"),
    "negative_learning_rate": (["score", "--input", "{csv}"], "learning_rate = -1",
                               "learning_rate"),
    "bad_fraction": (["classify", "--input", "{csv}"], "fractions = 0.1,x", "fractions"),
    "empty_fractions": (["classify", "--input", "{csv}"], "fractions = ,", "fractions"),
    "repeated_fraction": (["classify", "--input", "{csv}"], "fractions = 0.5,0.5",
                          "fractions"),
    "fraction_above_one": (["classify", "--input", "{csv}"], "fractions = 0.1,1.5",
                           "fractions"),
    "repeated_target": (["score", "--input", "{csv}", "--targets", "vol_a,vol_a"], None,
                        "targets"),
    "empty_targets": (["score", "--input", "{csv}", "--targets", ","], None, "targets"),
    "blank_targets_flag": (["score", "--input", "{csv}", "--targets", ""], None, "targets"),
    "blank_targets_key": (["score", "--input", "{csv}"], "targets =", "targets"),
    "unsplittable_largest_fraction": (["classify", "--input", "{twenty}"],
                                      "fractions = 0.1,0.99", "fractions"),
    "dataset_left_untested": (["classify", "--input", "{uneven}"], "fractions = 0.1,0.8",
                              "'ds00' no row to test"),
    "one_dataset_after_filtering": (["classify", "--input", "{one_control}"], None,
                                    "from at least 2 datasets, got 1"),
    "bad_bool": (["score", "--input", "{csv}"], "controls_only = maybe", "controls_only"),
    "zero_k": (["score", "--input", "{csv}", "--k", "0"], None, "k must"),
    "zero_trees": (["classify", "--input", "{csv}", "--trees", "0"], None, "n_trees"),
    "zero_repetitions": (["classify", "--input", "{csv}", "--repetitions", "0"], None,
                         "repetitions"),
    # a count field's error names the field and the value it got
    "zero_mc_samples": (["score", "--input", "{csv}"], "mc_samples = 0",
                        "mc_samples must be >= 1, got 0"),
    "zero_max_iterations": (["score", "--input", "{csv}"], "max_iterations = 0",
                            "max_iterations must be >= 1, got 0"),
    "zero_convergence_window": (["score", "--input", "{csv}"], "convergence_window = 0",
                                "convergence_window must be >= 1, got 0"),
    "zero_trees_value": (["classify", "--input", "{csv}", "--trees", "0"], None,
                         "n_trees must be >= 1, got 0"),
    "relative_tolerance_of_one": (["score", "--input", "{csv}"], "relative_tolerance = 1",
                                  "relative_tolerance must lie in (0, 1), got 1.0"),
    # the models square these scales, so a square must not overflow (on a table
    # where a pair would get as far as squaring one)
    "sigma_w_square_overflows": (["score", "--input", "{twenty}", "--causes", "age"],
                                 "sigma_w = 1e200", "sigma_w must have a finite square, got 1e+200"),
    "sigma_y_square_overflows": (["score", "--input", "{twenty}", "--causes", "age"],
                                 "sigma_y = 1e170", "sigma_y must have a finite square, got 1e+170"),
    "sigma_z_square_overflows": (["score", "--input", "{twenty}", "--causes", "age",
                                  "--method", "advi"],
                                 "sigma_z = 1e200", "sigma_z must have a finite square, got 1e+200"),
    "sigma_obs_square_overflows": (["score", "--input", "{twenty}", "--causes", "age"],
                                   "sigma_obs = 1e170",
                                   "sigma_obs must have a finite square, got 1e+170"),
    "missing_config_file": (["score", "--input", "{csv}", "--config", "{missing}"], None,
                            "missing.cfg"),
    "malformed_config_line": (["classify", "--input", "{csv}"], "just some words",
                              "run.cfg"),
    "unknown_key": (["score", "--input", "{csv}"], "max_iteratoins = 50", "max_iteratoins"),
    "unknown_key_validate": (["validate", "--input", "{csv}"], "sead = 1", "sead"),
    "repeated_key": (["score", "--input", "{csv}"], "seed = 1\nseed = 2",
                     "run.cfg:2: repeated key 'seed'"),
    "repeated_key_validate": (["validate", "--input", "{csv}"],
                              "age_column = age\n# note\n age_column=age", "run.cfg:3:"),
    "feature_sets_of_one_name": (["classify", "--input", "{csv}"],
                                 "feature_prefixes = vol_,thick_,vol_", "'vol_' and 'vol_'"),
    "family_choice": (["score", "--input", "{csv}"], "family = full_rank", "family"),
    "method_choice": (["score", "--input", "{csv}"], "method = closed_form", "method"),
    "misspelled_cause": (["score", "--input", "{csv}", "--causes", "age,vol_xx"], None,
                         "vol_xx"),
    # a flag's text goes through its key's parser, as the file's text does
    "int_flag": (["score", "--input", "{csv}", "--k", "abc"], None, "--k"),
    "fractional_jobs_flag": (["classify", "--input", "{csv}", "--jobs", "1.5"], None,
                             "--jobs"),
    "method_flag_choice": (["score", "--input", "{csv}", "--method", "closed_form"], None,
                           "--method"),
    "family_flag_choice": (["score", "--input", "{csv}", "--family", "full_rank"], None,
                           "--family"),
    # click's own usage errors
    "unknown_option": (["score", "--input", "{csv}", "--foo", "1"], None, "--foo"),
    "missing_flag_value": (["score", "--input", "{csv}", "--k"], None, "--k"),
    "unknown_command": (["frobnicate"], None, "frobnicate"),
    "simulate_int_flag": (["simulate", "--out", "{missing}", "--n", "abc"], None, "--n"),
}


@pytest.mark.parametrize("args, config, names", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_naming_the_culprit(runner, tmp_path, args, config, names):
    paths = {"csv": tmp_path / "ok.csv", "dup": tmp_path / "dup.csv",
             "latin1": tmp_path / "latin1.csv", "twenty": tmp_path / "twenty.csv",
             "uneven": tmp_path / "uneven.csv", "repeated": tmp_path / "repeated.csv",
             "one_control": tmp_path / "one_control.csv", "missing": tmp_path / "missing.cfg",
             "rejected": tmp_path / "rejected.csv"}
    paths["csv"].write_text(TWO_DATASET_CSV, encoding="utf-8")
    paths["one_control"].write_text(ONE_CONTROL_DATASET_CSV, encoding="utf-8")
    paths["repeated"].write_text(REPEATED_COLUMN_CSV, encoding="utf-8")
    paths["twenty"].write_text(TWENTY_ROW_CSV, encoding="utf-8")
    paths["uneven"].write_text(UNEVEN_CSV, encoding="utf-8")
    paths["dup"].write_text(DUPLICATE_ID_CSV, encoding="utf-8")
    paths["rejected"].write_text(ALL_REJECTED_CSV, encoding="utf-8")
    paths["latin1"].write_bytes(VALID_CSV.replace("s3,", "s\xe9,").encode("latin-1"))
    args = [arg.format(**paths) for arg in args]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        args += ["--config", str(cfg)]
    result = invoke(runner, args)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and names in errors[0], result.output
    assert "Traceback" not in result.output


def test_config_file_keys_of_the_other_command_are_ignored(runner, tmp_path):
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(VALID_CSV, encoding="utf-8")
    cfg = tmp_path / "both.cfg"
    cfg.write_text(f"input = {csv_path}\nrepetitions = 3\nmax_iterations = 10\n",
                   encoding="utf-8")
    result = invoke(runner, ["validate", "--config", str(cfg)])
    assert result.exit_code == 0


def test_report_config_and_fingerprint_are_pinned(runner, tmp_path, monkeypatch):
    """The resolved config blocks, and so the fingerprints, that reports carry."""
    monkeypatch.chdir(tmp_path)
    invoke(runner, ["simulate", "--out", ".", "--name", "sim", "--n", "40", "--m", "1",
                    "--seed", "1"])
    Path("score.cfg").write_text("max_iterations = 400\nsigma_y = 0.5\n", encoding="utf-8")
    result = invoke(runner, ["score", "--input", "sim.csv", "--out", "run", "--config",
                             "score.cfg", "--seed", "3", "--causes", "vol_x1",
                             "--targets", "vol_y", "--method", "closed-form"])
    assert result.exit_code == 0
    payload = json.loads(Path("run/scores.json").read_text())
    assert payload["config"] == SCHEMA_DEFAULTS | {
        "causes": "vol_x1", "command": "score", "controls_only": True,
        "convergence_window": 200, "family": "full-rank", "final_elbo_samples": 2000,
        "input": "sim.csv", "input_sha256": sha256_of("sim.csv"), "jobs": 1, "k": 1,
        "learning_rate": 0.01, "max_iterations": 400, "mc_samples": 8,
        "method": "closed-form", "out": "run", "relative_tolerance": 0.0001, "seed": 3, "sigma_obs": 1.0, "sigma_w": 1.0,
        "sigma_x": 1.0, "sigma_y": 0.5, "sigma_z": 1.0, "targets": "vol_y"}
    assert payload["fingerprint"] == "04ae045b47fac70c"

    invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets", "2", "--n", "40",
                    "--shift", "2.0", "--out", ".", "--name", "multi", "--seed", "4"])
    result = invoke(runner, ["classify", "--input", "multi.csv", "--out", "cls", "--seed",
                             "1", "--repetitions", "1", "--trees", "3", "--with-disease"])
    assert result.exit_code == 0
    payload = json.loads(Path("cls/classify.json").read_text())
    assert payload["config"] == SCHEMA_DEFAULTS | {
        "command": "classify", "controls_only": False,
        "feature_sets": {"age_sex": ["age", "sex"], "thickness": ["thick_f1", "thick_f2"],
                         "volume": ["vol_f1", "vol_f2"],
                         "volume_thickness": ["vol_f1", "vol_f2", "thick_f1", "thick_f2"]},
        "fractions": [0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7],
        "input": "multi.csv", "input_sha256": sha256_of("multi.csv"), "jobs": 1, "out": "cls",
        "repetitions": 1, "seed": 1, "trees": 3}
    assert payload["fingerprint"] == "b7ac7234c0e14abb"


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


SCHEMA_DEFAULTS = {"age_column": "age", "dataset_column": "dataset",
                   "diagnosis_column": "diagnosis", "feature_prefixes": ["vol_", "thick_"],
                   "healthy_label": "control", "id_column": "subject_id",
                   "sex_column": "sex"}
# extra entries each report's config block carries besides the keys its command reads
DERIVED = {"score": {"command", "input_sha256"},
           "classify": {"command", "input_sha256", "feature_sets"}}


@pytest.fixture(scope="module")
def audit_runs(tmp_path_factory):
    """One score and one classify report per schema setting of a shared input.

    54 of the input's 80 rows per dataset are controls: the default keeps
    those, ``healthy_label = patient`` keeps the other 26, and a
    ``diagnosis_column`` the file lacks keeps all 80.
    """
    runner, tmp_path = CliRunner(), tmp_path_factory.mktemp("audit")
    invoke(runner, ["simulate", "--kind", "multidataset", "--n-datasets", "2", "--n", "80",
                    "--shift", "1.0", "--out", str(tmp_path), "--name", "multi",
                    "--seed", "4"])
    data = tmp_path / "multi.csv"
    lines = data.read_text().splitlines()
    lines[1:] = [line.replace(",control,", ",patient,") if i % 80 % 3 == 2 else line
                 for i, line in enumerate(lines[1:])]
    data.write_text("\n".join(lines) + "\n")
    payloads = {}
    for name, extra in {"default": [], "patients": ["healthy_label = patient"],
                        "all_rows": ["diagnosis_column = no_such_column"]}.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{line}\n" for line in ["fractions = 0.5", *extra]))
        common = ["--input", str(data), "--config", str(cfg), "--seed", "1"]
        for command, flags in {
                "score": ["--causes", "vol_f1", "--targets", "vol_f2",
                          "--method", "closed-form"],
                "classify": ["--repetitions", "1", "--trees", "2"]}.items():
            out = tmp_path / command  # one --out, so only the schema key differs
            result = invoke(runner, [command, *common, "--out", str(out), *flags])
            assert result.exit_code == 0, result.output
            report = "scores.json" if command == "score" else "classify.json"
            payloads[command, name] = json.loads((out / report).read_text())
    return payloads


def test_fingerprint_sees_every_key(audit_runs):
    """Runs that differ only in a schema key differ in rows and in fingerprint."""
    assert [r["n"] for name in ("default", "patients", "all_rows")
            for r in audit_runs["score", name]["records"]] == [54, 54, 26, 26, 80, 80]
    for command in ("score", "classify"):
        fingerprints = {audit_runs[command, name]["fingerprint"]
                        for name in ("default", "patients", "all_rows")}
        assert len(fingerprints) == 3, command


@pytest.mark.parametrize("command", DERIVED)
def test_config_block_is_the_keys_the_command_reads(audit_runs, command):
    block = audit_runs[command, "default"]["config"]
    read = {key for key, (_, _, commands, _) in KEYS.items() if command in commands}
    assert set(block) == read | DERIVED[command]
    audit = {key: value for key, value in block.items()
             if key not in ("input", "out", "jobs")}
    assert audit_runs[command, "default"]["fingerprint"] == fingerprint(audit)


@pytest.mark.parametrize("command", DERIVED)
def test_config_block_round_trips_through_a_config_file(audit_runs, tmp_path, command):
    block = audit_runs[command, "patients"]["config"]
    keys = {key: value for key, value in block.items() if key not in DERIVED[command]}
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(
        f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in keys.items()), encoding="utf-8")
    assert json.loads(json.dumps(resolve_config(command, cfg, {}))) == keys


@pytest.mark.parametrize("command", DERIVED)
def test_flag_and_file_text_resolve_alike(audit_runs, tmp_path, command):
    """The same block, its flagged keys given as flags, resolves as from one file."""
    block = audit_runs[command, "patients"]["config"]
    texts = {key: ",".join(map(str, value)) if isinstance(value, list) else str(value)
             for key, value in block.items() if key not in DERIVED[command]}
    flags = {key: text for key, text in texts.items() if KEYS[key][3]}
    whole, rest = tmp_path / "whole.cfg", tmp_path / "rest.cfg"
    whole.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()))
    rest.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()
                            if key not in flags))
    assert flags and len(flags) < len(texts)
    assert resolve_config(command, rest, flags) == resolve_config(command, whole, {})


FLAGS = {
    "validate": "--config --input",
    "score": "--causes --config --controls-only --family --input --jobs --k --method --out "
             "--seed --targets --with-disease",
    "classify": "--config --controls-only --input --jobs --out --repetitions --seed --trees "
                "--with-disease",
}


@pytest.mark.parametrize("command", FLAGS)
def test_flags_of_each_command_are_pinned(command):
    params = main.commands[command].params
    assert " ".join(sorted(opt for p in params for opt in p.opts + p.secondary_opts)) \
        == FLAGS[command]


def test_bare_command_prints_help_and_exits_2(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "error:" not in result.output


@pytest.mark.parametrize("command, flags", [
    ("score", ["--causes", "vol_f1", "--targets", "vol_f2"]),
    ("classify", ["--repetitions", "1", "--trees", "2"]),
])
def test_fingerprint_names_the_audit_not_the_paths(runner, tmp_path, command, flags):
    """Same bytes at another path, another --out or --jobs: one fingerprint.
    One changed input byte: another."""
    invoke(runner, ["simulate", "--kind", "multidataset", "--n", "30", "--out",
                    str(tmp_path), "--name", "a", "--seed", "4"])
    data = (tmp_path / "a.csv").read_bytes()
    (tmp_path / "b.csv").write_bytes(data)
    body = data.rstrip()  # ends in a digit of the last feature value
    (tmp_path / "c.csv").write_bytes(body[:-1] + str((int(body[-1:]) + 1) % 10).encode()
                                     + data[len(body):])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fractions = 0.5\n")
    report = "scores.json" if command == "score" else "classify.json"
    fingerprints = {}
    for run, (name, jobs) in {"a": ("a", "1"), "b": ("b", "2"), "c": ("c", "1")}.items():
        out = tmp_path / f"out_{run}"
        result = invoke(runner, [command, "--input", str(tmp_path / f"{name}.csv"), "--out",
                                 str(out), "--jobs", jobs, "--config", str(cfg), *flags])
        assert result.exit_code == 0, result.output
        fingerprints[run] = json.loads((out / report).read_text())["fingerprint"]
    assert fingerprints["a"] == fingerprints["b"] != fingerprints["c"]


# what each command would start with once its input is checked
FIRST_WORK = {"score": "score_all", "classify": "name_that_dataset", "simulate": "gen_mixed"}


@pytest.mark.parametrize("command", FIRST_WORK)
def test_bad_out_exits_2_before_any_work(runner, tmp_path, monkeypatch, command):
    def work_started(*args, **kwargs):
        raise AssertionError(f"{command} started work before checking --out")

    monkeypatch.setattr(f"biasaudit.cli.{FIRST_WORK[command]}", work_started)
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(TWO_DATASET_CSV, encoding="utf-8")
    (tmp_path / "afile").write_text("a regular file\n", encoding="utf-8")
    out = str(tmp_path / "afile" / "sub")
    args = [command, "--out", out]
    if command != "simulate":
        args += ["--input", str(csv_path)]
    result = invoke(runner, args)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and out in errors[0], result.output
    assert "Traceback" not in result.output


def test_non_utf8_config_file_is_named(runner, tmp_path):
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(VALID_CSV, encoding="utf-8")
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"input = " + str(csv_path).encode() + b"\n# caf\xe9\n")
    result = invoke(runner, ["validate", "--config", str(cfg)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {cfg}:"), result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command, flags, config", [
    ("score", ["--jobs", "0"], None),
    ("score", [], "jobs = 0"),
    ("classify", ["--jobs", "0"], None),
    ("classify", ["--jobs", "-3"], None),
    ("classify", [], "jobs = 0"),
])
def test_jobs_below_one_is_a_usage_error(runner, tmp_path, command, flags, config):
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(TWO_DATASET_CSV, encoding="utf-8")
    args = [command, "--input", str(csv_path), "--out", str(tmp_path / "out"), *flags]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        args += ["--config", str(cfg)]
    result = invoke(runner, args)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "jobs" in errors[0], result.output
    assert "Traceback" not in result.output


def test_final_elbo_samples_below_100_exits_2_before_any_fit(runner, tmp_path, monkeypatch):
    def fit_started(*args, **kwargs):
        raise AssertionError("score started fitting before checking final_elbo_samples")

    monkeypatch.setattr("biasaudit.cli.score_all", fit_started)
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(TWO_DATASET_CSV, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("final_elbo_samples = 50\n", encoding="utf-8")
    result = invoke(runner, ["score", "--input", str(csv_path), "--out", str(tmp_path / "out"),
                             "--config", str(cfg)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "final_elbo_samples" in errors[0], result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("key, value", [
    ("learning_rate", "nan"), ("sigma_x", "inf"), ("sigma_w", "nan"),
    ("sigma_y", "inf"), ("sigma_z", "inf"), ("sigma_obs", "nan"),
])
def test_non_finite_float_exits_2_before_any_fit(runner, tmp_path, monkeypatch, key, value):
    def fit_started(*args, **kwargs):
        raise AssertionError(f"score started fitting before checking {key}")

    monkeypatch.setattr("biasaudit.cli.score_all", fit_started)
    csv_path = tmp_path / "ok.csv"
    csv_path.write_text(TWO_DATASET_CSV, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    result = invoke(runner, ["score", "--input", str(csv_path), "--out", str(tmp_path / "out"),
                             "--config", str(cfg)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0], result.output
    assert "Traceback" not in result.output


def test_target_that_is_a_cause_exits_2_before_any_fit(runner, tmp_path, monkeypatch):
    def fit_started(*args, **kwargs):
        raise AssertionError("score started fitting a target that is a cause")

    monkeypatch.setattr("biasaudit.cli.score_all", fit_started)
    invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim", "--n", "200",
                    "--seed", "3"])
    result = invoke(runner, ["score", "--input", str(tmp_path / "sim.csv"),
                             "--out", str(tmp_path / "out"),
                             "--causes", "vol_x1,vol_x2,vol_x3", "--targets", "vol_x1",
                             "--method", "closed-form"])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "vol_x1" in errors[0], result.output
    assert "Traceback" not in result.output


def _dense_radial_log_evidence(V: JointVector, spec: ConfoundedModelSpec):
    """log p(V) of the k=1 confounded model by a dense trapezoid rule in t = log r.

    The sphere factor is ``gaussmath.log_bingham_constant``; the rest of the
    radial integrand of ``models.confounded_evidence_k1`` is written out,
    times the Jacobian r of dr = r dt.  Returns the log evidence and the
    largest Bingham argument at the radial peak.
    """
    n, p = V.values.shape
    S = V.values.T @ V.values
    lam = np.linalg.eigvalsh(S)[::-1]
    var_z, var_w, var_obs = spec.sigma_z ** 2, spec.sigma_w ** 2, spec.sigma_obs ** 2

    def kappa(t):
        r2 = np.exp(2.0 * t)
        return var_z * r2 / (2.0 * var_obs * (var_obs + var_z * r2))

    def log_f(t):
        r2 = np.exp(2.0 * t)
        return (p * t - r2 / (2.0 * var_w) - 0.5 * n * np.log1p(var_z * r2 / var_obs)
                + kappa(t) * lam[0] + log_bingham_constant(kappa(t)[:, None] * (lam[0] - lam)))

    coarse = np.linspace(-12.0, 6.0, 3601)
    peak = coarse[np.argmax(log_f(coarse))]
    t = np.linspace(peak - 1.0, peak + 1.0, 40001)
    values = log_f(t)
    top = values.max()
    assert max(values[0], values[-1]) < top - 50.0, "the window must hold the mass"
    const = (-0.5 * p * math.log(2.0 * math.pi * var_w)
             - 0.5 * n * p * math.log(2.0 * math.pi * var_obs) - 0.5 * np.trace(S) / var_obs)
    log_evidence = const + top + math.log(np.trapezoid(np.exp(values - top), t))
    return log_evidence, float(kappa(np.array([peak]))[0] * (lam[0] - lam[-1]))


def test_closed_form_score_at_extreme_bingham_arguments(runner, tmp_path):
    """A tiny sigma_obs at large n drives the Bingham arguments past 1e6.

    The pair then either scores an L_co that matches a dense radial
    reference, or fails as a per-pair record; the command never raises.
    """
    invoke(runner, ["simulate", "--out", str(tmp_path), "--name", "sim", "--n", "2000",
                    "--alpha", "0.0", "--seed", "3"])
    (tmp_path / "score.cfg").write_text("sigma_obs = 0.03\n", encoding="utf-8")
    causes = "vol_x1,vol_x2,vol_x3"
    result = runner.invoke(main, [
        "score", "--input", str(tmp_path / "sim.csv"), "--out", str(tmp_path / "o"),
        "--config", str(tmp_path / "score.cfg"), "--causes", causes, "--targets", "vol_y",
        "--method", "closed-form"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    payload = json.loads((tmp_path / "o" / "scores.json").read_text())
    if payload["failures"]:
        assert result.exit_code == 3
        assert "QuadratureError" in payload["failures"][0]["error"]
        return
    assert result.exit_code == 0
    table = load_csv(tmp_path / "sim.csv")[0].filter_controls()
    y, _, _ = standardize_column(table.column("vol_y"))
    V = JointVector(np.column_stack([build_design(table, CauseSpec.parse(causes)), y]))
    want, largest_argument = _dense_radial_log_evidence(V, ConfoundedModelSpec(sigma_obs=0.03))
    assert largest_argument > 1e6
    assert payload["records"][0]["L_co"] == pytest.approx(-want, abs=1e-8)


# Runs each command line of a JSON list in one process, then prints which
# of the named modules are imported: a module loaded on the way counts
# toward every command's peak RSS.
MODULES_AFTER = """
import json, sys
from biasaudit.cli import main

for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
print(json.dumps([name for name in ("numpy.ma", "numpy.polynomial") if name in sys.modules]))
"""


def test_commands_import_neither_numpy_ma_nor_numpy_polynomial(tmp_path):
    # every command, in the order that makes each one's input
    (tmp_path / "fit.cfg").write_text("max_iterations = 400\nfinal_elbo_samples = 100\n",
                                      encoding="utf-8")
    toy, multi, out = (str(tmp_path / name) for name in ("toy.csv", "multi.csv", "out"))
    fit = ["--method", "advi", "--config", str(tmp_path / "fit.cfg")]
    score = ["score", "--input", toy, "--out", out, "--causes", "vol_x1,vol_x2,vol_x3",
             "--targets", "vol_y"]
    commands = [["simulate", "--out", str(tmp_path), "--name", "toy", "--n", "100",
                 "--seed", "7"],
                ["simulate", "--kind", "multidataset", "--n-datasets", "3", "--n", "30",
                 "--out", str(tmp_path), "--name", "multi", "--seed", "7"],
                ["validate", "--input", multi],
                score,
                score + fit + ["--k", "2"],
                score + fit + ["--family", "mean-field"],
                ["classify", "--input", multi, "--out", out,
                 "--repetitions", "1", "--trees", "3"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", MODULES_AFTER, json.dumps(commands)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
