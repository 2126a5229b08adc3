"""The benchmark's tracer patches biasaudit attributes by name; a rename must fail here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Installs the tracer, then runs a traced tree, a tiny score by ADVI and
# by the closed form and a tiny classify, and prints the per-layer values
# of the recorded spans.
TRACED_RUN = """
import json, sys
from pathlib import Path

import numpy as np

import layers, spans
from biasaudit import cli, forest
from biasaudit.synth import (GenSpec, MultiDatasetSpec, gen_mixed, gen_multidataset,
                             write_table_csv)

rec = spans.Recorder("t")
spans.install(rec)
main = rec.wrap("cli.main", cli.main)


def run(args):
    try:
        main(args)
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)


work = Path(sys.argv[1])
forest.train_tree(np.arange(8.0).reshape(4, 2), np.array(list("aabb")), 0)
write_table_csv(gen_mixed(GenSpec(n=40, m=2, seed=1))[0], work / "mixed.csv")
(work / "score.cfg").write_text("max_iterations = 400\\nfinal_elbo_samples = 100\\n")
run(["score", "--input", str(work / "mixed.csv"), "--out", str(work / "scores"),
     "--config", str(work / "score.cfg"), "--causes", "vol_x1,vol_x2", "--targets", "vol_y",
     "--method", "advi"])
run(["score", "--input", str(work / "mixed.csv"), "--out", str(work / "closed"),
     "--config", str(work / "score.cfg"), "--causes", "vol_x1,vol_x2", "--targets", "vol_y",
     "--method", "closed-form"])
write_table_csv(gen_multidataset(MultiDatasetSpec(n_per_dataset=20, seed=2)),
                work / "multi.csv")
(work / "classify.cfg").write_text("fractions = 0.5\\n")
run(["classify", "--input", str(work / "multi.csv"), "--out", str(work / "cls"),
     "--config", str(work / "classify.cfg"), "--repetitions", "1", "--trees", "2"])
values, _ = layers.command_values(rec.dump()["spans"])
print(json.dumps(values))
"""


def test_tracer_installs_on_this_source_tree(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    values = json.loads(result.stdout.splitlines()[-1])
    assert values["forest.train_tree.calls"] > 0
    assert values["forest.train_tree.depth_max"] == 1
    assert values["scoring.score_target.calls"] > 0
    assert values["forest.train_forest.s"] > 0
    # one name per patched call site the commands reach, so a rewiring
    # that skips one reads 0 here
    for name in ("tabular.load_csv.rows", "tabular.stratified_split.calls",
                 "tabular.Table.take.rows", "tabular.build_design.s",
                 "forest.Forest.predict_codes.rows", "models.causal_target.calls",
                 "models.causal_code_length.s", "models.confounded_code_length.s",
                 "models.causal_evidence_closed_form.s", "gaussmath.SpdMatrix.s",
                 "advi.fit.iterations", "advi.estimate_elbo.samples"):
        assert values[name] > 0, name
