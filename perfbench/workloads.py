"""The benchmark's workloads: generated inputs, CLI flags and why each exists.

Every input is drawn from the benchmark's ``--seed`` with
``biasaudit.synth``; the program under test only ever sees the CSV file,
its command-line flags and, where a workload sets config keys (training
fractions, an iteration budget), a ``--config`` file.
"""

import hashlib
from dataclasses import dataclass, field

CAUSES = "vol_x1,vol_x2,vol_x3"
# end-to-end metrics reported on every workload, with their units
# (wall_ref: command wall time in units of the reference kernel's wall time)
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "units_per_ref": "1/ref", "peak_rss_mb": "MB"}
SHIFT_STEP = 0.3
N_CLASSIFY_DATASETS = 15
# config keys that make every ADVI fit run its whole iteration budget
FIXED_BUDGET = {"relative_tolerance": "1e-12"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # score | classify
    why: str
    generator: dict              # parameters handed to biasaudit.synth
    flags: tuple = ()            # CLI flags besides --input/--out/--seed/--jobs/--config
    config: dict = field(default_factory=dict)  # key = value lines of the --config file
    repetitions: int = 0         # classify: --repetitions
    feature_sets: int = 4        # classify: the CLI's default sets for vol_/thick_ columns

    @property
    def fractions(self) -> tuple:
        """Classify training fractions, as the config file gives them to the CLI."""
        return tuple(float(f) for f in self.config["fractions"].split(","))

    @property
    def units_per_command(self) -> int:
        """Pairs scored, or forests trained (feature set x fraction x repetition)."""
        if self.command == "score":
            return self.generator["datasets"]
        return self.feature_sets * len(self.fractions) * self.repetitions


WORKLOADS = {w.name: w for w in (
    Workload(
        name="score_small_n",
        command="score",
        why="Many short ADVI fits (m=3, n=200, 2000 iterations each): the per-iteration "
            "cost inside advi.fit dominates, and the causal fit has a closed form to check.",
        generator={"kind": "gen_mixed", "datasets": 2, "n": 200, "m": 3,
                   "alpha": "1.0 for even datasets, 0.0 for odd"},
        flags=("--causes", CAUSES, "--targets", "vol_y", "--method", "advi"),
        # Default knobs otherwise.  Left alone, fits stop anywhere between
        # 1,400 and 4,400 iterations, which swings the work of a command
        # from seed to seed by more than the bound; a tolerance no ELBO
        # change meets makes every fit run exactly its budget.
        config=FIXED_BUDGET | {"max_iterations": "2000"},
    ),
    Workload(
        name="score_large_n",
        command="score",
        why="Two n=1500 datasets, 600 iterations per fit: the confounded model's O(n) "
            "per-sample cost, the n x n closed-form evidence and the final ELBO batch "
            "dominate time and memory.",
        generator={"kind": "gen_mixed", "datasets": 2, "n": 1500, "m": 3,
                   "alpha": "1.0 for even datasets, 0.0 for odd"},
        flags=("--causes", CAUSES, "--targets", "vol_y", "--method", "closed-form"),
        # a fixed budget: with only two fits, where convergence happens to
        # stop them would swing the work more than the per-sample cost
        # this workload exists to measure
        config=FIXED_BUDGET | {"max_iterations": "600"},
    ),
    Workload(
        name="classify_grow",
        command="classify",
        why="Name-That-Dataset on small tables: growing trees is nearly all of the "
            "run; both score workloads bypass the forest.",
        generator={"kind": "gen_multidataset", "datasets": N_CLASSIFY_DATASETS,
                   "n_per_dataset": 100, "shift_step": SHIFT_STEP},
        flags=("--trees", "6"),
        config={"fractions": "0.1,0.5"},
        repetitions=1,
    ),
    Workload(
        name="classify_wide_test",
        command="classify",
        why="Tiny training sets against ~15,000 test rows: forest prediction, CSV "
            "load, split and Table.take weigh here and hide in classify_grow.",
        generator={"kind": "gen_multidataset", "datasets": N_CLASSIFY_DATASETS,
                   "n_per_dataset": 1000, "shift_step": SHIFT_STEP},
        flags=("--trees", "15"),
        config={"fractions": "0.002,0.01"},
        repetitions=1,
    ),
)}


def sub_seed(seed: int, *parts) -> int:
    """A generator seed for one part of a workload's input, stable across platforms."""
    key = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def write_inputs(workload: Workload, seed: int, work_dir) -> dict:
    """Generate the workload's input under ``work_dir`` and return what the checks need.

    Returns ``{"csv": path, "config": path or None, "alphas": {dataset: alpha}}``;
    the config file is written only for workloads that set CLI config keys.
    """
    from biasaudit.synth import (GenSpec, MultiDatasetSpec, gen_mixed,
                                 gen_multidataset, write_table_csv)
    from biasaudit.tabular import concat_tables

    gen = workload.generator
    csv_path = work_dir / "input.csv"
    config_path = None
    alphas = {}
    if gen["kind"] == "gen_mixed":
        parts = []
        for i in range(gen["datasets"]):
            name = f"ds{i:02d}"
            alphas[name] = 1.0 if i % 2 == 0 else 0.0
            table, _ = gen_mixed(GenSpec(n=gen["n"], m=gen["m"], alpha=alphas[name],
                                         seed=sub_seed(seed, workload.name, i),
                                         dataset=name))
            parts.append(table)
        write_table_csv(concat_tables(parts), csv_path)
    else:
        shifts = tuple(gen["shift_step"] * d for d in range(gen["datasets"]))
        table = gen_multidataset(MultiDatasetSpec(
            n_per_dataset=gen["n_per_dataset"], shifts=shifts,
            seed=sub_seed(seed, workload.name)))
        write_table_csv(table, csv_path)
    if workload.config:
        config_path = work_dir / "config.txt"
        config_path.write_text("".join(f"{k} = {v}\n" for k, v in workload.config.items()),
                               encoding="utf-8")
    return {"csv": csv_path, "config": config_path, "alphas": alphas}


def cli_args(workload: Workload, inputs: dict, out_dir, seed: int) -> list[str]:
    """The ``biasaudit`` command line of one timed repeat."""
    args = [workload.command, "--input", str(inputs["csv"]), "--out", str(out_dir),
            "--seed", str(seed), "--jobs", "1"]
    if inputs["config"]:
        args += ["--config", str(inputs["config"])]
    if workload.command == "classify":
        args += ["--repetitions", str(workload.repetitions)]
    return args + list(workload.flags)
