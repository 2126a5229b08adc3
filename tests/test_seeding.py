import pytest

from biasaudit.forest import RFConfig, name_that_dataset
from biasaudit.scoring import ScoringConfig, score_all
from biasaudit.seeding import map_tasks
from biasaudit.synth import GenSpec, MultiDatasetSpec, gen_mixed, gen_multidataset
from biasaudit.tabular import CauseSpec, CauseTerm, concat_tables

from conftest import quick_fit_config


@pytest.fixture
def pools(monkeypatch):
    """Replaces the process pool with one that maps in this process.

    Lists each map as (pool size, chunk size).
    """
    maps = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            maps.append((self.max_workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr("biasaudit.seeding.ProcessPoolExecutor", InProcessPool)
    return maps


def _square(x):
    return x * x


class TestMapTasks:
    @pytest.mark.parametrize("n_tasks, jobs, want_pools", [
        (1, 4, []),         # a single task runs in this process
        (2, 4, [(2, 1)]),   # never more workers than tasks
        (5, 3, [(3, 1)]),
        (5, 1, []),
        (0, 4, []),
        (9, 2, [(2, 2)]),   # about four chunks per worker
        (1600, 2, [(2, 200)]),
    ])
    def test_pool_size(self, pools, n_tasks, jobs, want_pools):
        assert map_tasks(_square, list(range(n_tasks)), jobs) == [x * x for x in range(n_tasks)]
        assert pools == want_pools

    def test_score_all_starts_one_worker_per_pair(self, pools):
        table = concat_tables(
            gen_mixed(GenSpec(n=40, m=3, alpha=a, seed=s, dataset=f"d{s}"))[0]
            for s, a in ((1, 1.0), (2, 0.0)))
        config = ScoringConfig(cause_spec=CauseSpec(terms=(CauseTerm("vol_x1"),)),
                               targets=("vol_y",), master_seed=3,
                               fit_config=quick_fit_config(max_iterations=400), jobs=4)
        records = score_all(table, config)
        assert pools == [(2, 1)]
        assert [(r.dataset, r.target) for r in records] == [("d1", "vol_y"), ("d2", "vol_y")]

    def test_name_that_dataset_starts_one_worker_per_cell(self, pools):
        table = gen_multidataset(MultiDatasetSpec(n_per_dataset=20, shifts=(0.0, 1.0), seed=4))
        kwargs = dict(feature_sets={"vol": ["vol_f1", "vol_f2"]}, fractions=(0.5,),
                      repetitions=2, seed=5, rf_config=RFConfig(n_trees=3))
        parallel = name_that_dataset(table, jobs=4, **kwargs)
        assert pools == [(2, 1)]
        serial = name_that_dataset(table, jobs=1, **kwargs)
        assert pools == [(2, 1)]
        assert parallel["vol"].curve == serial["vol"].curve
