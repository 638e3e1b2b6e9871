"""A finished write stream lets its simulated host go.

The WAL appenders and the compactions they trigger must hold no
reference cycle: with the cyclic collector off, a run's environment,
device (block trace included), mutation state and core pool die with
the run's last reference, on a closed loop and on a serving run alike.
"""

from repro.mutate import CompactionPolicy, MutationLoad
from repro.serve import PoissonArrivals, ServeConfig, Server, TenantLoad
from repro.workload import BenchRunner

from tests.workload.test_runner import make_engine

LOAD = MutationLoad(
    insert_qps=60_000.0, delete_qps=6_000.0, batch_rows=64,
    policy=CompactionPolicy(delta_rows=3_000, tombstone_fraction=0.5),
    write_amplification=2.0)


def fresh_runner(small_data, small_queries):
    return BenchRunner(make_engine(small_data, kind="diskann"), "bench",
                       small_queries)


def test_closed_loop_with_writes_leaves_no_cycle(live_envs, small_data,
                                                 small_queries):
    runner = fresh_runner(small_data, small_queries)

    def call():
        result = runner.run(4, {"search_list": 30}, duration_s=0.25,
                            mutation=LOAD)
        assert result.mutation.compactions >= 1

    assert live_envs(BenchRunner, call) == 0


def test_serving_with_writes_leaves_no_cycle(live_envs, small_data,
                                             small_queries):
    runner = fresh_runner(small_data, small_queries)
    config = ServeConfig(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=4000.0)),),
        duration_s=0.25, max_inflight=8, seed=5,
        search_params={"search_list": 30}, mutation=LOAD)

    def call():
        result = Server(runner, config).serve()
        assert result.mutation.compactions >= 1

    assert live_envs(BenchRunner, call) == 0
