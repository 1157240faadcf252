import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


#: size cutovers that force every replay_publish / incremental_apply /
#: compact_published / read_published onto one executor: above any test
#: input (driver) or below it, an empty log's 0 bytes included (Ray Data)
EXECUTOR_CUTOVERS = {"driver": 1 << 62, "ray_data": -1}


@pytest.fixture(params=sorted(EXECUTOR_CUTOVERS))
def sink_executor(request):
    """Run the test with the sink's driver/Ray Data size cutover forced to
    one extreme; fails the test if any replay, apply, compaction or read
    chose the other executor. Yields the executor name. The patch is its
    own, so a test that undoes its ``monkeypatch`` keeps the cutover."""
    from odibel_ray.cdc import sink

    chosen = []
    choose = sink._executor_for

    def recording_choose(paths):
        chosen.append(choose(paths))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS[request.param])
        mp.setattr(sink, "_executor_for", recording_choose)
        yield request.param
    assert set(chosen) <= {request.param}


@pytest.fixture(scope="session")
def small_log(tmp_path_factory):
    """Deterministic small change log shared by the suite (seed=42)."""
    from odibel_ray.datagen import generate_change_log

    d = tmp_path_factory.mktemp("cdclog")
    info = generate_change_log(str(d), n_convs=60, max_turns=20, num_parts=4, seed=42)
    return info


@pytest.fixture(scope="session")
def oracle_final(small_log):
    from odibel_ray.oracle import replay_oracle

    return replay_oracle(small_log["log_dir"])


def collect_sorted(ds, keys):
    """Materialize a (small, test-sized) Dataset into one sorted Arrow table."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    t = pa.concat_tables(tables).combine_chunks()
    if len(t) == 0:
        return t
    return t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys]))
