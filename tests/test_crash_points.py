"""Crash at every publish step of each write op, then resume.

Each op is first run uncrashed while every ``os.replace``/``os.remove``
under the table directory (the lock file aside) is counted. Then, for
every step k, a fresh copy of the starting table runs the op with the k-th
step raising instead of happening, and the same op is run again. The
resumed table must equal the change log's oracle (transcript tables) or
the uncrashed run (generic tables), a transcript apply's change feed must
equal the uncrashed run's, and ``fsck_table`` must report no error."""

import glob
import os
import shutil
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from odibel_ray.cdc import (
    alter_published,
    compact_published,
    fsck_table,
    incremental_apply,
    materialize_ddl,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
)
from odibel_ray.datagen import split_log
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


class _Crash(Exception):
    """The injected crash."""


@contextmanager
def _crash_at(root: str, k: int | None):
    """Count every ``os.replace``/``os.remove`` whose path lies under
    ``root``, ``_LOCK*`` files aside, and raise :class:`_Crash` instead of
    the k-th one (0-based; None never raises). Yields the counted paths."""
    root = os.path.abspath(root) + os.sep
    steps: list[str] = []

    def counted(fn):
        def step(path, *args, **kwargs):
            p = os.path.abspath(os.fspath(path))
            if p.startswith(root) and not os.path.basename(p).startswith("_LOCK"):
                if len(steps) == k:
                    raise _Crash(p)
                steps.append(p)
            return fn(path, *args, **kwargs)

        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", counted(os.replace))
        mp.setattr(os, "remove", counted(os.remove))
        yield steps


def _feed_rows(feed_dir: str) -> dict[str, list]:
    """Feed file (relative name) → its rows, sorted."""
    out = {}
    for f in sorted(glob.glob(os.path.join(feed_dir, "bucket=*", "*.parquet"))):
        rows = pq.read_table(f).to_pylist()
        out[os.path.relpath(f, feed_dir)] = sorted(rows, key=repr)
    return out


def _every_crash_point(tmp_path, build, op, check):
    """``build(d)`` makes the starting table in ``d``; ``op(d)`` runs the
    write on it (a change feed goes to ``d + "-feed"``); ``check(d, ref)``
    compares a resumed table with the uncrashed ``ref``. Returns the number
    of crash points."""
    template = str(tmp_path / "template")
    build(template)
    ref = str(tmp_path / "ref")
    shutil.copytree(template, ref)
    with _crash_at(ref, None) as steps:
        op(ref)
    assert steps, "the op published nothing"
    for k in range(len(steps)):
        d = str(tmp_path / f"crash-{k}")
        shutil.copytree(template, d)
        with _crash_at(d, k), pytest.raises(_Crash):
            op(d)
        op(d)
        check(d, ref)
        report = fsck_table(d)
        assert report["ok"], (k, steps[k], report["errors"])
        shutil.rmtree(d)
        shutil.rmtree(d + "-feed", ignore_errors=True)
    return len(steps)


@pytest.fixture(scope="module")
def prefix_log(small_log, tmp_path_factory):
    d = tmp_path_factory.mktemp("crash_prefix")
    split_log(small_log["log_dir"], str(d), frac=0.6)
    return os.path.join(str(d), "change_log")


LAYOUTS = {"hashed": {"num_buckets": 4}, "partitioned": {"partitioned": True}}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", ["mor_apply", "cow_apply_feed", "compaction"])
def test_transcript_op_survives_every_crash_point(
    ray_session, small_log, oracle_final, prefix_log, tmp_path, layout, kind
):
    full = small_log["log_dir"]

    def build(d):
        replay_publish(prefix_log, d, run_id="base", **LAYOUTS[layout])
        if kind == "compaction":
            incremental_apply(full, d, run_id="mor", mode="mor")

    def op(d):
        if kind == "mor_apply":
            incremental_apply(full, d, run_id="inc", mode="mor")
        elif kind == "cow_apply_feed":
            incremental_apply(full, d, run_id="inc", feed_dir=d + "-feed", feed_lsn=True)
        else:
            compact_published(d, run_id="cmp")

    def check(d, ref):
        assert collect_sorted(read_published(d), KEYS).equals(oracle_final)
        assert _feed_rows(d + "-feed") == _feed_rows(ref + "-feed")

    assert _every_crash_point(tmp_path, build, op, check) >= 8


def _sorted_table(d: str, keys: list[str]) -> pa.Table:
    return collect_sorted(read_published(d), keys)


def _generic(d: str) -> None:
    t = pa.table({
        "k": [f"k{i:02d}" for i in range(12)],
        "v": [float(i) for i in range(12)],
        "tag": [f"t{i % 3}" for i in range(12)],
    })
    publish_dataset(rd.from_arrow(t), d, key_cols=["k"], num_buckets=2, run_id="pub")


UPDATES = pa.table({"k": ["k01", "k05", "k20"], "v": [10.0, 50.0, 200.0],
                    "tag": ["u", "u", "new"]})
DELETES = pa.table({"k": ["k02", "k07", "zz"]})


@pytest.mark.parametrize("kind", ["cow_upsert_feed", "mor_upsert_deletes", "materialize_ddl"])
def test_generic_op_survives_every_crash_point(ray_session, tmp_path, kind, feed=False):
    def build(d):
        _generic(d)
        if kind == "materialize_ddl":
            alter_published(d, rename={"v": "value"}, add={"note": "string"})

    def op(d):
        if kind == "cow_upsert_feed":
            upsert_published(rd.from_arrow(UPDATES), d, deletes=rd.from_arrow(DELETES),
                             run_id="ups", feed_dir=d + "-feed")
        elif kind == "mor_upsert_deletes":
            upsert_published(rd.from_arrow(UPDATES), d, deletes=rd.from_arrow(DELETES),
                             run_id="ups", mode="mor")
        else:
            materialize_ddl(d, run_id="ddl")

    def check(d, ref):
        assert _sorted_table(d, ["k"]).equals(_sorted_table(ref, ["k"]))
        if feed:
            assert _feed_rows(d + "-feed") == _feed_rows(ref + "-feed")

    assert _every_crash_point(tmp_path, build, op, check) >= 3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a re-run upsert rewrites the buckets the crashed run already flipped "
    "from their new state, so their feed files are overwritten with no rows"))
def test_cow_upsert_feed_survives_every_crash_point(ray_session, tmp_path):
    test_generic_op_survives_every_crash_point(ray_session, tmp_path, "cow_upsert_feed",
                                               feed=True)
