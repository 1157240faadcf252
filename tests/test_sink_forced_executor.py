"""The merge-on-read, stream-source, incremental-resume and replay kill/resume
suites, and the read suites (data skipping, Bloom filters, snapshots and a
read in the middle of a ``materialize_ddl``), re-run with the sink's
executor cutover forced to each extreme (``sink_executor`` in
``conftest.py``): every ``replay_publish``, ``incremental_apply``,
``compact_published`` and ``read_published`` runs in the driver, then every
one runs as a Ray Data job, and a test fails if one took the other executor.
The original modules run the same tests at the shipped cutover."""

import pytest

from tests.test_bloom import (  # noqa: F401
    bloom_table,
    test_bloom_layout_is_pinned,
    test_bloom_never_false_negative,
    test_bloom_prunes_equality_probe,
    test_bloom_refreshes_on_upsert_and_sweeps,
    test_bloom_survives_mor_compaction,
    test_mor_bucket_merges_before_bloom_answer,
    test_rename_swap_under_pending_ddl,
    test_table_written_with_sidecars_still_reads,
)
from tests.test_ddl import gen, test_materialize_crash_window_reads  # noqa: F401
from tests.test_sink_mor import *  # noqa: F401,F403
from tests.test_sink_resume import (  # noqa: F401
    test_incremental_apply_converges,
    test_incremental_feed_matches_generic_diff,
    test_kill_resume_exactly_once,
    test_kill_resume_partitioned_sink,
)
from tests.test_sink_snapshots import (  # noqa: F401
    prefixed,
    test_as_of_timestamp_time_travel,
    test_enable_on_existing_table_bootstraps,
    test_expiry_and_vacuum_respect_retention,
    test_mor_snapshot_survives_compaction,
    test_no_policy_means_no_snapshots,
    test_read_columns_pruning_and_versioned_lookup,
    test_restore_snapshot_rolls_back_and_reapplies,
    test_tail_log_records_version_per_round,
    test_time_travel_round_trip,
)
from tests.test_skipping import (  # noqa: F401
    published,
    test_bucket_prune_key_equality,
    test_clustered_publish_prunes_files,
    test_filtered_scan_blocks_carry_schema,
    test_null_semantics_match_sql,
    test_where_on_hash_table_matches_oracle,
    test_where_on_mor_table_filters_after_merge,
    test_where_prunes_everything_returns_typed_empty,
    test_zorder_publish_prunes_both_columns,
    test_zorder_resume_reuses_layout,
)
from tests.test_stream_source import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("sink_executor")
