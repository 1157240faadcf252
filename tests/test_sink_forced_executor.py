"""The merge-on-read, stream-source, incremental-resume and replay kill/resume
suites re-run with the sink's executor cutover forced to each extreme
(``sink_executor`` in ``conftest.py``): every ``replay_publish``,
``incremental_apply`` and ``compact_published`` runs in the driver, then
every one runs as a Ray Data job. The original modules run the same tests
at the shipped cutover."""

import pytest

from tests.test_sink_mor import *  # noqa: F401,F403
from tests.test_sink_resume import (  # noqa: F401
    test_incremental_apply_converges,
    test_incremental_feed_matches_generic_diff,
    test_kill_resume_exactly_once,
    test_kill_resume_partitioned_sink,
)
from tests.test_stream_source import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("sink_executor")
