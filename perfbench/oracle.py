"""Engine-independent expected state: DuckDB SQL over the generated change
log. Nothing here calls the engine; the semantics are restated in SQL:

- ``S`` events set per-partition thresholds (a change at LSN *L* governs
  that partition's events with ``lsn >= L``);
- data events with a null key or an unknown op are skipped, never applied;
- per key the event with the largest LSN wins; a winning ``D`` removes it;
- the payload is read under the schema active at the event's own LSN:
  ``score`` only once added, ``tool_name`` from physical ``tool`` before
  the rename and from ``tool_name`` after it, ``turn_idx`` widened.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa

from perfbench.harness import CANON, canonical

INT64_MAX = (1 << 63) - 1


class LogOracle:
    """Expected converged state of one change log at any LSN cut. The log
    is loaded once per run; each cut is one SQL query."""

    def __init__(self, log_dir: str) -> None:
        self.con = duckdb.connect()
        self.con.execute(
            "CREATE TABLE log AS SELECT * FROM read_parquet(?, hive_partitioning = true)",
            [f"{log_dir}/part=*/*.parquet"],
        )
        self.con.execute(
            f"""CREATE TABLE sch AS SELECT part,
              coalesce(min(lsn) FILTER (WHERE schema_change LIKE '%"add_column"%'), {INT64_MAX}) AS add_lsn,
              coalesce(min(lsn) FILTER (WHERE schema_change LIKE '%"rename_column"%'), {INT64_MAX}) AS rename_lsn
            FROM log WHERE op = 'S' GROUP BY part"""
        )

    def state(self, cut: int, conv_ids: list[str] | None = None) -> pa.Table:
        """Converged rows after every event with ``lsn <= cut`` (optionally
        only the given conversations), as a :data:`CANON` table."""
        keyf = ""
        params: list = [cut]
        if conv_ids is not None:
            keyf = "AND conv_id IN (SELECT unnest(?::VARCHAR[]))"
            params.append(list(conv_ids))
        t = self.con.execute(
            f"""WITH ev AS (
                  SELECT l.*, row_number() OVER (
                    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
                  FROM log l
                  WHERE op IN ('I', 'U', 'D') AND conv_id IS NOT NULL
                    AND turn_idx IS NOT NULL AND lsn <= ? {keyf})
                SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role, text,
                  CASE WHEN ev.lsn >= coalesce(s.rename_lsn, {INT64_MAX})
                       THEN ev.tool_name ELSE ev.tool END AS tool_name,
                  CASE WHEN ev.lsn >= coalesce(s.add_lsn, {INT64_MAX})
                       THEN ev.score END AS score,
                  ts
                FROM ev LEFT JOIN sch s USING (part)
                WHERE rn = 1 AND op <> 'D'""",
            params,
        ).arrow()
        return canonical(t) if len(t) else CANON.empty_table()

    def max_lsn(self) -> int:
        return int(self.con.execute("SELECT max(lsn) FROM log").fetchone()[0])

    def close(self) -> None:
        self.con.close()
