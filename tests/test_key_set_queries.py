"""The registered key-set queries match their DuckDB oracles on both
sides of ``joins.KEY_SET_BROADCAST_BYTES``: the default bound
(broadcast key set) and 0 (keyed exchanges), over the sf0.001 tables."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

from oracle_frames import compare, oracle_connection  # noqa: E402
from test_textfiles import SF  # noqa: E402  (the sf0.001 tables)


@pytest.mark.parametrize("bound", ["default", 0])
@pytest.mark.parametrize("name", ["decontaminate_planted", "boilerplate_removed_planted"])
def test_key_set_query_matches_oracle(name, bound, monkeypatch):
    from metacache_mpi_ray.functions import blocks
    from metacache_mpi_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from metacache_mpi_ray.stages import joins

    if bound != "default":
        monkeypatch.setattr(joins, "KEY_SET_BROADCAST_BYTES", bound)
    broadcasts = []
    real = blocks.assemble_sorted_i64
    monkeypatch.setattr(
        blocks, "assemble_sorted_i64", lambda *a: broadcasts.append(1) or real(*a)
    )
    out = QUERIES[name](SF).to_pandas()
    res = compare(out, oracle_connection(SF).execute(ORACLE_SQL[name]).df())
    assert res["ok"], res
    assert res["rows"] > 0
    assert len(broadcasts) == (1 if bound == "default" else 0)
