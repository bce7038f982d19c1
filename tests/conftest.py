import logging

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
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
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Deterministic 500-doc pages corpus with planted duplicates."""
    from metacache_mpi_ray.sources.pages import write_pages_corpus

    out = tmp_path_factory.mktemp("corpus")
    return write_pages_corpus(str(out), 500, seed=42)


@pytest.fixture
def key_set_side(monkeypatch):
    """``pin(side)`` puts the key-set step (``joins.probe_key_set``, the
    Bloom switch and ``filter_unseen``'s exact verify) on one side of
    ``joins.KEY_SET_BROADCAST_BYTES``: ``"broadcast"`` keeps the default
    bound, ``"join"`` sets it to -1, so every key set, even an empty
    one, takes the keyed-exchange side."""
    from metacache_mpi_ray.stages import joins

    bounds = {"broadcast": joins.KEY_SET_BROADCAST_BYTES, "join": -1}

    def pin(side: str) -> None:
        monkeypatch.setattr(joins, "KEY_SET_BROADCAST_BYTES", bounds[side])

    return pin
