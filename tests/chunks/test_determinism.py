"""Chunk-stack determinism: same seed, same bytes — on either kernel.

The durability claims are only checkable because every run of the same
scenario produces a byte-identical directory fingerprint; this is the
gate that keeps the chunk stack inside the repo's determinism contract.
"""

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim import flowtable

SITES = ["hub", "s1", "s2", "s3"]
SIZE = 4_000_000.0


def _scenario(seed=2001):
    """Upload, damage, scrub/repair, fetch — return the run's canonical
    fingerprint (directory + queue state + every fetch fingerprint)."""
    grid = DataGrid(
        [GdmpConfig(name) for name in SITES],
        catalog_host="hub",
        seed=seed,
    )
    runtime = ChunkRuntime(grid, ChunkConfig(
        k=2, m=1, placement_sites=["s1", "s2", "s3"],
        directory_host="hub", poll=2.0,
    ))
    hub = runtime.store("hub")
    for name in ("obj-a", "obj-b"):
        grid.run(until=hub.put_object(name, SIZE, f"key-{name}", 2, 1))
    spec = runtime.directory.manifests["obj-a"].chunks[0]
    holder = next(iter(runtime.directory.locations[spec.chunk_id]))
    grid.site(holder).fs.corrupt(spec.path)
    grid.run(until=runtime.run_scrub_pass(poll=2.0))
    fetches = []
    for name in ("obj-a", "obj-b"):
        report = grid.run(until=hub.fetch_object(name, f"local/{name}"))
        fetches.append(f"{name}={report.fingerprint}")
    return runtime.fingerprint() + "\n" + " ".join(fetches)


def test_same_seed_is_byte_identical():
    assert _scenario(2001) == _scenario(2001)


def test_different_seed_moves_the_placement():
    # different salt -> different stripe starts; the directory state
    # (which includes replica holders) must differ
    assert _scenario(2001) != _scenario(2002)


def test_scalar_and_vector_kernels_agree(monkeypatch):
    # every table of the default "auto" kernel reads the cutover when it
    # is built: above any flow count is all-scalar, zero is all-vector
    monkeypatch.setattr(flowtable, "VECTOR_MIN_FLOWS", 10**9)
    scalar = _scenario()
    monkeypatch.setattr(flowtable, "VECTOR_MIN_FLOWS", 0)
    vector = _scenario()
    assert scalar == vector
