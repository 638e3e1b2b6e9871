"""The cluster manifest: written atomically, refused with a typed error
when it cannot be read back."""

import json

import pytest

from repro.cluster import Cluster, ClusterTopology
from repro.engines import IndexSpec
from repro.errors import ClusterError, CorruptionError


@pytest.fixture()
def saved(tied_data, tmp_path):
    cluster = Cluster(ClusterTopology(n_shards=2))
    cluster.create_collection("docs", tied_data.shape[1],
                              IndexSpec.of("flat"))
    cluster.insert("docs", tied_data)
    cluster.flush("docs")
    cluster.save(tmp_path)
    return tmp_path / "cluster.json"


def test_save_replaces_the_manifest_atomically(saved, monkeypatch):
    import repro.cluster.cluster as module
    writes = []
    real = module.atomic_write_bytes

    def spy(path, data, **kwargs):
        writes.append(path.name)
        real(path, data, **kwargs)

    monkeypatch.setattr(module, "atomic_write_bytes", spy)
    Cluster.load(saved.parent).save(saved.parent)
    assert writes == ["cluster.json"]
    assert not list(saved.parent.glob("*.tmp"))
    assert Cluster.load(saved.parent).list_collections() == ["docs"]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda raw: raw[:len(raw) // 2], id="truncated"),
    pytest.param(lambda raw: b"", id="empty"),
    pytest.param(lambda raw: b"\xff\xfe" + raw, id="garbled"),
    pytest.param(lambda raw: json.dumps(
        {k: v for k, v in json.loads(raw).items()
         if k != "routing"}).encode(), id="missing-key"),
])
def test_unreadable_manifest_is_a_corruption_error(saved, damage):
    saved.write_bytes(damage(saved.read_bytes()))
    with pytest.raises(CorruptionError, match="cluster.json") as info:
        Cluster.load(saved.parent)
    assert info.value.file == "cluster.json"


def test_missing_manifest_is_a_cluster_error(tmp_path):
    with pytest.raises(ClusterError, match="no cluster manifest"):
        Cluster.load(tmp_path)
