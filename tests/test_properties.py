"""Round-trip invariants checked on generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chitomo.estimator import TripletRecord, read_triplet_log, write_triplet_log  # noqa: E402
from chitomo.pauli import MUB_QUBIT_CAP, label_from_index, label_index  # noqa: E402


@st.composite
def records(draw):
    n = draw(st.integers(1, MUB_QUBIT_CAP))
    d = 2**n
    m_count = draw(st.integers(1, 40))
    columns = (
        draw(st.lists(st.integers(0, top), min_size=m_count, max_size=m_count))
        for top in (d, d - 1, d - 1)
    )
    return TripletRecord(n, *columns)


@settings(max_examples=30, deadline=None)
@given(record=records(), seed=st.integers(-(2**63), 2**63 - 1))
def test_log_write_read_round_trip(tmp_path_factory, record, seed):
    path = tmp_path_factory.mktemp("logs") / "t.log"
    write_triplet_log(path, record, seed, "ab" * 32)
    loaded, meta = read_triplet_log(path)
    assert loaded == record
    assert meta == {"n": record.n, "seed": seed, "M": len(record), "channel": "ab" * 32}
    assert all(col.dtype == np.int64 for col in (loaded.J, loaded.k, loaded.k_prime))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, MUB_QUBIT_CAP))
def test_label_index_round_trip(data, n):
    idx = data.draw(st.integers(0, 4**n - 1))
    label = label_from_index(n, idx)
    assert label.n == n
    assert label_index(label) == idx
