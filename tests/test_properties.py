"""Round-trip invariants checked on generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chitomo.estimator import (  # noqa: E402
    TripletLogError,
    TripletRecord,
    read_triplet_log,
    write_triplet_log,
)
from chitomo.pauli import (  # noqa: E402
    MUB_QUBIT_CAP,
    commutation_vector,
    label_from_index,
    label_index,
    mub_class,
    solve_label_from_constraints,
)


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
    """The writer's bytes are the record formatted line by line, and the
    reader gives the record back."""
    path = tmp_path_factory.mktemp("logs") / "t.log"
    write_triplet_log(path, record, seed, "ab" * 32)
    n = record.n
    bits = [format(v, f"0{n}b")[::-1] for v in range(2**n)]  # bit 0 first
    lines = [f"{j}\t{bits[k]}\t{bits[kp]}\n"
             for j, k, kp in zip(record.J.tolist(), record.k.tolist(), record.k_prime.tolist())]
    header = f"# seqpt-triplets v1 n={n} seed={seed} M={len(record)} channel={'ab' * 32}\n"
    assert path.read_bytes() == (header + "".join(lines)).encode()
    loaded, meta = read_triplet_log(path)
    assert loaded == record
    assert meta == {"n": record.n, "seed": seed, "M": len(record), "channel": "ab" * 32}
    assert all(col.dtype == np.int64 for col in (loaded.J, loaded.k, loaded.k_prime))


# Bytes that no field of a record line may hold; a lone CR, form feed and
# \x1c were line separators to Python's universal newlines.
_FOREIGN = [b"x", b" ", b"+", b"_", b"\t", b"\r", b"\x0c", b"\x1c", b"\xff", "é".encode()]


@settings(max_examples=40, deadline=None)
@given(record=records(), data=st.data())
def test_corrupted_log_line_named(tmp_path_factory, record, data):
    """Corrupting one record line of a valid log makes the reader name that line."""
    path = tmp_path_factory.mktemp("logs") / "t.log"
    write_triplet_log(path, record, 0, "ab" * 32)
    lines = path.read_bytes().split(b"\n")
    i = data.draw(st.integers(1, len(record)), label="line index")
    line = lines[i]
    how = data.draw(st.sampled_from(["insert", "drop-last", "blank"]), label="corruption")
    if how == "insert":  # anywhere but the end, where a CR would read as CRLF
        at = data.draw(st.integers(0, len(line) - 1), label="position")
        line = line[:at] + data.draw(st.sampled_from(_FOREIGN), label="byte") + line[at:]
    elif how == "drop-last":
        line = line[:-1]
    else:
        line = b""
    lines[i] = line
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(TripletLogError, match=f"^line {i + 1}: "):
        read_triplet_log(path)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, MUB_QUBIT_CAP))
def test_label_index_round_trip(data, n):
    idx = data.draw(st.integers(0, 4**n - 1))
    label = label_from_index(n, idx)
    assert label.n == n
    assert label_index(label) == idx


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, MUB_QUBIT_CAP))
def test_label_recovered_from_two_bases(data, n):
    """Two commutation vectors from distinct bases pin down the label: two cosets meet once."""
    label = label_from_index(n, data.draw(st.integers(0, 4**n - 1)))
    j_a, j_b = data.draw(st.lists(st.integers(0, 2**n), min_size=2, max_size=2, unique=True))
    class_a, class_b = mub_class(n, j_a), mub_class(n, j_b)
    p_a, p_b = commutation_vector(label, class_a), commutation_vector(label, class_b)
    assert solve_label_from_constraints(class_a, p_a, class_b, p_b) == label
