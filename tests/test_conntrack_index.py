"""The entry-valued conntrack index against the tuple-valued one.

``ConnTrack`` maps each directional tuple straight to its entry and
reads the direction off the entry.  The reference below is the table it
replaced, which stored ``(entry, direction)`` under every tuple.  Random
create / NAT / remove / flush sequences over a tiny address and port
alphabet make self-reverse tuples (orig == reply) and tuples that two
entries claim at once; after every step both tables must answer every
lookup, ``len`` and ``entries()`` the same way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.linuxnet.conntrack import ConnTrack, ConnTrackEntry, FlowTuple


class ReferenceConnTrack:
    """The tuple-valued table: ``_by_tuple[flow] = (entry, direction)``."""

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self._by_tuple = {}
        self.insert_failures = 0

    def __len__(self):
        return len(self._by_tuple) // 2 + len(self._by_tuple) % 2

    def lookup(self, flow):
        return self._by_tuple.get(flow)

    def create(self, flow):
        if len(self._by_tuple) // 2 >= self.max_entries:
            self.insert_failures += 1
            raise OverflowError("conntrack table full")
        entry = ConnTrackEntry(orig=flow, reply=flow.reversed())
        self._by_tuple[flow] = (entry, "orig")
        self._by_tuple[entry.reply] = (entry, "reply")
        return entry

    def apply_nat(self, entry):
        del self._by_tuple[entry.reply]
        src_ip, src_port = entry.orig.src_ip, entry.orig.src_port
        dst_ip, dst_port = entry.orig.dst_ip, entry.orig.dst_port
        if entry.snat is not None:
            src_ip = entry.snat[0]
            src_port = entry.snat[1] or src_port
        if entry.dnat is not None:
            dst_ip = entry.dnat[0]
            dst_port = entry.dnat[1] or dst_port
        entry.reply = FlowTuple(src_ip=dst_ip, dst_ip=src_ip,
                                proto=entry.orig.proto,
                                src_port=dst_port, dst_port=src_port)
        self._by_tuple[entry.reply] = (entry, "reply")

    def remove(self, entry):
        self._by_tuple.pop(entry.orig, None)
        self._by_tuple.pop(entry.reply, None)

    def flush(self):
        self._by_tuple.clear()

    def entries(self):
        return [entry for entry, direction in self._by_tuple.values()
                if direction == "orig"]


_IPS = st.sampled_from(["10.0.0.1", "10.0.0.2"])
_PORTS = st.sampled_from([0, 1, 2])
_FLOWS = st.builds(FlowTuple, src_ip=_IPS, dst_ip=_IPS, proto=st.just(6),
                   src_port=_PORTS, dst_port=_PORTS)
_ENTRY_INDEX = st.integers(min_value=0, max_value=15)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), _FLOWS),
    st.tuples(st.just("create"), _FLOWS),
    st.tuples(st.just("snat"), _ENTRY_INDEX, _IPS, _PORTS),
    st.tuples(st.just("dnat"), _ENTRY_INDEX, _IPS, _PORTS),
    st.tuples(st.just("remove"), _ENTRY_INDEX),
    st.tuples(st.just("flush")),
), max_size=40)


def _run(table, op, created):
    """Apply ``op``; return its outcome (an exception type or None)."""
    try:
        if op[0] == "create":
            created.append(table.create(op[1]))
        elif op[0] == "flush":
            table.flush()
        elif not created:
            return None
        else:
            entry = created[op[1] % len(created)]
            if op[0] == "remove":
                table.remove(entry)
            else:
                setattr(entry, op[0], (op[2], op[3]))
                table.apply_nat(entry)
    except (KeyError, OverflowError) as exc:
        return type(exc)
    return None


def _index(entry, created):
    """Which ``create`` call made ``entry``."""
    return next(i for i, made in enumerate(created) if made is entry)


def _answer(found, created):
    """A lookup result with the entry replaced by its creation index."""
    if found is None:
        return None
    entry, direction = found
    return _index(entry, created), direction


@settings(max_examples=400, deadline=None)
@given(_OPS, st.sampled_from([4, 65536]))
def test_entry_index_answers_like_the_tuple_index(ops, max_entries):
    table, reference = ConnTrack(max_entries), ReferenceConnTrack(max_entries)
    created, ref_created = [], []
    seen = set()
    for op in ops:
        assert _run(table, op, created) == _run(reference, op, ref_created)
        assert len(created) == len(ref_created)
        for entry in created:
            seen.update((entry.orig, entry.reply))
        for flow in seen:
            assert _answer(table.lookup(flow), created) \
                == _answer(reference.lookup(flow), ref_created), (op, flow)
        assert len(table) == len(reference)
        assert [_index(e, created) for e in table.entries()] \
            == [_index(e, ref_created) for e in reference.entries()]
        assert table.insert_failures == reference.insert_failures


def test_self_reverse_flow_reads_as_reply_like_the_reference():
    flow = FlowTuple("10.0.0.1", "10.0.0.1", 6, 1, 1)
    table, reference = ConnTrack(), ReferenceConnTrack()
    entry, ref_entry = table.create(flow), reference.create(flow)
    assert table.lookup(flow) == (entry, "reply")
    assert reference.lookup(flow) == (ref_entry, "reply")
    assert table.entries() == [] and reference.entries() == []


@pytest.mark.parametrize("instance", [
    FlowTuple("10.0.0.1", "10.0.0.2", 6, 1, 2),
    ConnTrackEntry(orig=FlowTuple("10.0.0.1", "10.0.0.2", 6, 1, 2),
                   reply=FlowTuple("10.0.0.2", "10.0.0.1", 6, 2, 1)),
], ids=["FlowTuple", "ConnTrackEntry"])
def test_per_flow_state_has_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__")
