"""Property-based oracle: indexed lookup ≡ reference linear scan.

Random tables of random :class:`FlowMatch` entries (priority ties,
wildcards, VLAN sentinels, CIDRs of every prefix length) against random
frames (UDP/TCP/ARP, tagged and untagged).  The lookup — in both the
small-table bypass mode and the forced two-level index mode — must
return the *identical* entry object as the pre-index priority-ordered
linear scan, and the compiled per-match predicate must agree with the
original string-based matching logic.

Flow-mods get the same treatment: ``add`` / strict ``delete`` take
their candidates from one index bucket and remove by bisection, so a
random sequence of mods is replayed against a test-local model that
scans everything, and the entry list, all three bucket levels, the
``version`` stamps and the return counts must come out equal.
"""

from hypothesis import given, settings, strategies as st

from repro.net import EthernetFrame, MacAddress, make_tcp_frame, \
    make_udp_frame, parse_frame
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.switch import FlowEntry, FlowMatch, FlowTable, Output
from repro.switch.flowtable import ANY_VLAN, NO_VLAN

MACS = [MacAddress(f"02:00:00:00:00:{i:02x}") for i in (1, 2, 3)]
IPS = ["10.0.0.1", "10.0.1.7", "10.1.0.1", "192.168.0.5"]
CIDRS = ["0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24",
         "10.0.0.1/32", "10.0.0.1", "192.168.0.0/24"]
PORTS = [1000, 2000, 3000]
VIDS = [1, 2, 3]

match_strategy = st.builds(
    FlowMatch,
    in_port=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    eth_src=st.one_of(st.none(), st.sampled_from(MACS)),
    eth_dst=st.one_of(st.none(), st.sampled_from(MACS)),
    eth_type=st.one_of(st.none(),
                       st.sampled_from([ETHERTYPE_IPV4, ETHERTYPE_ARP])),
    vlan_vid=st.one_of(st.none(),
                       st.sampled_from([ANY_VLAN, NO_VLAN] + VIDS)),
    ip_src=st.one_of(st.none(), st.sampled_from(CIDRS)),
    ip_dst=st.one_of(st.none(), st.sampled_from(CIDRS)),
    ip_proto=st.one_of(st.none(), st.sampled_from([6, 17])),
    tp_src=st.one_of(st.none(), st.sampled_from(PORTS)),
    tp_dst=st.one_of(st.none(), st.sampled_from(PORTS)),
)


@st.composite
def frame_strategy(draw):
    vlan = draw(st.one_of(st.none(), st.sampled_from(VIDS)))
    kind = draw(st.sampled_from(["udp", "tcp", "arp"]))
    src_mac = draw(st.sampled_from(MACS))
    dst_mac = draw(st.sampled_from(MACS))
    if kind == "arp":
        return EthernetFrame(dst=dst_mac, src=src_mac,
                             ethertype=ETHERTYPE_ARP, payload=b"arp",
                             vlan=vlan)
    maker = make_udp_frame if kind == "udp" else make_tcp_frame
    return maker(src_mac, dst_mac, draw(st.sampled_from(IPS)),
                 draw(st.sampled_from(IPS)), draw(st.sampled_from(PORTS)),
                 draw(st.sampled_from(PORTS)), b"x", vlan=vlan)


@given(match=match_strategy, frame=frame_strategy(),
       in_port=st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_compiled_match_agrees_with_reference(match, frame, in_port):
    parsed = parse_frame(frame)
    assert match.hits(in_port, parsed) \
        == match.hits_reference(in_port, parsed)


@given(
    matches=st.lists(st.tuples(match_strategy,
                               st.integers(min_value=1, max_value=5)),
                     min_size=0, max_size=25),
    frames=st.lists(st.tuples(frame_strategy(),
                              st.integers(min_value=1, max_value=4)),
                    min_size=1, max_size=8),
    threshold=st.sampled_from([0, 16]),
)
@settings(max_examples=100, deadline=None)
def test_indexed_lookup_identical_to_linear_scan(matches, frames, threshold):
    # threshold 0 forces the two-level index even on tiny tables;
    # 16 (the default) exercises the small-table bypass below it.
    table = FlowTable(small_table_threshold=threshold)
    table.oracle = True  # lookup() itself raises on any divergence
    for match, priority in matches:
        # dataclass equality means duplicate (match, priority) pairs
        # exercise the replace path; duplicate priorities exercise ties.
        table.add(FlowEntry(match=match, actions=(Output(1),),
                            priority=priority))
    for frame, in_port in frames:
        parsed = parse_frame(frame)
        indexed = table.lookup(in_port, parsed, count=False)
        linear = table.lookup_linear(in_port, parsed)
        assert indexed is linear


@given(
    matches=st.lists(st.tuples(match_strategy,
                               st.integers(min_value=1, max_value=3)),
                     min_size=2, max_size=20),
    frames=st.lists(st.tuples(frame_strategy(),
                              st.integers(min_value=1, max_value=4)),
                    min_size=1, max_size=5),
    drop=st.integers(min_value=0, max_value=19),
    threshold=st.sampled_from([0, 16]),
)
@settings(max_examples=50, deadline=None)
def test_index_stays_consistent_across_deletes(matches, frames, drop,
                                               threshold):
    table = FlowTable(small_table_threshold=threshold)
    table.oracle = True
    entries = []
    for match, priority in matches:
        entry = FlowEntry(match=match, actions=(Output(1),),
                          priority=priority)
        table.add(entry)
        entries.append(entry)
    victim = entries[drop % len(entries)]
    table.delete(match=victim.match, priority=victim.priority, strict=True)
    for frame, in_port in frames:
        parsed = parse_frame(frame)
        assert table.lookup(in_port, parsed, count=False) \
            is table.lookup_linear(in_port, parsed)


# -- flow-mods against a full-scan model --------------------------------------

#: Matches that collide on purpose: every vlan form on a few ports (so
#: each index bucket holds several distinct matches), wildcard ports,
#: and an L3 field that tells two matches of one bucket apart.
MOD_MATCHES = [
    FlowMatch(in_port=in_port, vlan_vid=vlan_vid, ip_dst=ip_dst)
    for in_port in (None, 1, 2)
    for vlan_vid in (None, ANY_VLAN, NO_VLAN, 1, 2)
    for ip_dst in (None, "10.0.0.0/8")]
#: Non-strict filters: everything, one port, one vlan form, one slice.
MOD_FILTERS = [None, FlowMatch(in_port=1), FlowMatch(vlan_vid=NO_VLAN),
               FlowMatch(in_port=2, vlan_vid=1),
               FlowMatch(ip_dst="10.0.0.0/8")]


class _ScanTable:
    """What ``FlowTable``'s modification API means, by full scans."""

    def __init__(self):
        self.entries = []
        self.version = 0

    def add(self, entry):
        self.delete(match=entry.match, priority=entry.priority, strict=True)
        self.version += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (-e.priority, e.entry_id))

    def delete(self, match=None, priority=None, cookie=None, strict=False):
        def doomed(entry):
            if cookie is not None and entry.cookie != cookie:
                return False
            if priority is not None and entry.priority != priority:
                return False
            if strict:
                return match is not None and entry.match == match
            return match is None or match.subsumes(entry.match)
        kept = [entry for entry in self.entries if not doomed(entry)]
        removed = len(self.entries) - len(kept)
        if removed:
            self.version += 1
            self.entries = kept
        return removed

    def buckets(self):
        exact, by_port, wild = {}, {}, []
        for entry in self.entries:
            match = entry.match
            if match.in_port is None:
                wild.append(entry)
            elif match.vlan_vid in (None, ANY_VLAN):
                by_port.setdefault(match.in_port, []).append(entry)
            else:
                exact.setdefault((match.in_port, match.vlan_vid),
                                 []).append(entry)
        return exact, by_port, wild


def _ids(bucket):
    return [entry.entry_id for entry in bucket]


mod_strategy = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(MOD_MATCHES),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("strict"), st.sampled_from(MOD_MATCHES),
              st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
              st.one_of(st.none(), st.integers(min_value=0, max_value=2))),
    st.tuples(st.just("filter"), st.sampled_from(MOD_FILTERS),
              st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
              st.one_of(st.none(), st.integers(min_value=0, max_value=2))),
)


@given(
    mods=st.lists(mod_strategy, min_size=1, max_size=60),
    frames=st.lists(st.tuples(frame_strategy(),
                              st.integers(min_value=1, max_value=3)),
                    min_size=1, max_size=4),
    threshold=st.sampled_from([0, 16]),
)
@settings(max_examples=150, deadline=None)
def test_flow_mods_equal_a_full_scan_model(mods, frames, threshold):
    table = FlowTable(small_table_threshold=threshold)
    table.oracle = True
    model = _ScanTable()
    for kind, match, priority, cookie in mods:
        if kind == "add":
            entry = FlowEntry(match=match, actions=(Output(1),),
                              priority=priority, cookie=cookie)
            table.add(entry)
            model.add(entry)
        else:
            kwargs = dict(match=match, priority=priority, cookie=cookie,
                          strict=kind == "strict")
            assert table.delete(**kwargs) == model.delete(**kwargs)
        assert table.version == model.version
        assert _ids(table) == _ids(model.entries)
        exact, by_port, wild = model.buckets()
        assert {key: _ids(bucket) for key, bucket in table._exact.items()} \
            == {key: _ids(bucket) for key, bucket in exact.items()}
        assert {key: _ids(bucket) for key, bucket in table._by_port.items()} \
            == {key: _ids(bucket) for key, bucket in by_port.items()}
        assert _ids(table._wild) == _ids(wild)
    for frame, in_port in frames:
        table.lookup(in_port, parse_frame(frame), count=False)  # oracle on
    # a strict delete without a match names nothing
    assert table.delete(strict=True) == 0
    assert table.delete(cookie=1, strict=True) == 0
