"""Flow tables: OpenFlow-style matching with priorities and counters.

Lookup engine design (the node's hottest path — Figure 1 sends every
packet through at least two LSIs, so per-lookup cost multiplies along
the chain):

* **Compiled matches.**  A :class:`FlowMatch` compiles itself at
  construction into a tuple of closed-over predicate functions; CIDR
  strings are reduced to ``(network >> shift, shift)`` integer pairs via
  :func:`repro.net.addresses.compile_cidr`, so the per-packet test is
  two integer ops.  ``parse_cidr`` is **never** called after
  construction — the fast path touches no strings.

* **Two-level index.**  Entries are bucketed by the fields the steering
  layer always sets:

  1. *exact level* — hash buckets keyed on ``(in_port, vlan_vid)`` for
     entries with both fields concrete (``NO_VLAN`` keys untagged
     traffic);
  2. *port level* — per-``in_port`` buckets for entries whose VLAN is
     wildcarded (or :data:`ANY_VLAN`);
  3. *wildcard list* — everything with ``in_port`` wildcarded.

  Every bucket is kept priority-sorted (``bisect.insort`` on
  ``(-priority, entry_id)`` — no full re-sort per insert) and a lookup
  is a 3-way merge of the relevant buckets, returning the first
  compiled-predicate hit.  This preserves exact linear-scan semantics
  while visiting only the few entries that could possibly match.

* **Small-table bypass.**  Index-merge bookkeeping costs more than it
  saves on tiny tables, so lookups on tables of at most
  :data:`SMALL_TABLE_THRESHOLD` (16) entries scan the plain
  priority-sorted entry list directly (still with compiled
  predicates).  The buckets are maintained on every add/delete either
  way, so the table flips between modes for free as it grows past the
  threshold or shrinks back under it; ``FlowTable.index_active`` tells
  which mode the next lookup will use.

* **Correctness oracle.**  :meth:`FlowTable.lookup_linear` keeps the
  original priority-ordered linear scan (string-based matching and
  all); setting ``table.oracle = True`` cross-checks every lookup —
  in *both* bypass and indexed modes — against it and raises
  :class:`FlowTableOracleError` on any divergence.  The property-based
  suite drives both paths with random tables and frames.

* **Compiled actions.**  A :class:`FlowEntry` compiles its action list
  into one closure (:func:`repro.switch.actions.compile_actions`)
  at construction and caches it in ``entry.compiled``; the datapath
  executes that one closure per matching frame (see
  :class:`FlowEntry` for the rebinding rule).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from repro.net.addresses import MacAddress, compile_cidr, ip_to_int, \
    parse_cidr
from repro.net.builder import ParsedFrame
from repro.switch.actions import compile_actions

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.actions import Action, CompiledActions

__all__ = ["ANY_VLAN", "FlowEntry", "FlowMatch", "FlowTable",
           "FlowTableOracleError", "NO_VLAN", "SMALL_TABLE_THRESHOLD",
           "UNKNOWN_VLAN"]

#: Match any VLAN id (but the frame must be tagged).
ANY_VLAN = -1
#: Match only untagged frames.
NO_VLAN = -2
#: Not a match value but a *traffic* tag state for
#: :meth:`FlowTable.slice_winner`: tagged, id not statically known.
UNKNOWN_VLAN = -3

#: Predicate compiled from one concrete FlowMatch field.
MatchCheck = Callable[[int, ParsedFrame], bool]


@dataclass(frozen=True)
class FlowMatch:
    """Match criteria; ``None`` means wildcard.

    ``vlan_vid`` accepts a concrete VID, :data:`ANY_VLAN` (tagged, any
    id) or :data:`NO_VLAN` (untagged only) — the three cases the
    steering and adaptation layers need.

    Construction compiles the concrete fields into integer-only
    predicates (see module docstring); :meth:`hits` evaluates the
    compiled form, :meth:`hits_reference` the original string-based
    logic (kept as the oracle's reference).
    """

    in_port: Optional[int] = None
    eth_src: Optional[MacAddress] = None
    eth_dst: Optional[MacAddress] = None
    eth_type: Optional[int] = None
    vlan_vid: Optional[int] = None
    ip_src: Optional[str] = None     # CIDR
    ip_dst: Optional[str] = None     # CIDR
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.vlan_vid is not None and not (
                self.vlan_vid in (ANY_VLAN, NO_VLAN)
                or 0 <= self.vlan_vid <= 4095):
            raise ValueError(f"bad vlan_vid {self.vlan_vid}")
        # Validate CIDRs once and precompute their integer forms; also
        # compile the whole match so the hot path never parses strings.
        src_key = (None if self.ip_src is None
                   else compile_cidr(self.ip_src))
        dst_key = (None if self.ip_dst is None
                   else compile_cidr(self.ip_dst))
        object.__setattr__(self, "_src_key", src_key)
        object.__setattr__(self, "_dst_key", dst_key)
        object.__setattr__(self, "_checks", self._compile(src_key, dst_key))
        # True when in_port/vlan_vid are the only concrete fields — the
        # steering layer's standard shape.  The small-table bypass
        # checks those two inline and can then skip the predicate walk.
        object.__setattr__(self, "_port_vlan_only", all(
            getattr(self, name) is None
            for name in self._FIELDS if name not in ("in_port", "vlan_vid")))

    def _compile(self, src_key: Optional[tuple[int, int]],
                 dst_key: Optional[tuple[int, int]]) -> tuple[MatchCheck, ...]:
        checks: list[MatchCheck] = []
        if self.in_port is not None:
            want_port = self.in_port
            checks.append(lambda port, parsed: port == want_port)
        if self.eth_src is not None:
            want_src = self.eth_src
            checks.append(lambda port, parsed: parsed.eth.src == want_src)
        if self.eth_dst is not None:
            want_dst = self.eth_dst
            checks.append(lambda port, parsed: parsed.eth.dst == want_dst)
        if self.eth_type is not None:
            want_type = self.eth_type
            checks.append(
                lambda port, parsed: parsed.eth.ethertype == want_type)
        if self.vlan_vid is not None:
            vid = self.vlan_vid
            if vid == NO_VLAN:
                checks.append(lambda port, parsed: parsed.eth.vlan is None)
            elif vid == ANY_VLAN:
                checks.append(
                    lambda port, parsed: parsed.eth.vlan is not None)
            else:
                checks.append(lambda port, parsed: parsed.eth.vlan == vid)
        if src_key is not None:
            src_net, src_shift = src_key
            def check_src(port: int, parsed: ParsedFrame,
                          net: int = src_net, shift: int = src_shift) -> bool:
                ints = parsed.ip_ints
                return ints is not None and ints[0] >> shift == net
            checks.append(check_src)
        if dst_key is not None:
            dst_net, dst_shift = dst_key
            def check_dst(port: int, parsed: ParsedFrame,
                          net: int = dst_net, shift: int = dst_shift) -> bool:
                ints = parsed.ip_ints
                return ints is not None and ints[1] >> shift == net
            checks.append(check_dst)
        if self.ip_proto is not None:
            want_proto = self.ip_proto
            def check_proto(port: int, parsed: ParsedFrame) -> bool:
                packet = parsed.ipv4
                return packet is not None and packet.proto == want_proto
            checks.append(check_proto)
        # L4 port checks read the decoded segments directly instead of
        # five_tuple, which rebuilds a string-bearing tuple per call.
        # Reference semantics: non-IPv4 never matches; IPv4 without a
        # parsed L4 exposes ports as 0.
        if self.tp_src is not None:
            want_sport = self.tp_src
            def check_sport(port: int, parsed: ParsedFrame) -> bool:
                if parsed.ipv4 is None:
                    return False
                udp = parsed.udp
                if udp is not None:
                    return udp.src_port == want_sport
                tcp = parsed.tcp
                if tcp is not None:
                    return tcp.src_port == want_sport
                return want_sport == 0
            checks.append(check_sport)
        if self.tp_dst is not None:
            want_dport = self.tp_dst
            def check_dport(port: int, parsed: ParsedFrame) -> bool:
                if parsed.ipv4 is None:
                    return False
                udp = parsed.udp
                if udp is not None:
                    return udp.dst_port == want_dport
                tcp = parsed.tcp
                if tcp is not None:
                    return tcp.dst_port == want_dport
                return want_dport == 0
            checks.append(check_dport)
        return tuple(checks)

    def hits(self, in_port: int, parsed: ParsedFrame) -> bool:
        """Compiled predicate: no string parsing per packet."""
        for check in self._checks:  # type: ignore[attr-defined]
            if not check(in_port, parsed):
                return False
        return True

    def hits_reference(self, in_port: int, parsed: ParsedFrame) -> bool:
        """Original (pre-index) matching logic; the oracle's reference."""
        eth = parsed.eth
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and eth.src != self.eth_src:
            return False
        if self.eth_dst is not None and eth.dst != self.eth_dst:
            return False
        if self.eth_type is not None and eth.ethertype != self.eth_type:
            return False
        if self.vlan_vid is not None:
            if self.vlan_vid == NO_VLAN:
                if eth.vlan is not None:
                    return False
            elif self.vlan_vid == ANY_VLAN:
                if eth.vlan is None:
                    return False
            elif eth.vlan != self.vlan_vid:
                return False
        if self.ip_src is not None or self.ip_dst is not None \
                or self.ip_proto is not None:
            if parsed.ipv4 is None:
                return False
            if self.ip_src is not None and not _cidr_hit(
                    self.ip_src, parsed.ipv4.src):
                return False
            if self.ip_dst is not None and not _cidr_hit(
                    self.ip_dst, parsed.ipv4.dst):
                return False
            if self.ip_proto is not None \
                    and parsed.ipv4.proto != self.ip_proto:
                return False
        if self.tp_src is not None or self.tp_dst is not None:
            five = parsed.five_tuple
            if five is None:
                return False
            if self.tp_src is not None and five[3] != self.tp_src:
                return False
            if self.tp_dst is not None and five[4] != self.tp_dst:
                return False
        return True

    _FIELDS = ("in_port", "eth_src", "eth_dst", "eth_type", "vlan_vid",
               "ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst")

    def __reduce__(self):
        # The compiled predicate closures are not picklable; rebuild
        # from the declared fields (recompiles on unpickle).
        return (self.__class__,
                tuple(getattr(self, name) for name in self._FIELDS))

    def subsumes(self, other: "FlowMatch") -> bool:
        """True when every concrete field of self equals other's field.

        This is the filter semantics of a non-strict OpenFlow delete: a
        wildcarded (None) field in the delete match covers any value.
        """
        return all(
            getattr(self, name) is None
            or getattr(self, name) == getattr(other, name)
            for name in self._FIELDS)

    def describe(self) -> str:
        parts = []
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is not None:
                if name == "vlan_vid" and value == ANY_VLAN:
                    value = "any"
                elif name == "vlan_vid" and value == NO_VLAN:
                    value = "none"
                parts.append(f"{name}={value}")
        return ",".join(parts) or "*"


def _cidr_hit(cidr: str, address: str) -> bool:
    if "/" not in cidr:
        cidr += "/32"
    network, plen = parse_cidr(cidr)
    if plen == 0:
        return True
    shift = 32 - plen
    return (ip_to_int(address) >> shift) == (network >> shift)


_entry_ids = itertools.count(1)


@dataclass
class FlowEntry:
    """One installed flow: match, priority, action tuple, counters.

    ``actions`` is normalized to a tuple at construction and compiled
    into a fused per-frame closure, cached as :attr:`compiled` (the
    datapath calls it directly — see
    :func:`repro.switch.actions.compile_actions`).  In-place mutation
    of the action list is therefore impossible; **rebinding**
    ``entry.actions`` after construction is unsupported unless you call
    :meth:`invalidate` afterwards — otherwise an installed entry keeps
    executing its previously compiled program.
    """

    match: FlowMatch
    actions: Sequence["Action"]
    priority: int = 100
    cookie: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    packets: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        self._compile()
        #: Chain-fusion cache (see :mod:`repro.switch.fusion`).
        #: Tri-state: ``None`` — never traced; a
        #: :class:`~repro.switch.fusion.FusedChain` — the straight-line
        #: program for the whole chain starting at this entry; an
        #: ``int`` — "not fuseable", stamped with the tracing engine's
        #: epoch so a steering-level invalidation retries the trace.
        self.fused = None
        #: Back-references to the dispatch-table slots that resolve to
        #: this entry (see :class:`~repro.switch.fusion.FusionEngine`
        #: ``dispatch``).  When this entry's fused program is dropped,
        #: :meth:`drop_fused` stamps the slots stale through this list
        #: so no ``(in_port, vlan)`` slice keeps dispatching to it.
        self.dispatch: list = []

    def _compile(self) -> None:
        self.actions = tuple(self.actions)
        self.compiled: "CompiledActions" = compile_actions(self.actions)
        #: Egress port of a pure-output program, else None.  The batched
        #: datapath reads this per matched frame to skip the compiled
        #: call entirely for plain forwarding hops (the per-entry emit
        #: specialization), so it is cached here once per install.
        self.fast_out: "int | None" = getattr(self.compiled, "out_port",
                                              None)

    def drop_fused(self) -> bool:
        """Forget the chain-fusion verdict and stamp every dispatch
        slot that resolves to this entry stale; True when a *live*
        program (not a negative verdict) went.  Slots are stamped, not
        just unlinked: a batch loop that hoisted a per-port slot dict
        before the teardown ran (packet-in handler mid-batch) still
        holds them, and not one more frame may dispatch through."""
        slots = self.dispatch
        if slots:
            for slot in slots:
                slot[0] = -1
                slot[1] = None
                slot[2] = None
            del slots[:]
        cached = self.fused
        self.fused = None
        return cached is not None and type(cached) is not int

    def invalidate(self) -> None:
        """Recompile after ``entry.actions`` was rebound.

        The compiled closure is bound to the action tuple it was built
        from; call this if you replace ``entry.actions`` on a live
        entry (normally you should install a fresh entry instead).
        """
        self._compile()
        self.drop_fused()

    def __getstate__(self):
        # The compiled closure is not picklable; drop it and recompile
        # on unpickle (mirrors FlowMatch.__reduce__).  The fused-chain
        # cache and the dispatch-slot back-references point at live
        # ports, tables and slot lists, so neither ever travels — a
        # round-tripped entry must come back cold, not pointing into
        # some other process's dispatch state.
        state = self.__dict__.copy()
        del state["compiled"]
        state["fused"] = None
        state["dispatch"] = []
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._compile()

    def describe(self) -> str:
        acts = ",".join(str(a) for a in self.actions) or "drop"
        return (f"priority={self.priority} match[{self.match.describe()}] "
                f"actions[{acts}]")


class FlowTableOracleError(AssertionError):
    """Indexed lookup diverged from the reference linear scan."""


def _sort_key(entry: FlowEntry) -> tuple[int, int]:
    return (-entry.priority, entry.entry_id)


#: At or below this many entries, lookups scan the sorted entry list
#: directly instead of merging index buckets (see module docstring).
SMALL_TABLE_THRESHOLD = 16


class FlowTable:
    """Indexed flow table with priority add/modify/delete semantics.

    See the module docstring for the two-level index layout and the
    small-table bypass.  Public semantics are identical to a
    priority-ordered linear scan; set ``oracle = True`` to verify that
    on every lookup.  ``small_table_threshold`` is per-instance
    (default :data:`SMALL_TABLE_THRESHOLD`); set it to 0 to force the
    index on from the first entry.
    """

    def __init__(self, table_id: int = 0,
                 small_table_threshold: int = SMALL_TABLE_THRESHOLD) -> None:
        self.table_id = table_id
        self.small_table_threshold = small_table_threshold
        self._entries: list[FlowEntry] = []
        # Index level 1: (in_port, vid-or-NO_VLAN) -> sorted entries.
        self._exact: dict[tuple[int, int], list[FlowEntry]] = {}
        # Index level 2: in_port -> sorted entries with wildcard/ANY vlan.
        self._by_port: dict[int, list[FlowEntry]] = {}
        # Fallback: entries with wildcard in_port.
        self._wild: list[FlowEntry] = []
        self.lookups = 0
        self.matches = 0
        #: Monotonic generation counter, bumped on every add/delete/
        #: clear that changes the entry set.  Fused chain programs
        #: (:mod:`repro.switch.fusion`) record the version of every
        #: table they traversed and refuse to run against a table that
        #: has moved on — this is what makes a flow-mod anywhere along
        #: a fused chain an immediate, safe fallback to the per-hop
        #: path, even when the mod lands mid-batch.
        self.version = 0
        #: When True every lookup is cross-checked against the linear scan.
        self.oracle = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def index_active(self) -> bool:
        """True when the next lookup will use the two-level index
        (i.e. the table has outgrown the small-table bypass)."""
        return len(self._entries) > self.small_table_threshold

    def __iter__(self):
        return iter(self._entries)

    # -- index maintenance -------------------------------------------------
    def _index_of(self, match: FlowMatch) -> tuple:
        """``(index dict, key)`` of the bucket a match belongs to;
        ``(None, None)`` for the wildcard list."""
        if match.in_port is None:
            return None, None
        if match.vlan_vid is None or match.vlan_vid == ANY_VLAN:
            return self._by_port, match.in_port
        return self._exact, (match.in_port, match.vlan_vid)

    def _remove(self, entry: FlowEntry) -> None:
        """Take ``entry`` out of the entry list and its bucket — both by
        bisection, the sort key being unique per entry."""
        index, key = self._index_of(entry.match)
        bucket = self._wild if index is None else index[key]
        sort_key = _sort_key(entry)
        for entries in (self._entries, bucket):
            del entries[bisect_left(entries, sort_key, key=_sort_key)]
        if index is not None and not bucket:
            del index[key]

    # -- modification ------------------------------------------------------
    def add(self, entry: FlowEntry) -> None:
        """Install; replaces an entry with identical match+priority."""
        self.delete(match=entry.match, priority=entry.priority, strict=True)
        self.version += 1
        insort(self._entries, entry, key=_sort_key)
        index, key = self._index_of(entry.match)
        insort(self._wild if index is None else index.setdefault(key, []),
               entry, key=_sort_key)

    def delete(self, match: Optional[FlowMatch] = None,
               priority: Optional[int] = None, cookie: Optional[int] = None,
               strict: bool = False) -> int:
        """Remove matching entries; returns how many were removed.

        A strict delete (and so the replace probe of :meth:`add`) names
        one exact match, whose entries can only sit in the one index
        bucket that match belongs to: it costs that bucket, not the
        table.  A non-strict delete is a filter and scans every entry.
        """
        def doomed(entry: FlowEntry) -> bool:
            if cookie is not None and entry.cookie != cookie:
                return False
            if strict:
                return (entry.match == match
                        and (priority is None or entry.priority == priority))
            if match is not None and not match.subsumes(entry.match):
                return False
            if priority is not None and entry.priority != priority:
                return False
            return True

        if not strict:
            candidates = self._entries
        elif match is None:
            return 0
        else:
            index, key = self._index_of(match)
            candidates = self._wild if index is None else index.get(key, ())
        victims = [entry for entry in candidates if doomed(entry)]
        if not victims:
            return 0
        self.version += 1
        for entry in victims:
            self._remove(entry)
        return len(victims)

    def clear(self) -> int:
        count = len(self._entries)
        if count:
            self.version += 1
        self._entries.clear()
        self._exact.clear()
        self._by_port.clear()
        self._wild.clear()
        return count

    # -- lookup ------------------------------------------------------------
    def _select(self, in_port: int,
                parsed: ParsedFrame) -> Optional[FlowEntry]:
        """Candidate walk (bypass or indexed); no counter updates."""
        entries = self._entries
        if len(entries) <= self.small_table_threshold:
            # Small-table bypass: the priority-sorted entry list *is*
            # the merge result.  The two fields the steering layer
            # always sets are pre-filtered inline (plain integer
            # compares, no calls) so most non-candidates die before the
            # compiled predicate runs — this is what keeps the bypass
            # ahead of the bare reference scan.
            vlan = parsed.eth.vlan
            for entry in entries:
                match = entry.match
                want_port = match.in_port
                if want_port is not None and want_port != in_port:
                    continue
                want_vid = match.vlan_vid
                if want_vid is not None:
                    if want_vid >= 0:
                        if vlan != want_vid:
                            continue
                    elif want_vid == NO_VLAN:
                        if vlan is not None:
                            continue
                    elif vlan is None:  # ANY_VLAN
                        continue
                if match._port_vlan_only or match.hits(in_port, parsed):
                    return entry
            return None
        vlan = parsed.eth.vlan
        exact = self._exact.get(
            (in_port, vlan if vlan is not None else NO_VLAN))
        by_port = self._by_port.get(in_port)
        lists = [bucket for bucket in (exact, by_port) if bucket]
        if self._wild:
            lists.append(self._wild)
        if not lists:
            return None
        if len(lists) == 1:
            for entry in lists[0]:
                if entry.match.hits(in_port, parsed):
                    return entry
            return None
        if len(lists) == 2:
            # Manual two-list merge: the common case (exact bucket plus
            # one fallback list) and ~2x cheaper than heapq with a key.
            first, second = lists
            i = j = 0
            len_first, len_second = len(first), len(second)
            while i < len_first or j < len_second:
                if j >= len_second:
                    entry = first[i]
                    i += 1
                elif i >= len_first:
                    entry = second[j]
                    j += 1
                else:
                    head_a, head_b = first[i], second[j]
                    if (-head_a.priority, head_a.entry_id) \
                            <= (-head_b.priority, head_b.entry_id):
                        entry = head_a
                        i += 1
                    else:
                        entry = head_b
                        j += 1
                if entry.match.hits(in_port, parsed):
                    return entry
            return None
        for entry in _heap_merge(*lists, key=_sort_key):
            if entry.match.hits(in_port, parsed):
                return entry
        return None

    def lookup(self, in_port: int, parsed: ParsedFrame,
               count: bool = True) -> Optional[FlowEntry]:
        """Highest-priority matching entry, or None (table miss).

        ``parsed`` is whatever :class:`ParsedFrame` the pipeline
        carries — on a chain's later hops it is the view forwarded (or
        derived) from the previous LSI, not a fresh parse, so an IP/L4
        match here reuses the decode a hop upstream already paid for.
        Lookup never assumes a fresh parse and never mutates the view
        beyond triggering its lazy decode.

        ``count=False`` skips the per-entry counter updates; the batched
        datapath uses it and flushes accumulated counts once per batch
        through :meth:`credit`.
        """
        self.lookups += 1
        entry = self._select(in_port, parsed)
        if self.oracle:
            reference = self.lookup_linear(in_port, parsed)
            if reference is not entry:
                raise FlowTableOracleError(
                    f"table {self.table_id}: indexed lookup returned "
                    f"{entry and entry.describe()!r}, linear scan "
                    f"{reference and reference.describe()!r}")
        if entry is not None and count:
            self.matches += 1
            entry.packets += 1
            entry.bytes += parsed.wire_len
        return entry

    def lookup_linear(self, in_port: int,
                      parsed: ParsedFrame) -> Optional[FlowEntry]:
        """Reference pre-index linear scan (string matching, no counters)."""
        for entry in self._entries:
            if entry.match.hits_reference(in_port, parsed):
                return entry
        return None

    def slice_winner(self, in_port: int,
                     vlan: Optional[int]) -> Optional[FlowEntry]:
        """The frame-independent lookup winner of one ``(in_port, vlan)``
        traffic slice, or ``None`` when the slice's winner depends on
        frame contents (or the slice misses entirely).

        Chain fusion asks this of the ingress table (per dispatch
        slot) and of every downstream table (per traced hop): walk the
        priority order once and stop at the first entry whose port/VLAN
        constraints admit the slice.  If that entry matches on port
        and VLAN alone (``FlowMatch._port_vlan_only``) it wins every
        lookup any frame of the slice could run; if it also matches
        frame fields, some frames may fall through it to a different
        entry, so the slice has no single winner.  ``vlan`` is the
        slice's tag state: a concrete vid, ``None`` for untagged, or
        :data:`UNKNOWN_VLAN` (a traced branch that is tagged with an
        id the trace cannot know) — which makes any comparison with a
        concrete match undecidable, hence ``None``.
        """
        for entry in self._entries:
            match = entry.match
            want_port = match.in_port
            if want_port is not None and want_port != in_port:
                continue
            want_vid = match.vlan_vid
            if want_vid is not None:
                if want_vid >= 0:
                    if vlan == UNKNOWN_VLAN:
                        return None
                    if vlan != want_vid:
                        continue
                elif want_vid == NO_VLAN:
                    if vlan is not None:
                        continue
                else:  # ANY_VLAN
                    if vlan is None:
                        continue
            return entry if match._port_vlan_only else None
        return None

    def credit(self, entry: FlowEntry, packets: int, nbytes: int) -> None:
        """Flush batched counters for ``entry`` (see ``lookup(count=)``)."""
        self.matches += packets
        entry.packets += packets
        entry.bytes += nbytes

    def dump(self) -> list[str]:
        return [entry.describe() for entry in self._entries]
