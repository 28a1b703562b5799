"""Interpreter for the shell commands NNF plugin scripts emit.

The paper implements each NNF plugin "as a collection of bash scripts
that control the basic lifecycle (create, update, etc.) of the NF".
To preserve that shape, the bundled plugins in :mod:`repro.nnf.plugins`
are literally lists of command strings (``ip netns add ...``,
``iptables -t nat -A POSTROUTING ...``); this module executes them
against a :class:`~repro.linuxnet.host.LinuxHost`.

Supported commands (the subset the plugins use):

* ``ip netns add|del NAME`` and the ``ip netns exec NS <cmd>`` prefix
* ``ip link add A type veth peer name B``
* ``ip link set DEV netns NS | up | down | mtu N | master BR | nomaster``
* ``ip link del DEV`` (in the command's namespace)
* ``ip addr add|del IP/PLEN dev DEV``
* ``ip route add|del CIDR|default [via GW] [dev DEV] [table N]``
* ``ip rule add|del fwmark MARK[/MASK] table N``
* ``ip neigh add IP lladdr MAC``
* ``ip xfrm state add src S dst D proto esp spi N enc HEX auth HEX``
* ``ip xfrm policy add src CIDR dst CIDR dir in|out tmpl src S dst D``
* ``ip xfrm state|policy flush``
* ``iptables [-t TABLE] -A|-I|-D|-N|-X|-P|-F ...``
* ``brctl addbr|delbr|addif|delif ...``
* ``sysctl -w KEY=VALUE``
* ``true`` / ``echo ...`` (no-ops, so scripts can log)

Words are separated by whitespace and there is no quoting: a command
containing ``'``, ``"`` or ``\\`` is a :class:`CommandError`, so the
words of a command and the command rebuilt from them with ``" "`` are
interchangeable.  :func:`inverse_script` maps a configure or path
script to the one that undoes it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.ipsec.sa import SecurityAssociation
from repro.linuxnet.conntrack import ConnState
from repro.linuxnet.devices import VlanDevice
from repro.linuxnet.host import LinuxHost
from repro.linuxnet.iptables import Match, Rule
from repro.linuxnet.routing import RouteTable
from repro.linuxnet.xfrm import Selector, XfrmDirection, XfrmPolicy, XfrmState
from repro.net.addresses import MacAddress

__all__ = ["CommandError", "ScriptRunner", "inverse_script"]

_PROTO_NAMES = {"icmp": 1, "tcp": 6, "udp": 17, "esp": 50}


class CommandError(Exception):
    """A script command failed (unknown syntax or invalid operation)."""


class ScriptRunner:
    """Executes command strings against one :class:`LinuxHost`."""

    def __init__(self, host: LinuxHost, namespace: str = LinuxHost.ROOT) -> None:
        self.host = host
        self.default_namespace = namespace

    # -- public API ---------------------------------------------------------
    def run_script(self, lines: "list[str] | str") -> None:
        """Run each non-empty, non-comment line of a script."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        for line in lines:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            self.run(text)

    def run(self, command: str) -> None:
        """Execute a single command string."""
        argv = _words(command)
        if argv:
            self._dispatch(argv, self.default_namespace, command)

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, argv: list[str], netns: str, original: str) -> None:
        program = argv[0]
        if program in ("true", "echo", ":"):
            return
        if program == "ip":
            self._ip(argv[1:], netns, original)
        elif program == "iptables":
            self._iptables(argv[1:], netns, original)
        elif program == "brctl":
            self._brctl(argv[1:], netns, original)
        elif program == "sysctl":
            self._sysctl(argv[1:], netns, original)
        else:
            raise CommandError(f"unknown program {program!r} in {original!r}")

    # -- ip ------------------------------------------------------------------------
    def _ip(self, args: list[str], netns: str, original: str) -> None:
        if not args:
            raise CommandError(f"bare 'ip' command: {original!r}")
        obj = args[0]
        if obj == "netns":
            self._ip_netns(args[1:], original)
        elif obj == "link":
            self._ip_link(args[1:], netns, original)
        elif obj in ("addr", "address"):
            self._ip_addr(args[1:], netns, original)
        elif obj == "route":
            self._ip_route(args[1:], netns, original)
        elif obj in ("neigh", "neighbor", "neighbour"):
            self._ip_neigh(args[1:], netns, original)
        elif obj == "rule":
            self._ip_rule(args[1:], netns, original)
        elif obj == "xfrm":
            self._ip_xfrm(args[1:], netns, original)
        else:
            raise CommandError(f"unsupported 'ip {obj}' in {original!r}")

    def _ip_netns(self, args: list[str], original: str) -> None:
        if len(args) >= 2 and args[0] == "add":
            self.host.add_namespace(args[1])
        elif len(args) >= 2 and args[0] in ("del", "delete"):
            self.host.delete_namespace(args[1])
        elif len(args) >= 3 and args[0] == "exec":
            inner_ns = args[1]
            if inner_ns not in self.host.namespaces:
                raise CommandError(f"no such namespace {inner_ns!r}")
            self._dispatch(args[2:], inner_ns, original)
        else:
            raise CommandError(f"unsupported 'ip netns' form: {original!r}")

    def _ip_link(self, args: list[str], netns: str, original: str) -> None:
        if not args:
            raise CommandError(f"bare 'ip link': {original!r}")
        if args[0] == "add":
            rest = args[1:]
            # ip link add A type veth peer name B
            if "type" in rest and "veth" in rest and "peer" in rest:
                name_a = rest[0]
                name_b = rest[rest.index("name") + 1]
                self.host.create_veth(name_a, name_b, ns_a=netns, ns_b=netns)
                return
            # ip link add link PARENT name NAME type vlan id VID
            if rest[:1] == ["link"] and "vlan" in rest and "id" in rest:
                parent_name = rest[1]
                name = rest[rest.index("name") + 1]
                vid = int(rest[rest.index("id") + 1])
                namespace = self.host.namespace(netns)
                parent = namespace.device(parent_name)
                sub = VlanDevice(parent, vid, name=name)
                namespace.add_device(sub)
                return
            raise CommandError(f"unsupported 'ip link add' form: {original!r}")
        if args[0] in ("del", "delete"):
            namespace = self.host.namespace(netns)
            device = namespace.devices.get(args[1])
            if device is None:
                raise CommandError(
                    f"no device {args[1]!r} in netns {netns!r}")
            if device.peer is not None:
                device.peer.peer = None
            if isinstance(device, VlanDevice):
                del device.parent.vlan_subdevices[device.vid]
            namespace.remove_device(device.name)
            return
        if args[0] == "set":
            dev_name = args[1]
            namespace = self.host.namespace(netns)
            if dev_name not in namespace.devices:
                raise CommandError(
                    f"no device {dev_name!r} in netns {netns!r}")
            device = namespace.devices[dev_name]
            rest = args[2:]
            i = 0
            while i < len(rest):
                word = rest[i]
                if word == "up":
                    device.set_up()
                    i += 1
                elif word == "down":
                    device.set_down()
                    i += 1
                elif word == "mtu":
                    device.mtu = int(rest[i + 1])
                    i += 2
                elif word == "netns":
                    self.host.move_device(dev_name, netns, rest[i + 1])
                    i += 2
                elif word == "master":
                    bridge = self.host.bridges.get(rest[i + 1])
                    if bridge is None:
                        raise CommandError(f"no bridge {rest[i + 1]!r}")
                    bridge.add_port(device)
                    i += 2
                elif word == "nomaster":
                    if device.bridge is not None:
                        device.bridge.remove_port(device.name)
                    i += 1
                elif word == "address":
                    device.mac = MacAddress(rest[i + 1])
                    i += 2
                else:
                    raise CommandError(
                        f"unsupported 'ip link set' token {word!r}")
            return
        raise CommandError(f"unsupported 'ip link' form: {original!r}")

    def _ip_addr(self, args: list[str], netns: str, original: str) -> None:
        if len(args) >= 4 and args[0] in ("add", "del") and args[2] == "dev":
            address = args[1]
            if "/" not in address:
                raise CommandError(f"address needs a prefix length: {original!r}")
            ip, _, plen = address.partition("/")
            device = self.host.namespace(netns).device(args[3])
            if args[0] == "add":
                device.add_address(ip, int(plen))
            else:
                device.remove_address(ip, int(plen))
            return
        raise CommandError(f"unsupported 'ip addr' form: {original!r}")

    def _ip_route(self, args: list[str], netns: str, original: str) -> None:
        if not args or args[0] not in ("add", "del"):
            raise CommandError(f"unsupported 'ip route' form: {original!r}")
        rest = args[1:]
        if not rest:
            raise CommandError(f"'ip route' needs a destination: {original!r}")
        destination = rest[0]
        if destination == "default":
            destination = "0.0.0.0/0"
        gateway: Optional[str] = None
        device: Optional[str] = None
        table_id: Optional[int] = None
        i = 1
        while i < len(rest):
            if rest[i] == "via":
                gateway = rest[i + 1]
                i += 2
            elif rest[i] == "dev":
                device = rest[i + 1]
                i += 2
            elif rest[i] == "table":
                table_id = int(rest[i + 1])
                i += 2
            else:
                raise CommandError(f"unsupported route token {rest[i]!r}")
        namespace = self.host.namespace(netns)
        if "/" not in destination:
            destination += "/32"
        if args[0] == "del":
            namespace.remove_route(destination, device, gateway, table_id)
            return
        if device is None and gateway is not None:
            hit = namespace.routes.lookup(gateway)
            if hit is None:
                raise CommandError(f"gateway {gateway} unreachable")
            device = hit.device
        if device is None:
            raise CommandError(f"route needs a device: {original!r}")
        # A non-main table exists once it holds a route.
        table = (namespace.routes if table_id is None
                 else namespace.route_tables.get(table_id, RouteTable()))
        table.add_cidr(destination, device, gateway=gateway)
        if table_id is not None:
            namespace.route_tables[table_id] = table

    def _ip_rule(self, args: list[str], netns: str, original: str) -> None:
        # ip rule add|del fwmark MARK[/MASK] table TABLE
        if (len(args) >= 5 and args[0] in ("add", "del")
                and args[1] == "fwmark" and args[3] == "table"):
            mark, mask = _mark_value(args[2])
            namespace = self.host.namespace(netns)
            if args[0] == "add":
                namespace.add_policy_rule(mark, int(args[4]), mask=mask)
            else:
                namespace.remove_policy_rule(mark, int(args[4]), mask=mask)
            return
        raise CommandError(f"unsupported 'ip rule' form: {original!r}")

    def _ip_neigh(self, args: list[str], netns: str, original: str) -> None:
        # ip neigh add IP lladdr MAC [dev DEV]
        if len(args) >= 4 and args[0] == "add" and args[2] == "lladdr":
            self.host.namespace(netns).neighbors[args[1]] = MacAddress(args[3])
            return
        raise CommandError(f"unsupported 'ip neigh' form: {original!r}")

    def _ip_xfrm(self, args: list[str], netns: str, original: str) -> None:
        namespace = self.host.namespace(netns)
        if args[:2] == ["state", "add"]:
            fields = _keyword_fields(args[2:])
            sa = SecurityAssociation(
                spi=int(fields["spi"], 0),
                src=fields["src"],
                dst=fields["dst"],
                enc_key=bytes.fromhex(fields["enc"]),
                auth_key=bytes.fromhex(fields["auth"]),
            )
            namespace.xfrm.add_state(XfrmState(sa=sa))
            return
        if args[:2] == ["state", "flush"]:
            namespace.xfrm.flush_states()
            return
        if args[:2] == ["policy", "add"]:
            fields = _keyword_fields(args[2:])
            direction = XfrmDirection(fields["dir"])
            # "tmpl src S dst D": the tmpl marker splits selector fields
            # from template fields; _keyword_fields keeps last wins, so
            # re-scan for the template endpoints explicitly.
            tmpl_index = args.index("tmpl")
            tmpl_fields = _keyword_fields(args[tmpl_index + 1:])
            selector_fields = _keyword_fields(args[2:tmpl_index])
            namespace.xfrm.add_policy(XfrmPolicy(
                selector=Selector(
                    src_cidr=_as_cidr(selector_fields["src"]),
                    dst_cidr=_as_cidr(selector_fields["dst"])),
                direction=direction,
                tmpl_src=tmpl_fields["src"],
                tmpl_dst=tmpl_fields["dst"],
            ))
            return
        if args[:2] == ["policy", "flush"]:
            namespace.xfrm.flush_policies()
            return
        raise CommandError(f"unsupported 'ip xfrm' form: {original!r}")

    # -- iptables --------------------------------------------------------------
    def _iptables(self, args: list[str], netns: str, original: str) -> None:
        namespace = self.host.namespace(netns)
        table_name = "filter"
        if args[:1] == ["-t"]:
            table_name = args[1]
            args = args[2:]
        table = namespace.iptables.table(table_name)
        if not args:
            raise CommandError(f"iptables without an action: {original!r}")
        action = args[0]
        if action == "-N":
            table.new_chain(args[1])
            return
        if action == "-X":
            table.delete_chain(args[1])
            return
        if action == "-P":
            table.chain(args[1]).policy = args[2]
            return
        if action == "-F":
            if len(args) > 1:
                table.chain(args[1]).flush()
            else:
                for chain in table.chains.values():
                    chain.flush()
            return
        if action in ("-A", "-I", "-D"):
            chain = table.chain(args[1])
            rest = args[2:]
            insert_at = 0
            if action == "-I" and rest and rest[0].isdigit():
                insert_at = int(rest[0]) - 1
                rest = rest[1:]
            rule = self._parse_rule(rest, original)
            if action == "-A":
                chain.append(rule)
            elif action == "-I":
                chain.insert(insert_at, rule)
            else:
                for index, existing in enumerate(chain.rules):
                    if existing.spec() == rule.spec():
                        chain.delete(index)
                        return
                raise CommandError(f"no matching rule to delete: {original!r}")
            return
        raise CommandError(f"unsupported iptables action {action!r}")

    def _parse_rule(self, tokens: list[str], original: str) -> Rule:
        match_kwargs: dict = {}
        target = None
        target_args: dict = {}
        invert = False
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "!":
                invert = True
                i += 1
                continue
            if tok == "-i":
                match_kwargs["in_iface"] = tokens[i + 1]
                i += 2
            elif tok == "-o":
                match_kwargs["out_iface"] = tokens[i + 1]
                i += 2
            elif tok == "-s":
                match_kwargs["src"] = tokens[i + 1]
                match_kwargs["invert_src"] = invert
                invert = False
                i += 2
            elif tok == "-d":
                match_kwargs["dst"] = tokens[i + 1]
                match_kwargs["invert_dst"] = invert
                invert = False
                i += 2
            elif tok == "-p":
                proto = tokens[i + 1]
                match_kwargs["proto"] = (
                    _PROTO_NAMES[proto] if proto in _PROTO_NAMES
                    else int(proto))
                i += 2
            elif tok == "--sport":
                match_kwargs["sport"] = _port_range(tokens[i + 1])
                i += 2
            elif tok == "--dport":
                match_kwargs["dport"] = _port_range(tokens[i + 1])
                i += 2
            elif tok == "-m":
                i += 2  # module name consumed; options follow
            elif tok == "--mark":
                match_kwargs["mark"] = _mark_value(tokens[i + 1])
                i += 2
            elif tok == "--ctstate":
                states = frozenset(ConnState(s)
                                   for s in tokens[i + 1].split(","))
                match_kwargs["ctstate"] = states
                i += 2
            elif tok == "-j":
                target = tokens[i + 1]
                i += 2
            elif tok == "--to-source":
                ip, _, port = tokens[i + 1].partition(":")
                target_args["to_ip"] = ip
                if port:
                    target_args["to_port"] = int(port)
                i += 2
            elif tok == "--to-destination":
                ip, _, port = tokens[i + 1].partition(":")
                target_args["to_ip"] = ip
                if port:
                    target_args["to_port"] = int(port)
                i += 2
            elif tok == "--set-mark":
                value, mask = _mark_value(tokens[i + 1])
                target_args["set_mark"] = value
                target_args["mask"] = mask
                i += 2
            elif tok == "--save-mark":
                target_args["op"] = "save"
                i += 1
            elif tok == "--restore-mark":
                target_args["op"] = "restore"
                i += 1
            elif tok == "--comment":
                i += 2
            else:
                raise CommandError(
                    f"unsupported iptables token {tok!r} in {original!r}")
        if target is None:
            raise CommandError(f"iptables rule without -j: {original!r}")
        if target == "CONNMARK" and "set_mark" in target_args:
            target_args.setdefault("op", "set")
            target_args["set_mark"] = target_args.pop("set_mark")
            target_args.pop("mask", None)
        return Rule(match=Match(**match_kwargs), target=target,
                    target_args=target_args)

    # -- brctl -----------------------------------------------------------------
    def _brctl(self, args: list[str], netns: str, original: str) -> None:
        if len(args) >= 2 and args[0] == "addbr":
            self.host.create_bridge(args[1])
        elif len(args) >= 2 and args[0] == "delbr":
            self.host.delete_bridge(args[1])
        elif len(args) >= 3 and args[0] == "addif":
            bridge = self.host.bridges.get(args[1])
            if bridge is None:
                raise CommandError(f"no bridge {args[1]!r}")
            device = self.host.namespace(netns).devices.get(args[2])
            if device is None:
                raise CommandError(
                    f"no device {args[2]!r} in netns {netns!r}")
            bridge.add_port(device)
        elif len(args) >= 3 and args[0] == "delif":
            bridge = self.host.bridges.get(args[1])
            if bridge is None:
                raise CommandError(f"no bridge {args[1]!r}")
            bridge.remove_port(args[2])
        else:
            raise CommandError(f"unsupported brctl form: {original!r}")

    # -- sysctl -----------------------------------------------------------------
    def _sysctl(self, args: list[str], netns: str, original: str) -> None:
        if len(args) >= 2 and args[0] == "-w" and "=" in args[1]:
            key, _, value = args[1].partition("=")
            key = key.strip()
            value = value.strip()
            # Namespace-scoped: `ip netns exec X sysctl -w
            # net.ipv4.ip_forward=1` flips forwarding in X only.
            if key == "net.ipv4.ip_forward":
                self.host.namespace(netns).ip_forward = value == "1"
                self.host.sysctls[f"{netns}:{key}"] = value
                return
            self.host.set_sysctl(key, value)
            return
        raise CommandError(f"unsupported sysctl form: {original!r}")


def inverse_script(commands: Iterable[str]) -> list[str]:
    """The script that undoes ``commands``, newest command first.

    ``iptables [-t T] -A C ...`` becomes ``-D C ...``; ``-N C`` becomes
    ``-F C``, ``-X C``, and rules the script appended to ``C`` are left
    to that flush; ``ip addr|route|rule add`` becomes ``... del``.  An
    ``ip netns exec NS`` prefix is kept.  Any other command raises
    :class:`CommandError`: nothing could undo it.
    """
    created: set[tuple[str, ...]] = set()
    undo: list[list[list[str]]] = []
    for command in commands:
        argv = _words(command)
        head = argv[:4] if argv[:3] == ["ip", "netns", "exec"] else []
        body = argv[len(head):]
        if body[:1] == ["iptables"]:
            head += body[:3] if body[1:2] == ["-t"] else body[:1]
            tail = argv[len(head):]
            verb, chain, rule = tail[:1], tail[1:2], tail[2:]
            if verb == ["-N"] and chain and not rule:
                created.add((*head, *chain))
                undo.append([head + ["-F"] + chain, head + ["-X"] + chain])
                continue
            if verb == ["-A"] and chain and rule:
                if (*head, *chain) not in created:
                    undo.append([head + ["-D"] + chain + rule])
                continue
        elif (body[:1] == ["ip"] and body[2:3] == ["add"]
                and body[1] in ("addr", "address", "route", "rule")):
            undo.append([head + body[:2] + ["del"] + body[3:]])
            continue
        raise CommandError(f"no inverse for {command!r}")
    return [" ".join(argv) for group in reversed(undo) for argv in group]


def _words(command: str) -> list[str]:
    """The words of ``command``; quoting is refused, not interpreted."""
    if "'" in command or '"' in command or "\\" in command:
        raise CommandError(f"quoting is not supported: {command!r}")
    return command.split()


def _port_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    port = int(text)
    return port, port


def _mark_value(text: str) -> tuple[int, int]:
    if "/" in text:
        value, _, mask = text.partition("/")
        return int(value, 0), int(mask, 0)
    return int(text, 0), 0xFFFFFFFF


def _keyword_fields(tokens: list[str]) -> dict[str, str]:
    """Parse ``key value key value ...`` token streams (ip xfrm style)."""
    fields: dict[str, str] = {}
    i = 0
    while i + 1 < len(tokens):
        if tokens[i] == "proto":  # "proto esp" — value is a keyword
            fields["proto"] = tokens[i + 1]
            i += 2
            continue
        fields[tokens[i]] = tokens[i + 1]
        i += 2
    return fields


def _as_cidr(text: str) -> str:
    return text if "/" in text else text + "/32"
