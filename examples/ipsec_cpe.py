#!/usr/bin/env python3
"""The paper's validation scenario (§3): an IPsec endpoint on the CPE.

"a customer activates an IPSec endpoint VNF on his domestic CPE [...]
We compare the cost of running the Strongswan IPSec endpoint,
configured to use the ESP protocol in tunnel mode, as a NNF, a Docker
container and a VM using KVM/QEMU as hypervisor."

The script deploys the same NF three times (pinned per technology),
verifies each deployment really encrypts on the wire, and prints the
reproduced Table 1 next to the paper's numbers.
"""

from repro.perf.table1 import render_table, run_table1


def main() -> None:
    print("Reproducing Table 1 (three deployments + calibrated cost "
          "model)...\n")
    rows = run_table1()
    print(render_table(rows))
    print()
    for row in rows:
        status = "ok" if (row.probe_delivered and row.esp_on_wire) \
            else "FAILED"
        print(f"  {row.flavor:<8} dataplane probe: frame delivered and "
              f"ESP-encrypted on the WAN wire [{status}]")
    print("\nper-packet cost breakdown (1500B frames):")
    for row in rows:
        parts = ", ".join(f"{name}={seconds*1e6:.2f}us"
                          for name, seconds in sorted(
                              row.breakdown.items()))
        print(f"  {row.flavor:<8} {parts}")

    native = next(r for r in rows if r.flavor == "native")
    docker = next(r for r in rows if r.flavor == "docker")
    vm = next(r for r in rows if r.flavor == "vm")
    print("\nshape checks (what the paper's Table 1 shows):")
    print(f"  VM/native throughput ratio: "
          f"{vm.throughput_mbps / native.throughput_mbps:.3f} "
          f"(paper: {796/1094:.3f})")
    print(f"  docker ~= native: "
          f"{docker.throughput_mbps / native.throughput_mbps:.3f}")
    print(f"  image ratio VM:docker:native = "
          f"{vm.image_mb:.0f}:{docker.image_mb:.0f}:{native.image_mb:.0f}")


if __name__ == "__main__":
    main()
