"""Registration cost extrapolation across network fee profiles.

Per-registration gas is near-constant, so total gas is exactly linear
in corpus size; the only real lever is where you register.  The same
million-record corpus differs by 30x between the L1 profile and the
cheapest rollup profile.
"""

from slideprov import NetworkProfile, project
from slideprov.reports import format_cell

for n in (1_000, 10_000, 100_000, 1_000_000):
    print(f"\n{n:>9,} records:")
    for p in project(n):
        hours = float(p.expected_seconds) / 3600
        print(f"  {p.network:>14} @ {format_cell(p.gas_price_gwei):>4} gwei:"
              f" {p.total_gas:>16,} gas  {format_cell(p.total_cost_eth):>12} ETH"
              f"  ${format_cell(p.total_cost_usd):>12}  (~{hours:,.1f}h at 1/s)")

million = {p.network: p for p in project(1_000_000)}
ratio = million["ethereum-l1"].total_cost_usd / million["optimistic-l2"].total_cost_usd
print(f"\nL1 vs optimistic-L2 cost ratio at any fixed n: exactly {ratio}")

# custom profiles are one line each
print("\na hypothetical 0.05-gwei data-availability layer:")
for p in project(1_000_000, profiles=[NetworkProfile("custom-da", "0.05")]):
    print(f"  {p.network}: {format_cell(p.total_cost_eth)} ETH (${format_cell(p.total_cost_usd)})")
