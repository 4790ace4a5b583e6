"""The deterministic registry: blocks, gas, fees, and immutability.

Registers a batch of slides, then walks through what the dev-chain
model guarantees: one block per registration, near-constant gas, a
base fee that decays toward the priority-tip floor, and hard rejection
of duplicates and invalid ids.
"""

from slideprov import AlreadyRegistered, InvalidLecture, Ledger, SlideKey

ledger = Ledger()

items = [
    (SlideKey(1, i), "0x" + f"{i:064x}", f"Lecture 1/Slide{i}.json".ljust(30, " "))
    for i in range(1, 13)
]
receipts, summary = ledger.batch_register(items)

print("block  time  gas      price(gwei)  cost(USD)")
# Receipts and totals are whole wei; a report divides once, at the end.
rate = ledger.fee_config.eth_usd_rate


def usd(wei: int) -> float:
    return wei * rate.numerator / (10**18 * rate.denominator)


for r in receipts:
    print(f"{r.block_number:>5}  {r.timestamp:>4}  {r.gas_used}  "
          f"{r.price_wei / 10**9:<11.6f}  {usd(r.gas_used * r.price_wei):.6f}")

print(f"\ntotal gas {summary.total_gas} = {summary.registered} x {receipts[0].gas_used}:",
      summary.total_gas == summary.registered * receipts[0].gas_used)
print(f"elapsed {summary.elapsed_seconds}s modeled, throughput {summary.throughput:.4f}/s")
print(f"total cost {summary.total_cost_wei} wei = {summary.total_cost_wei / 10**18:.6f} ETH"
      f" (${usd(summary.total_cost_wei):.2f} at the configured rate)")

# The registry is append-only: same key again is a hard error.
try:
    ledger.register_slide(SlideKey(1, 1), "0x" + "ee" * 32, "new uri")
except AlreadyRegistered as exc:
    print("\nduplicate rejected:", exc)
print("original hash still stored:", ledger.get_slide(SlideKey(1, 1)).slide_hash[:18], "...")

try:
    ledger.register_slide(SlideKey(0, 1), "0x" + "ee" * 32, "uri")
except InvalidLecture as exc:
    print("zero lecture rejected: ", exc)

# Export is canonical: a reloaded ledger is indistinguishable.
import json
reloaded = Ledger.from_document(json.loads(ledger.export_bytes()))
print("\nexport -> import round trip equal:", reloaded == ledger)
print("export is byte-stable:", reloaded.export_bytes() == ledger.export_bytes())
