"""``register`` reports every fee figure as the float of its exact rational.

The ledger keeps whole wei; the reports divide once.  Each number in
``receipts.csv`` and ``register_summary.json`` is checked against
``float(Fraction(...))`` of the rational this test computes from the
ledger file's own events and fee config, with the base-fee rule written
out here.  Neither numpy nor hypothesis is needed.
"""

import csv
import json
from fractions import Fraction

import pytest

from conftest import run_cli, write_corpus
from slideprov import GasConfig, estimate_gas

CONFIGS = {
    "thirds-and-sevenths": ["--base-fee-gwei", "1/3", "--tip-gwei", "2/7"],
    "one-wei-fees": ["--base-fee-gwei", "1e-9", "--tip-gwei", "0.000000001"],
    "decimal-rate": ["--eth-usd", "2417.33"],
    "rate-below-float": ["--eth-usd", "1e-400"],  # every USD figure rounds to 0.0
    "huge-base-fee": ["--base-fee-gwei", "1e300", "--eth-usd", "1e10"],
    "slow-blocks-no-exec-gas": ["--block-interval", "7", "--gas-exec-base", "0"],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # 12 slides: lecture and slide ids of one and two digits give URIs of three lengths
    return write_corpus(tmp_path_factory.mktemp("fees") / "corpus", n_lectures=1, slides_per_lecture=12)


def expected_reports(ledger: dict) -> tuple[list[list[object]], dict[str, object]]:
    """Receipt rows and summary of registering all of ``ledger``'s events into a fresh ledger, as exact values."""
    fee = ledger["fee_config"]
    gas_config = GasConfig(**ledger["gas_config"])
    base_wei = int(Fraction(fee["initial_base_fee_gwei"]) * 10**9)
    tip_wei = int(Fraction(fee["priority_tip_gwei"]) * 10**9)
    rate = Fraction(fee["eth_usd_rate"])
    target, denominator = fee["target_gas"], fee["decay_denominator"]
    rows = []
    for block, event in enumerate(ledger["events"], 1):
        gas = estimate_gas(event["slideHash"], event["uri"], gas_config)
        price_gwei = Fraction(base_wei + tip_wei, 10**9)
        eth = gas * price_gwei / 10**9
        rows.append([event["lectureId"], event["slideId"], block, event["timestamp"], gas, price_gwei, eth, eth * rate])
        base_wei = base_wei * ((denominator - 1) * target + gas) // (denominator * target)
    n, gases, interval = len(rows), [row[4] for row in rows], fee["block_interval"]
    summary = {
        "attempted": n, "registered": n, "skipped_existing": 0, "failed": 0,
        "min_gas": min(gases), "mean_gas": Fraction(sum(gases), n), "max_gas": max(gases), "total_gas": sum(gases),
        "total_cost_eth": sum(row[6] for row in rows), "total_cost_usd": sum(row[7] for row in rows),
        "elapsed_seconds": (n - 1) * interval, "throughput": Fraction(n, max((n - 1) * interval, interval)),
    }
    return rows, summary


def _float(value: object) -> object:
    return float(value) if isinstance(value, Fraction) else value


@pytest.mark.parametrize("flags", CONFIGS.values(), ids=CONFIGS.keys())
def test_each_number_is_the_float_of_its_exact_rational(corpus, tmp_path, flags):
    ledger_path, out = tmp_path / "ledger.json", tmp_path / "out"
    code, stdout, stderr = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger_path),
                                    "--out", str(out), *flags])
    assert (code, stderr) == (0, ""), stderr
    rows, summary = expected_reports(json.loads(ledger_path.read_text(encoding="utf-8")))
    assert len(rows) == 12

    with open(out / "receipts.csv", newline="", encoding="utf-8") as fh:
        written = list(csv.reader(fh))
    assert written[0] == ["lecture_id", "slide_id", "block", "timestamp", "gas_used",
                          "effective_gas_price_gwei", "cost_eth", "cost_usd"]
    # the text itself: ints as written, each rational as its float's repr
    assert written[1:] == [[str(value) if isinstance(value, int) else repr(float(value)) for value in row]
                           for row in rows]

    document = json.loads((out / "register_summary.json").read_text(encoding="utf-8"))
    typed = {name: (type(value), value) for name, value in document.items()}
    assert typed == {name: (type(_float(value)), _float(value)) for name, value in summary.items()}
    assert stdout == (f"registered 12/12 slides (skipped 0, failed 0); total gas {summary['total_gas']},"
                      f" cost ${float(summary['total_cost_usd']):.2f}\n")


def test_cost_past_the_float_range_exits_2_and_writes_no_ledger(corpus, tmp_path):
    ledger_path, out = tmp_path / "ledger.json", tmp_path / "out"
    code, stdout, stderr = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger_path),
                                    "--out", str(out), "--eth-usd", "1e400"])
    assert (code, stdout) == (2, "")
    assert stderr == "error: registration costs exceed the floating-point range\n"
    assert not ledger_path.exists() and not out.exists()
