"""``register`` reports every fee figure as the decimal text of its exact rational.

The ledger keeps whole wei; the report writer rounds each figure once.
Each number in ``receipts.csv`` and ``register_summary.json`` is checked
against the rational this test computes from the ledger file's own events
and fee config, with the base-fee rule written out here: a figure whose
decimal expansion ends within 28 significant digits is written exactly,
any other as its 28-digit half-even rounding.  Neither numpy nor
hypothesis is needed.
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
    "rate-below-float": ["--eth-usd", "1e-400"],  # every USD figure is below the least float
    "huge-base-fee": ["--base-fee-gwei", "1e300", "--eth-usd", "1e10"],
    "slow-blocks-no-exec-gas": ["--block-interval", "7", "--gas-exec-base", "0"],
    "rate-past-float": ["--eth-usd", "1e400"],  # every USD figure is past the largest float
}
# the configurations whose every figure a float holds, or rounds to 0
FLOAT_CONFIGS = {name: flags for name, flags in CONFIGS.items() if name != "rate-past-float"}
DIGITS = 28


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


def exact_text(value: Fraction) -> str:
    """``value`` (not negative) in positional notation: its first 28 significant digits, the last
    rounded half-even, trailing zeros dropped.  Integer arithmetic only."""
    if value == 0:
        return "0"
    # value * 10**shift has 28 digits before the point
    shift = DIGITS - (len(str(value.numerator)) - len(str(value.denominator)))
    while value * Fraction(10) ** shift >= 10**DIGITS:
        shift -= 1
    while value * Fraction(10) ** shift < 10 ** (DIGITS - 1):
        shift += 1
    digits = round(value * Fraction(10) ** shift)  # Fraction rounds half to even
    if digits == 10**DIGITS:  # 99..9|5 carried into a 29th digit
        digits, shift = 10 ** (DIGITS - 1), shift - 1
    text = str(digits)
    while shift > 0 and text.endswith("0"):
        text, shift = text[:-1], shift - 1
    if shift <= 0:
        return text + "0" * -shift
    text = text.rjust(shift + 1, "0")
    return f"{text[:-shift]}.{text[-shift:]}"


def register(corpus, tmp_path, flags) -> tuple[str, list[list[str]], dict, list[list[object]], dict[str, object]]:
    """Stdout, the written receipt rows and summary, and the exact ones, of ``register`` into a fresh ledger."""
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
    document = json.loads((out / "register_summary.json").read_text(encoding="utf-8"))
    return stdout, written[1:], document, rows, summary


@pytest.mark.parametrize("flags", CONFIGS.values(), ids=CONFIGS.keys())
def test_each_number_is_its_exact_rational_as_text(corpus, tmp_path, flags):
    stdout, written, document, rows, summary = register(corpus, tmp_path, flags)
    # ints as written, each rational as its decimal text
    assert written == [[exact_text(value) if isinstance(value, Fraction) else str(value) for value in row]
                       for row in rows]
    # in the summary an int stays a JSON int, and a rational is a JSON string
    assert document == {name: exact_text(value) if isinstance(value, Fraction) else value
                        for name, value in summary.items()}
    cents = round(summary["total_cost_usd"] * 100)  # half-even to the cent
    assert stdout == (f"registered 12/12 slides (skipped 0, failed 0); total gas {summary['total_gas']},"
                      f" cost ${cents // 100}.{cents % 100:02d}\n")


@pytest.mark.parametrize("flags", FLOAT_CONFIGS.values(), ids=FLOAT_CONFIGS.keys())
def test_each_number_is_the_float_of_its_exact_rational(corpus, tmp_path, flags):
    # read as a float, each figure is its exact rational's float: what the reports held before they were exact
    _, written, document, rows, summary = register(corpus, tmp_path, flags)
    figures = [(text, value) for line, row in zip(written, rows) for text, value in zip(line, row)]
    figures += [(document[name], value) for name, value in summary.items()]
    for text, value in figures:
        if isinstance(value, Fraction):
            assert float(text) == float(value), (text, value)


def test_cost_past_the_float_range_exits_0_and_saves_the_ledger(corpus, tmp_path):
    ledger_path, out = tmp_path / "ledger.json", tmp_path / "out"
    code, stdout, stderr = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger_path),
                                    "--out", str(out), "--eth-usd", "1e400"])
    assert (code, stderr) == (0, "")
    assert json.loads(ledger_path.read_text(encoding="utf-8"))["fee_config"]["eth_usd_rate"] == "1" + "0" * 400
    document = json.loads((out / "register_summary.json").read_text(encoding="utf-8"))
    # a whole number of dollars, more digits than the largest float's 309, each written
    assert Fraction(document["total_cost_usd"]) == Fraction(document["total_cost_eth"]) * 10**400
    assert len(document["total_cost_usd"]) == 398 and document["total_cost_usd"].isdigit()
    assert stdout.endswith(f", cost ${document['total_cost_usd']}.00\n")
    # the next register reads the saved ledger and adds nothing
    code, stdout, stderr = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger_path),
                                    "--out", str(tmp_path / "again"), "--skip-existing"])
    assert (code, stderr, stdout) == (0, "", "registered 0/0 slides (skipped 12, failed 0); total gas 0, cost $0.00\n")
