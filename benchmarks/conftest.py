"""Shared helpers for the paper-evaluation benches (``bench_*.py``)."""


def print_block(title: str, body: str) -> None:
    """Readable experiment output inside pytest-benchmark runs."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
