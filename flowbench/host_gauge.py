"""A fixed load that gauges how fast the host runs right now.

    python3 flowbench/host_gauge.py

The benchmark runs this as a child process before and after every timed
flowdoc process. Its work never changes and it imports nothing from flowdoc,
so its wall time moves only with the host: on a shared host the same Python
code can run up to twice as slow for seconds or minutes at a time. Like
flowdoc it is interpreter start-up followed by regex lexing, dict and string
work on C++-like text.
"""

import re

ROUNDS = 24

_TOKEN = re.compile(r"//\$\d?|[A-Za-z_]\w*|\d+|\S")
_TEXT = "\n".join(
    f"int step{i}(int n) {{  //${i % 10} action {i} of the flow\n"
    f"    if (acc > {i % 7}) {{ acc += n * {i % 13}; }}\n"
    f"}}" for i in range(300))


def main() -> int:
    total = 0
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for token in _TOKEN.findall(_TEXT):
            counts[token] = counts.get(token, 0) + 1
        lines = [f"{name}\t{n}" for name, n in sorted(counts.items())]
        total += len("\n".join(lines))
    return total


if __name__ == "__main__":
    print(main())
