"""Line-length guard: no line of the package or its tests is longer than 100 characters."""

from pathlib import Path

ROOT = Path(__file__).parent.parent
MAX_COLUMNS = 100


def test_no_line_is_longer_than_100_characters():
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
            for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
