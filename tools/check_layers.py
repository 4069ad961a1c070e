#!/usr/bin/env python3
"""Check every src/ directory's includes against the layer map.

docs/ARCHITECTURE.md's "Layer map" table has one row per directory
under src/; its last column lists the directories that layer may
include. Every layer may also include common/ and itself, and
parenthesized remarks in the column are prose, not permissions. The
one exception to the table is ir/ -> compiler/ (ir/serialize.hh
encodes CompileResult), named below until that cycle is closed.

Usage:
    tools/check_layers.py [REPO_ROOT]

Prints each include that leaves its row's list as file:line and exits
1, or exits 0 when every include matches. A directory under src/ with
no row, or a row naming an unknown directory, is also an error.
"""

import pathlib
import re
import sys

EXCEPTIONS = {"ir": {"compiler"}}

ROW = re.compile(r"^\| `(\w+)/` \|.*\| ([^|]*) \|$")
INCLUDE = re.compile(r'^\s*#\s*include\s+"(\w+)/')


def strip_remarks(text):
    """Drop (possibly nested) parenthesized remarks."""
    while True:
        out = re.sub(r"\([^()]*\)", "", text)
        if out == text:
            return out
        text = out


def layer_rows(architecture):
    rows = {}
    for line in architecture.read_text().splitlines():
        m = ROW.match(line.strip())
        if not m:
            continue
        deps = strip_remarks(m.group(2)).strip()
        rows[m.group(1)] = [] if deps == "—" else [
            d.strip() for d in deps.split(",")]
    return rows


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    src = root / "src"
    rows = layer_rows(root / "docs" / "ARCHITECTURE.md")
    dirs = {p.name for p in src.iterdir() if p.is_dir()}
    errors = []
    for layer, deps in sorted(rows.items()):
        for d in deps:
            if d not in dirs:
                errors.append(f"layer map: {layer}/ lists unknown '{d}'")
    for layer in sorted(dirs - rows.keys()):
        errors.append(f"layer map: src/{layer}/ has no row")

    for layer in sorted(dirs & rows.keys()):
        allowed = {layer, "common", *rows[layer],
                   *EXCEPTIONS.get(layer, ())}
        for path in sorted((src / layer).rglob("*")):
            if path.suffix not in (".hh", ".cc"):
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                m = INCLUDE.match(line)
                if m and m.group(1) not in allowed:
                    errors.append(
                        f"{path.relative_to(root)}:{n}: {layer}/ may not "
                        f"include {m.group(1)}/ (layer map: "
                        f"{', '.join(sorted(allowed - {layer}))})")

    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
