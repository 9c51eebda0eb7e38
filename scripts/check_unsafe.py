#!/usr/bin/env python3
"""Holds the repository to its one `unsafe` block.

    python3 scripts/check_unsafe.py

Run from the repository root. The call into the AES-NI rounds in
crates/crypto/src/aes.rs is the only `unsafe` code (DESIGN.md §21). This
fails when `unsafe` or `allow(unsafe_code)` appears in any other `.rs`
file under crates, src, tests, examples or hostbench/src; when aes.rs
holds anything unsafe but one `unsafe` block, or more than one
`allow(unsafe_code)`; or when that block has no `// SAFETY:` comment
directly above it.
"""

import pathlib
import re
import sys

ROOTS = ("crates", "src", "tests", "examples", "hostbench/src")
ALLOWED = pathlib.Path("crates/crypto/src/aes.rs")
WORD = re.compile(r"\bunsafe\b|allow\(\s*unsafe_code\s*\)")
BLOCK = re.compile(r"\bunsafe\s*\{")
OTHER = re.compile(r"\bunsafe\s+(fn|impl|trait|extern)\b|#!\[allow\(\s*unsafe_code")


def main():
    errors = []
    files = sorted(p for root in ROOTS for p in pathlib.Path(root).rglob("*.rs"))
    for path in files:
        if path == ALLOWED:
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if WORD.search(line):
                errors.append(f"{path}:{n}: unsafe code outside {ALLOWED}: {line.strip()}")
    if ALLOWED not in files:
        errors.append(f"{ALLOWED}: missing")
    else:
        lines = ALLOWED.read_text().splitlines()
        blocks = [n for n, line in enumerate(lines) if BLOCK.search(line)]
        allows = [n for n, line in enumerate(lines) if "allow(unsafe_code)" in line]
        for n, line in enumerate(lines):
            if OTHER.search(line):
                errors.append(f"{ALLOWED}:{n + 1}: only one unsafe block is allowed: {line.strip()}")
        if len(blocks) > 1:
            at = ", ".join(str(n + 1) for n in blocks)
            errors.append(f"{ALLOWED}: {len(blocks)} unsafe blocks (lines {at}), at most 1")
        if len(allows) > 1:
            errors.append(f"{ALLOWED}: {len(allows)} allow(unsafe_code), at most 1")
        for n in blocks:
            above = n - 1
            comment = []
            while above >= 0 and lines[above].strip().startswith("//"):
                comment.append(lines[above].strip())
                above -= 1
            if not any(c.startswith("// SAFETY:") for c in comment):
                errors.append(f"{ALLOWED}:{n + 1}: unsafe block without a // SAFETY: comment above it")
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_unsafe: {len(files)} files, one unsafe block, in {ALLOWED}")


if __name__ == "__main__":
    main()
