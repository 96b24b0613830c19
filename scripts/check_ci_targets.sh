#!/usr/bin/env bash
# Every `--test <name>` / `--bin <name>` ci.yml names must be a target file that exists.
cd "$(dirname "$0")/.." || exit 1
grep -oE -- '--(test|bin) [a-z0-9_]+' .github/workflows/ci.yml | sort -u | while read -r kind name; do
  for glob in "tests/$name.rs" "crates/*/tests/$name.rs" "crates/*/src/bin/$name.rs"; do
    compgen -G "$glob" >/dev/null && continue 2
  done
  echo "ci.yml names '$kind $name' but no such target file exists" >&2; exit 1
done
