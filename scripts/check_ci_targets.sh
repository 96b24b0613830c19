#!/usr/bin/env bash
# What ci.yml names must exist, and what is committed to be checked must be named:
# every `--test <name>` / `--bin <name>` and every matrix `bench:` entry is a target
# file, every `*_golden.json` it names is a fixture under crates/bench/tests/fixtures/,
# and every fixture there is named by some cell.
cd "$(dirname "$0")/.." || exit 1
ci=.github/workflows/ci.yml
fixtures=crates/bench/tests/fixtures
status=0
{
  grep -oE -- '--(test|bin) [a-z0-9_]+' "$ci"
  grep -oE 'bench: *\[?[a-z0-9_, ]+' "$ci" | sed -E 's/bench: *\[?//' | tr ', ' '\n\n' | sed -E '/^$/d; s/^/--bin /'
} | sort -u | while read -r kind name; do
  for glob in "tests/$name.rs" "crates/*/tests/$name.rs" "crates/*/src/bin/$name.rs"; do
    compgen -G "$glob" >/dev/null && continue 2
  done
  echo "ci.yml names '$kind $name' but no such target file exists" >&2; exit 1
done || status=1
named=$(grep -oE '[a-z0-9_]+_golden\.json' "$ci" | sort -u)
for golden in $named; do
  [ -f "$fixtures/$golden" ] || { echo "ci.yml names fixture '$golden' but $fixtures/ has no such file" >&2; status=1; }
done
for path in "$fixtures"/*; do
  echo "$named" | grep -qxF "$(basename "$path")" || { echo "fixture '$path' is named by no cell of ci.yml" >&2; status=1; }
done
exit $status
