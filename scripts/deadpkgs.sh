#!/usr/bin/env sh
# deadpkgs.sh — fail when an internal/ package is unreachable: no non-test
# package outside examples/ imports it. Examples are demos of the library,
# not reasons to keep code alive, and test-only imports do not count. Run
# from the repository root; exits nonzero listing every unreachable package.
set -eu

mod=$(go list -m)
# One line per non-example package: its import path, then its non-test
# imports.
graph=$(go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... |
    awk -v ex="$mod/examples/" 'index($1, ex) != 1')

fail=0
# Test-only packages (no non-test Go files) hold no code to keep alive.
for pkg in $(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do
    if ! printf '%s\n' "$graph" | awk -v p="$pkg" '
        { for (i = 2; i <= NF; i++) if ($i == p) found = 1 }
        END { exit !found }'; then
        echo "unreachable package: $pkg (no non-test importer outside examples/)" >&2
        fail=1
    fi
done
exit "$fail"
