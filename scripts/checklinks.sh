#!/usr/bin/env sh
# checklinks.sh — verify that relative markdown links point at files that
# exist. External (http/https/mailto) and intra-page (#anchor) links are
# skipped; a link with an anchor checks only the file part. Every *.md path
# a Go file names (in a comment or a string) must exist too, resolved
# against the Go file's own directory and then the repository root. Run
# from the repository root; exits nonzero listing every broken link.
set -eu

fail=0
for f in $(git ls-files '*.md'); do
    dir=$(dirname "$f")
    for target in $(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "$f: broken link: $target" >&2
            fail=1
        fi
    done
done
for f in $(git ls-files '*.go'); do
    dir=$(dirname "$f")
    for path in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' "$f" | sort -u); do
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "$f: names missing file: $path" >&2
            fail=1
        fi
    done
done
exit "$fail"
