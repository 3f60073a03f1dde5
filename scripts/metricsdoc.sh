#!/usr/bin/env sh
# metricsdoc.sh — fail when a telemetry metric name is undocumented: the
# value of every Metric* string constant in the non-test Go sources that is
# a dotted metric name ("fleet.workers", "chaos.frames_dropped", ...) must
# appear in docs/OPERATIONS.md spelled out in full inside backticks.
# (Typed IDS metric kinds such as ids.MetricAlerts are not telemetry names
# and have no dot.) Run from the repository root; exits nonzero listing
# every missing name.
set -eu

doc=docs/OPERATIONS.md
names=$(find . -name '*.go' ! -name '*_test.go' -exec grep -hoE \
    'Metric[A-Za-z0-9_]*[[:space:]]*=[[:space:]]*"[a-z0-9_]+(\.[a-z0-9_]+)+"' {} + |
    sed -E 's/.*"([^"]*)"$/\1/' | sort -u)

fail=0
for name in $names; do
    if ! grep -qF "\`$name\`" "$doc"; then
        echo "undocumented metric: $name (add it to $doc)" >&2
        fail=1
    fi
done
exit "$fail"
