#!/bin/sh
# gatenames.sh: fail when a name-selected CI gate selects nothing.
#
#   sh scripts/gatenames.sh PKGS PATTERN [PKGS PATTERN]...
#
# PKGS is a space-separated list of packages, PATTERN a |-separated list of
# test, benchmark or fuzz-target names as the gate passes them to -run,
# -bench or -fuzz. `go test -run NAME` passes with "no tests to run" when
# NAME matches nothing, and `-fuzz NAME` only warns, so a renamed test
# would drop out of its gate without a failure. This check lists each
# package's tests once (`go test -list`) and fails, naming every such
# NAME, unless each one matches at least one of them in its PKGS. $GO
# picks the toolchain (default go).
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
while [ $# -ge 2 ]; do
    pkgs=$1 pattern=$2
    shift 2
    : > "$tmp/names"
    for pkg in $pkgs; do
        list="$tmp/list$(echo "$pkg" | tr -c 'A-Za-z0-9\n' _)"
        if [ ! -f "$list" ]; then
            $GO test -list . "$pkg" > "$list" || { cat "$list" >&2; exit 1; }
        fi
        grep -E '^(Test|Benchmark|Fuzz|Example)' "$list" >> "$tmp/names" || true
    done
    for name in $(echo "$pattern" | tr '|' ' '); do
        if ! grep -Eq -- "$name" "$tmp/names"; then
            echo "gate-names: $name matches no test, benchmark or fuzz target in $pkgs" >&2
            status=1
        fi
    done
done
if [ $# -ne 0 ]; then
    echo "gate-names: odd argument count; want PKGS PATTERN pairs" >&2
    exit 2
fi
exit $status
