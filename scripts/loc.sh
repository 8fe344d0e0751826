#!/bin/sh
# Non-test line counts of the solver crates: every `.rs` file under
# crates/spice/src and crates/numeric/src, counted up to (not including)
# its first `#[cfg(test)]` line. Prints one `<dir> <lines>` row each.
set -eu
for dir in crates/spice/src crates/numeric/src; do
    lines=$(find "$dir" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    echo "$dir $lines"
done
