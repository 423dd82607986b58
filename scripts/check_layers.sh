#!/usr/bin/env sh
# check_layers.sh — fails when a source file includes a layer above its own.
#
# Usage:  scripts/check_layers.sh [SRC_DIR]     (default: the repo's src/)
#
# Bottom to top: the hardware models, core and analysis; then obs and exp;
# then grid; then study.  Each check names the directories of one layer
# and the layers above it, which they must not include.
set -eu

src=${1:-"$(dirname "$0")/../src"}
status=0
check() {
  for dir in $1; do
    [ -d "$src/$dir" ] || { echo "no directory $src/$dir" >&2; exit 2; }
    if grep -rnE "#[[:space:]]*include[[:space:]]*[\"<]($2)/" "$src/$dir"
    then status=1; fi
  done
}
check "isa cache branch dram noc pipeline core analysis" "exp|obs|grid|study"
check "obs exp" "grid|study"
check "grid" "study"
[ "$status" = 0 ] || echo "check_layers: include of a higher layer" >&2
exit "$status"
