#!/bin/bash
# Regenerate every table and figure; outputs land in results/.
# Set SKIP_EXISTING=1 to keep already-present results.
# Exits non-zero if any figure binary did.
set -u
# bench_engine is a benchmark, not a figure: it appends a row to
# BENCH_engine.json on every run (scripts/check.sh runs it).
BINS=$(ls crates/bench/src/bin | sed 's/\.rs$//' | grep -vx bench_engine)
cargo build --release -q -p bench || exit 1
failed=0
for b in $BINS; do
  if [ "${SKIP_EXISTING:-0}" = "1" ] && [ -s "results/$b.txt" ]; then
    echo "=== skipping $b (exists) ==="
    continue
  fi
  echo "=== running $b ==="
  timeout 1500 "target/release/$b" > "results/$b.txt" 2>&1
  rc=$?
  echo "    exit=$rc"
  [ "$rc" -eq 0 ] || failed=1
done
echo ALL DONE
exit "$failed"
