#!/usr/bin/env bash
# Non-test Go lines per top-level package and in total: the number behind
# ROADMAP aim 2 ("deleting code is a deliverable"), and the count of exported
# functions and methods in internal/ that only tests use (scripts/unused).
# Run from the repo root.
set -euo pipefail
count() { find "$@" -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l; }
for d in internal/*/ cmd/*/ bench/ examples/; do
  printf '%7d  %s\n' "$(count "$d")" "${d%/}"
done
printf '%7d  %s\n' "$(count . -maxdepth 1)" "(root package)"
printf '%7d  %s\n' "$(( $(count . -maxdepth 1) + $(count internal/core internal/zone) ))" "product path (root+core+zone)"
printf '%7d  %s\n' "$(count internal/wire internal/client internal/server)" "serving stack (wire+client+server)"
printf '%7d  %s\n' "$(count internal/harness internal/crashtest internal/baseline)" "engines (harness+crashtest+baseline)"
printf '%7d  %s\n' "$(count .)" "total"
printf '%7d  %s\n' "$(go run ./scripts/unused)" "exported funcs/methods in internal/ named on no non-test line but their declaration"
