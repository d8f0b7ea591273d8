#!/usr/bin/env bash
# Fail when a test input is not tracked by git. A golden file that is
# ignored (or simply never added) exists in the developer's tree but not
# in a clean checkout, where its test can only report "file missing" —
# so the oracle looks present while checking nothing.
#
# usage: check_tracked.sh REPO_ROOT FILE...
#
# Exits 77 (reported as skipped by ctest) outside a git work tree, e.g.
# in a source tarball.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 REPO_ROOT FILE..." >&2
  exit 2
fi
root=$1
shift

if ! command -v git > /dev/null 2>&1 ||
   ! git -C "$root" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "not a git work tree: skipping the tracked-inputs check"
  exit 77
fi

status=0
for f in "$@"; do
  if ! git -C "$root" ls-files --error-unmatch -- "$f" > /dev/null 2>&1; then
    echo "error: $f is read by a test but is not tracked by git" >&2
    echo "  (check .gitignore; add it with: git add -f $f)" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "all $# test inputs are tracked"
fi
exit "$status"
