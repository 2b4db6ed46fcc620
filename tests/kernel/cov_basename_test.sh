#!/bin/sh
# Edge IDs hash (module, __FILE_NAME__, line), the file's basename rather than its
# path, so campaign results do not depend on the checkout directory. Two
# instrumented files sharing a basename could then hand out the same ID; this
# check fails when any two .cc files that use EOF_COV do.
#
# usage: cov_basename_test.sh path/to/src

SRC=$1
if [ ! -d "$SRC" ]; then
  echo "usage: $0 path/to/src" >&2
  exit 2
fi
FILES=$(grep -rl --include='*.cc' 'EOF_COV' "$SRC")
if [ -z "$FILES" ]; then
  echo "no .cc file under $SRC uses EOF_COV" >&2
  exit 1
fi
DUPS=$(printf '%s\n' "$FILES" | sed 's,.*/,,' | sort | uniq -d)
if [ -n "$DUPS" ]; then
  for name in $DUPS; do
    echo "instrumented files share the basename $name:" >&2
    printf '%s\n' "$FILES" | grep "/$name\$" >&2
  done
  exit 1
fi
echo "$(printf '%s\n' "$FILES" | wc -l) instrumented files, basenames unique"
