#!/bin/sh
# Counts lines of Go per package directory and in total, non-test and
# test files apart: the figure every simplicity PR is judged by
# (`make loc`). Lines are `wc -l` lines — comments and blanks included.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './.bench_build/*' -exec wc -l {} + | awk '
$2 == "total" { next }
{
	path = $2
	sub(/^\.\//, "", path)
	dir = path
	if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	if (!(dir in seen)) { seen[dir] = 1; dirs[n++] = dir }
	if (path ~ /_test\.go$/) { test[dir] += $1; tests += $1 }
	else { code[dir] += $1; codes += $1 }
}
END {
	printf "%-28s %9s %9s\n", "package", "non-test", "test"
	for (i = 0; i < n; i++)
		printf "%-28s %9d %9d\n", dirs[i], code[dirs[i]], test[dirs[i]] | "sort"
	close("sort")
	printf "%-28s %9d %9d\n", "total", codes, tests
}'
