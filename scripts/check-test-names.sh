#!/usr/bin/env bash
# check-test-names.sh — fail when a test name in the Makefile or the CI
# workflow matches no test.
#
#   scripts/check-test-names.sh [FILE...]   (default: Makefile .github/workflows/ci.yml)
#
# go test passes silently over a -fuzz target that no longer exists (a
# warning, exit 0) and over a -run pattern that selects nothing ("[no
# tests to run]", exit 0), so a deleted fuzzer left in fuzz-smoke or a
# renamed test left in a CI regex would stop running unnoticed. For
# every `go test` line with -run or -fuzz, each `|` alternative of the
# pattern must match at least one top-level Test, Fuzz, Benchmark or
# Example function that `go test -list .` reports for the line's
# packages. The '^$' pattern (run nothing) is skipped.
set -euo pipefail -o noglob

files=("$@")
[ ${#files[@]} -gt 0 ] || files=(Makefile .github/workflows/ci.yml)
go=${GO:-go}
failed=0
declare -A listed

while IFS= read -r hit; do
	file=${hit%%:*}
	line=${hit#*:}
	line=${line//\$\$/\$}
	pkgs=$(grep -oE '\./[^ ]*' <<<"$line" | grep -v '\.\.\.' | tr '\n' ' ' || true)
	[ -n "$pkgs" ] || continue
	if [ -z "${listed[$pkgs]+set}" ]; then
		# shellcheck disable=SC2086
		listed[$pkgs]=$("$go" test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	fi
	for pattern in $(grep -oE -- "-(run|fuzz)[= ]('[^']*'|[^ ']+)" <<<"$line" | sed -E "s/^-(run|fuzz)[= ]//; s/'//g"); do
		[ "$pattern" = '^$' ] && continue
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if ! grep -qE -- "$alt" <<<"${listed[$pkgs]}"; then
				echo "$file: '$alt' matches no test in $pkgs"
				failed=1
			fi
		done
	done
done < <(grep -HE -- '(\$\(GO\)|go) test .*-(run|fuzz)' "${files[@]}")

exit $failed
