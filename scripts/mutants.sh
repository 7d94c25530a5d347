#!/usr/bin/env bash
# The seeded-defect catalogue: scripts/mutants/*.patch, one git diff hunk
# each, every one seeding a single defect into the real tree. A patch's
# first line names its target and the defect ("# <target>: <defect>"); git
# apply ignores text before the first "diff --git".
#
#   bash scripts/mutants.sh              who catches each defect (make mutants)
#   bash scripts/mutants.sh check        does each patch still apply (make mutants-check)
#   bash scripts/mutants.sh P.patch ...  the named entries only
#
# A run copies the tracked files of the working tree into a temp directory
# and, for each patch: applies it, builds the tree, runs the tests of every
# package outside internal/analysis and cmd/ftlint (a failing test, build or
# 5-minute timeout counts as caught), runs ftlint over the tree and collects
# the analyzers that report, then reverses the patch. It prints one row per
# patch and exits non-zero when a patch no longer applies or when neither a
# test nor an analyzer catches it. "sole" names an analyzer that caught a
# defect no test caught and no other analyzer reported. Expect about half
# a minute per entry on two cores; the blocking-send entry waits out the
# machine suite's timeout.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"

if [ "${1:-}" = check ]; then
	status=0
	n=0
	for p in scripts/mutants/*.patch; do
		n=$((n + 1))
		if ! git apply --check "$p" 2>/dev/null; then
			echo "mutants: $p no longer applies"
			status=1
		fi
	done
	[ "$status" = 0 ] && echo "mutants: all $n patches apply"
	exit "$status"
fi

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(scripts/mutants/*.patch)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
mkdir "$tree"
git ls-files -z | while IFS= read -r -d '' f; do
	[ -e "$f" ] && printf '%s\0' "$f"
done | tar --null -T - -cf - | tar -xf - -C "$tree"
go build -o "$tmp/ftlint" ./cmd/ftlint

cd "$tree"
pkgs=$(go list ./... | grep -v -e '^repro/internal/analysis/' -e '^repro/cmd/ftlint$')
if ! "$tmp/ftlint" ./... >/dev/null 2>&1; then
	echo "mutants: ftlint is not clean on the unmutated tree" >&2
	exit 1
fi

# failed lists the failing top-level tests of a go test log as pkg.Test, and
# a package that failed without one (build failure, timeout) as pkg(...).
failed() {
	awk '
		/^--- FAIL: / { t[n++] = $3 }
		/^panic: test timed out/ { timeout = 1 }
		/^FAIL[ \t]+repro/ {
			pkg = $2; sub(/.*\//, "", pkg)
			if (timeout) out = out " " pkg "(timeout)"
			else if (n == 0) out = out " " pkg "(" ($3 == "[build" ? "build failed" : "failed") ")"
			for (i = 0; i < n; i++) out = out " " pkg "." t[i]
		}
		/^(FAIL|ok)[ \t]+repro/ { n = 0; timeout = 0 }
		END { sub(/^ /, "", out); print out }
	' "$1"
}

status=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	target=$(sed -n '1s/^# \([^:]*\):.*/\1/p' "$root/$p")
	if ! git apply "$root/$p" 2>"$tmp/apply.log"; then
		echo "$name: does not apply: $(head -1 "$tmp/apply.log")"
		status=1
		continue
	fi
	if go build ./... >"$tmp/build.log" 2>&1; then
		go test -count=1 -timeout 5m $pkgs >"$tmp/test.log" 2>&1 || true
		tests=$(failed "$tmp/test.log")
	else
		tests="build failed"
	fi
	lint=$("$tmp/ftlint" ./... 2>/dev/null | sed -n 's/.*(\([a-z]*\))$/\1/p' | sort -u | paste -sd, - || true)
	git apply -R "$root/$p"

	sole=""
	if [ -z "$tests" ] && [ -n "$lint" ] && [ "${lint#*,}" = "$lint" ]; then
		sole="  sole: $lint"
	fi
	if [ -z "$tests" ] && [ -z "$lint" ]; then
		sole="  UNCAUGHT"
		status=1
	fi
	printf '%s [%s]\n    tests: %s\n    ftlint: %s%s\n' "$name" "$target" "${tests:-none}" "${lint:-none}" "$sole"
done
exit "$status"
