#!/usr/bin/env bash
# The seeded-defect catalogue: scripts/mutants/*.patch, one git diff hunk
# each, every one seeding a single defect into the real tree. A patch's
# first line names its target and the defect ("# <target>: <defect>"); git
# apply ignores text before the first "diff --git".
#
#   bash scripts/mutants.sh                    who catches each defect (make mutants)
#   bash scripts/mutants.sh check              does each patch apply, and does each
#                                              analyzer still report its own (make mutants-check)
#   bash scripts/mutants.sh [check] P.patch …  the named entries only
#
# Both modes copy the tracked files of the working tree into a temp
# directory and require ftlint to be clean there before any patch goes in.
#
# check: every patch must still apply. A patch whose target is an analyzer
# (accown, poolspawn, recoverpath or modbound) is applied, ftlint runs over
# the tree, and that analyzer must report; then the patch is reversed.
# About a second per analyzer entry.
#
# The full run, for each patch: applies it, builds the tree, runs the tests
# of every package outside internal/analysis and cmd/ftlint (a failing
# test, build or 5-minute timeout counts as caught), runs ftlint over the
# tree and collects the analyzers that report; when neither catches the
# defect, it runs the tests of the packages the patch touches under the
# race detector, as CI's `make race` does ("race:" row); then it reverses
# the patch. It prints one row per patch and exits non-zero when a patch no
# longer applies or when nothing catches it. "sole" names an analyzer that
# caught a defect no test caught and no other analyzer reported. Expect
# about half a minute per entry on two cores; the blocking-send entry waits
# out the machine suite's timeout.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"

check=false
if [ "${1:-}" = check ]; then
	check=true
	shift
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
if ! "$tmp/ftlint" ./... >/dev/null 2>&1; then
	echo "mutants: ftlint is not clean on the unmutated tree" >&2
	exit 1
fi

if $check; then
	status=0
	caught=0
	for p in "${patches[@]}"; do
		target=$(sed -n '1s/^# \([^:]*\):.*/\1/p' "$root/$p")
		case $target in
		accown | poolspawn | recoverpath | modbound) ;;
		*)
			if ! git apply --check "$root/$p" 2>/dev/null; then
				echo "mutants: $p no longer applies"
				status=1
			fi
			continue
			;;
		esac
		if ! git apply "$root/$p" 2>/dev/null; then
			echo "mutants: $p no longer applies"
			status=1
			continue
		fi
		# Capture first: ftlint exits 1 on findings, which a pipe into
		# grep -q would turn into a failure under pipefail.
		out=$("$tmp/ftlint" ./... 2>&1 || true)
		git apply -R "$root/$p"
		if grep -q "($target)\$" <<<"$out"; then
			caught=$((caught + 1))
		else
			echo "mutants: $target does not report $p"
			status=1
		fi
	done
	[ "$status" = 0 ] && echo "mutants: all ${#patches[@]} patches apply; each of the $caught aimed at an analyzer is reported by it"
	exit "$status"
fi

pkgs=$(go list ./... | grep -v -e '^repro/internal/analysis/' -e '^repro/cmd/ftlint$')

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
	race=""
	if [ -z "$tests" ] && [ -z "$lint" ]; then
		dirs=$(sed -n 's|^diff --git a/\([^ ]*\) b/.*|\1|p' "$root/$p" | xargs -n1 dirname | sed 's|^|./|' | sort -u)
		go test -race -count=1 -timeout 5m $dirs >"$tmp/race.log" 2>&1 || true
		race=$(failed "$tmp/race.log")
		race="race: ${race:-none}"
	fi
	git apply -R "$root/$p"

	sole=""
	if [ -z "$tests" ] && [ -n "$lint" ] && [ "${lint#*,}" = "$lint" ]; then
		sole="  sole: $lint"
	fi
	if [ -z "$tests" ] && [ -z "$lint" ] && [ "$race" = "race: none" ]; then
		race="$race  UNCAUGHT"
		status=1
	fi
	printf '%s [%s]\n    tests: %s\n    ftlint: %s%s\n' "$name" "$target" "${tests:-none}" "${lint:-none}" "$sole"
	[ -z "$race" ] || printf '    %s\n' "$race"
done
exit "$status"
