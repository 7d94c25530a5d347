#!/usr/bin/env bash
# Linker census of unreached code: every non-test function and method
# declared outside cmd/, examples/, bench/ and testdata fixtures is looked up
# in the linker's dependency dump (-ldflags=-dumpdep, inlining off, so every
# call is a symbol) of every main under cmd/ and examples/, plus bench/.
#
# An unreached function must be on the keep list (census.keep beside this
# script: one linker symbol per line, # comments), and every entry on the
# list must still be declared and unreached. Any difference exits 1 and
# prints the functions concerned.
set -euo pipefail
cd "$(dirname "$0")/.."
keep=scripts/census.keep
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# dump ROOT... writes the dumpdep of the given main packages to stdout; on a
# failed build it prints the build's own messages, not the edges, and fails.
dump() {
	go build -o "$tmp/bin/" -gcflags=all=-l -ldflags=-dumpdep "$@" 2>"$tmp/dump" >/dev/null ||
		{ grep -v -e ' -> ' "$tmp/dump" >&2; exit 1; }
	cat "$tmp/dump"
}

# reached turns dump lines "a -> b <Tag>" into one symbol per line: tags,
# generic instantiation brackets (whose shapes contain spaces), method-value
# "-fm" suffixes and closure suffixes (.func1, .func1.2, .gowrap1,
# .deferwrap1) are stripped, so a closure counts for its enclosing function.
reached() {
	awk '/repro/ {
		n = split($0, side, / -> /)
		for (i = 1; i <= n; i++) {
			s = side[i]
			if (index(s, "[") > 0) {
				out = ""; d = 0
				for (j = 1; j <= length(s); j++) {
					c = substr(s, j, 1)
					if (c == "[") d++
					else if (c == "]") d--
					else if (d == 0) out = out c
				}
				s = out
			}
			sub(/ <[A-Za-z]+>$/, "", s)
			sub(/-fm$/, "", s)
			while (sub(/\.(func|gowrap|deferwrap)?[0-9]+$/, "", s)) {}
			print s
		}
	}' | sort -u
}

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
{ dump $mains; (cd bench && dump .); } | reached >"$tmp/reached"

# Declarations: "symbol file:line", named as the linker names them
# (pkg.F, pkg.T.M, pkg.(*T).M; a generic receiver drops its type
# parameters). Untracked files count, so a new file is censused before it is
# committed.
git ls-files --cached --others --exclude-standard '*.go' ':!:*_test.go' ':!:*/testdata/*' ':!:bench/*' ':!:cmd/*' ':!:examples/*' |
	while read -r f; do
		d=$(dirname "$f")
		p=repro
		[ "$d" != . ] && p="repro/$d"
		awk -v p="$p" -v f="$f" '
			/^func \(/ {
				r = $0; sub(/^func \(/, "", r); sub(/[])[].*/, "", r)
				k = split(r, a, " "); t = a[k]
				n = $0; sub(/^func \([^)]*\) */, "", n); sub(/[[(].*/, "", n)
				print (t ~ /^\*/ ? p ".(" t ")." n : p "." t "." n), f ":" FNR
				next
			}
			/^func [A-Za-z0-9_]+[[(]/ {
				n = $0; sub(/^func /, "", n); sub(/[[(].*/, "", n)
				if (n != "init") print p "." n, f ":" FNR
			}' "$f"
	done | sort >"$tmp/decls"

awk -v rc="$tmp/reached" -v keep="$keep" '
	BEGIN {
		while ((getline s <rc) > 0) reached[s] = 1
		while ((getline s <keep) > 0) if (s !~ /^[[:space:]]*(#|$)/) listed[s] = 1
	}
	{
		if ($1 in reached) next
		seen[$1] = 1; n++
		if (!($1 in listed)) extra = extra "\n  " $0
	}
	END {
		for (s in listed) if (!(s in seen)) stale = stale "\n  " s
		if (extra != "") printf "census: unreached from every binary and not on the keep list:%s\n", extra
		if (stale != "") printf "census: on the keep list but reached or no longer declared:%s\n", stale
		if (extra != "" || stale != "") exit 1
		printf "census: %d unreached functions, all on the keep list\n", n
	}' "$tmp/decls"
