package framework

import (
	"go/token"
	"reflect"
	"testing"
)

func diag(file string, line, col int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Position: token.Position{Filename: file, Line: line, Column: col},
		Analyzer: analyzer,
		Message:  msg,
	}
}

// TestSortDiagsTieBreaks pins the total order behind the -json report:
// file, line, column, then analyzer and message so position ties (several
// analyzers firing on one line) come out deterministically.
func TestSortDiagsTieBreaks(t *testing.T) {
	ds := []Diagnostic{
		diag("b.go", 1, 1, "accown", "x"),
		diag("a.go", 2, 1, "tagflow", "z"),
		diag("a.go", 2, 1, "recoverpath", "z"),
		diag("a.go", 2, 1, "recoverpath", "a"),
		diag("a.go", 1, 9, "accown", "x"),
		diag("a.go", 1, 2, "accown", "x"),
	}
	sortDiags(ds)
	want := []Diagnostic{
		diag("a.go", 1, 2, "accown", "x"),
		diag("a.go", 1, 9, "accown", "x"),
		diag("a.go", 2, 1, "recoverpath", "a"),
		diag("a.go", 2, 1, "recoverpath", "z"),
		diag("a.go", 2, 1, "tagflow", "z"),
		diag("b.go", 1, 1, "accown", "x"),
	}
	if !reflect.DeepEqual(ds, want) {
		t.Errorf("sortDiags order:\n got %v\nwant %v", ds, want)
	}
}

// TestDedupeDiags pins the duplicate-collapse rule: exact (position,
// analyzer, message) repeats collapse to one entry, while a difference in
// any of those fields survives.
func TestDedupeDiags(t *testing.T) {
	ds := []Diagnostic{
		diag("a.go", 1, 1, "accown", "x"),
		diag("a.go", 1, 1, "accown", "x"),  // exact duplicate: dropped
		diag("a.go", 1, 1, "accown", "y"),  // message differs: kept
		diag("a.go", 1, 1, "tagflow", "y"), // analyzer differs: kept
		diag("a.go", 1, 2, "tagflow", "y"), // column differs: kept
	}
	got := dedupeDiags(ds)
	want := []Diagnostic{
		diag("a.go", 1, 1, "accown", "x"),
		diag("a.go", 1, 1, "accown", "y"),
		diag("a.go", 1, 1, "tagflow", "y"),
		diag("a.go", 1, 2, "tagflow", "y"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupeDiags:\n got %v\nwant %v", got, want)
	}
	if len(dedupeDiags(nil)) != 0 {
		t.Error("dedupeDiags(nil) is non-empty")
	}
}
