// Fixture for the recoverpath analyzer. Miniature stand-ins for
// erasure.Code and softfault.Corrector are matched by name.
package ftparallel

type Int struct{ v int }

type Code struct{ r int }

func (c *Code) Decode(m map[int][]Int) (map[int][]Int, error) { return m, nil }
func (c *Code) Solve(rows, erased []int, rhs [][]Int) ([][]Int, int64, error) {
	return rhs, 0, nil
}

type Corrector struct{ t int }

func (c *Corrector) Correct(vals []Int) ([]Int, []int, error) { return vals, nil, nil }
func (c *Corrector) Verify(vals []Int) (bool, error)          { return true, nil }

// checked is the correct shape: every recovery error is looked at.
func checked(c *Code, m map[int][]Int) (map[int][]Int, error) {
	rec, err := c.Decode(m)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeVia threads the error through a helper; the helper's summary marks
// it as a recovery-error source too, so its callers are held to the rule.
func decodeVia(c *Code, m map[int][]Int) (map[int][]Int, error) {
	return c.Decode(m)
}

func checkedViaHelper(c *Code, m map[int][]Int) map[int][]Int {
	rec, err := decodeVia(c, m)
	if err != nil {
		return nil
	}
	return rec
}

// discardedDecode throws the erasure outcome away with a blank: an
// undecodable erasure would pass silently.
func discardedDecode(c *Code, m map[int][]Int) map[int][]Int {
	rec, _ := c.Decode(m) // want "discarded with _"
	return rec
}

// repairChecked is the runtime repair's shape: the solve's shares, its
// work and its error, all looked at.
func repairChecked(c *Code, rows, dead []int, res [][]Int) ([][]Int, error) {
	shares, work, err := c.Solve(rows, dead, res)
	if err != nil {
		return nil, err
	}
	_ = work
	return shares, nil
}

// repairDiscarded drops the solve's error: a non-integral or singular
// repair would hand the victims garbage shards.
func repairDiscarded(c *Code, rows, dead []int, res [][]Int) [][]Int {
	shares, _, _ := c.Solve(rows, dead, res) // want "discarded with _"
	return shares
}

// restore has the shape of the runtime's Coder.RecoverData: its single
// result is the error of a Code.Solve it reaches.
func restore(c *Code, rows, dead []int, res [][]Int) error {
	_, _, err := c.Solve(rows, dead, res)
	return err
}

// restoreDiscarded assigns that lone error to blank.
func restoreDiscarded(c *Code, rows, dead []int, res [][]Int) {
	_ = restore(c, rows, dead, res) // want "discarded with _"
}

// discardedViaHelper: the same discard one call away — only the summary
// knows decodeVia's error is a recovery error.
func discardedViaHelper(c *Code, m map[int][]Int) map[int][]Int {
	rec, _ := decodeVia(c, m) // want "discarded with _"
	return rec
}

// discardedCorrect drops the soft-fault correction error (and the erasure
// index slice with it).
func discardedCorrect(cr *Corrector, vals []Int) []Int {
	fixed, _, _ := cr.Correct(vals) // want "discarded with _"
	return fixed
}

// droppedVerify discards the verification outcome entirely.
func droppedVerify(cr *Corrector, vals []Int) {
	cr.Verify(vals) // want "dropped entirely"
}

// goroutineDecode launches the decode with go: the error can never be seen.
func goroutineDecode(c *Code, m map[int][]Int) {
	go c.Decode(m) // want "launched with go"
}
