package bigint

import "testing"

// TestLadderValidateMonotone pins the Validate consistency rules directly:
// the Karatsuba rung is mandatory and the NTT rung, when enabled, must sit
// at or above it. A valid profile with the NTT rung disabled passes.
func TestLadderValidateMonotone(t *testing.T) {
	cases := []struct {
		l      Ladder
		wantOK bool
	}{
		{Ladder{KaratsubaLimbs: 40, NTTLimbs: 1500}, true},
		{Ladder{KaratsubaLimbs: 40, NTTLimbs: 40}, true},  // equal is allowed
		{Ladder{KaratsubaLimbs: 40, NTTLimbs: 0}, true},   // NTT rung disabled
		{Ladder{KaratsubaLimbs: 40, NTTLimbs: -1}, true},  // also disabled
		{Ladder{KaratsubaLimbs: 40, NTTLimbs: 39}, false}, // non-monotone
		{Ladder{KaratsubaLimbs: 1, NTTLimbs: 1500}, false},
		{Ladder{KaratsubaLimbs: 0}, false},
		{Ladder{KaratsubaLimbs: -5}, false},
	}
	for _, tc := range cases {
		err := tc.l.Validate()
		if tc.wantOK && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", tc.l, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tc.l)
		}
	}
}
