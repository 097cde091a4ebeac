package main

import "testing"

// TestCheckPorts: a special instruction needs at least one read and one
// write port, so -nin or -nout below 1 is rejected before any search.
func TestCheckPorts(t *testing.T) {
	for _, c := range []struct {
		nin, nout int
		ok        bool
	}{
		{1, 1, true},
		{4, 2, true},
		{0, 0, false},
		{0, 1, false},
		{2, 0, false},
		{-1, 2, false},
	} {
		if err := checkPorts(c.nin, c.nout); (err == nil) != c.ok {
			t.Errorf("checkPorts(%d, %d) = %v, want ok=%v", c.nin, c.nout, err, c.ok)
		}
	}
}
