package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

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

// TestSweepProgressNotDrawnOnFailure: `isex -sweep -progress` on a grid
// that dse rejects (one constraint listed twice) reports the error and
// draws no progress view, while a sweep that succeeds still draws its
// final view once.
func TestSweepProgressNotDrawnOnFailure(t *testing.T) {
	sweep := func(constraints string) (string, error) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		err = runSweep("fir", "", constraints, "1", "warm", "", 0, 1, 0, sweepIO{progress: true})
		os.Stderr = stderr
		w.Close()
		out, rerr := io.ReadAll(r)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return string(out), err
	}
	out, err := sweep("2/1,2/1")
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("repeated constraint: err = %v, want the dse rejection", err)
	}
	if out != "" {
		t.Errorf("failed sweep drew a progress view: %q", out)
	}
	out, err = sweep("2/1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cells done") {
		t.Errorf("successful sweep drew no final progress view: %q", out)
	}
}
