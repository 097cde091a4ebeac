package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
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

// TestKernelRejectsSrcFlags: the flags that configure a -src program
// would have no effect on a built-in kernel, so combining one with
// -kernel is an error that names it.
func TestKernelRejectsSrcFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-unroll", "32"},
		{"-args", "1,2"},
		{"-entry", "main"},
		{"-src", "prog.mc"},
	} {
		err := run([]string{"-kernel", "sha", c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("-kernel sha %s %s: err = %v, want an error naming %s", c.flag, c.value, err, c.flag)
		}
	}
}

// TestTraceChromeNestsBlocks: a single run's -trace-chrome file has the
// format a sweep's has — the analyzer's re-export, in which every block
// search is a duration event inside its selection stage's.
func TestTraceChromeNestsBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	err = run([]string{"-kernel", "fir", "-nin", "2", "-nout", "1", "-ninstr", "2", "-trace-chrome", path})
	os.Stdout, os.Stderr = stdout, stderr
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("-trace-chrome is not a trace_event array: %v", err)
	}
	var stage *struct{ ts, end float64 }
	blocks := 0
	for _, e := range events {
		if e.Ph == "X" && e.Name == "stage select/iterative" {
			stage = &struct{ ts, end float64 }{e.TS, e.TS + e.Dur}
		}
	}
	if stage == nil {
		t.Fatalf("no stage span in %s", data)
	}
	for _, e := range events {
		if e.Ph != "X" || !strings.HasPrefix(e.Name, "block ") {
			continue
		}
		blocks++
		const ns = 1e-3 // the timestamps are microseconds
		if e.TS < stage.ts-ns || e.TS+e.Dur > stage.end+ns {
			t.Errorf("%s [%v, %v] lies outside its stage [%v, %v]", e.Name, e.TS, e.TS+e.Dur, stage.ts, stage.end)
		}
	}
	if blocks == 0 {
		t.Fatalf("no block spans in %s", data)
	}
}

// TestSimulateChecksOutputs: -simulate runs the original and the patched
// program and reports that they compute the same outputs.
func TestSimulateChecksOutputs(t *testing.T) {
	for _, k := range []string{"adpcmdecode", "sha"} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		read := make(chan []byte)
		go func() {
			out, _ := io.ReadAll(r)
			read <- out
		}()
		stdout := os.Stdout
		os.Stdout = w
		err = run([]string{"-kernel", k, "-simulate"})
		os.Stdout = stdout
		w.Close()
		out := string(<-read)
		if err != nil {
			t.Fatalf("%s: %v\n%s", k, err, out)
		}
		if !strings.Contains(out, "outputs: match") {
			t.Errorf("%s: no output check reported:\n%s", k, out)
		}
	}
}

// TestDiffOutputs: the output check names the first global element, or
// the return value, that a planted difference changes.
func TestDiffOutputs(t *testing.T) {
	want := programOutputs{ret: 7, names: []string{"a", "b"}, globals: [][]int32{{1, 2}, {3, 4, 5}}}
	same := programOutputs{ret: 7, names: want.names, globals: [][]int32{{1, 2}, {3, 4, 5}}}
	if err := diffOutputs(want, same); err != nil {
		t.Fatalf("equal outputs reported as different: %v", err)
	}
	planted := programOutputs{ret: 7, names: want.names, globals: [][]int32{{1, 2}, {3, 9, 6}}}
	if err := diffOutputs(want, planted); err == nil || err.Error() != "b[1] = 9, the original 4" {
		t.Errorf("planted global difference: err = %v", err)
	}
	planted = programOutputs{ret: 8, names: want.names, globals: want.globals}
	if err := diffOutputs(want, planted); err == nil || !strings.Contains(err.Error(), "returned 8") {
		t.Errorf("planted return-value difference: err = %v", err)
	}
}
