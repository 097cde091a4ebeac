package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isex/internal/ir"
	"isex/internal/sim"
	"isex/internal/workload"
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

// TestModeRejectsIgnoredFlags: a flag the chosen mode would ignore is an
// error that names it — a single-run flag with -sweep, a sweep flag
// without it — returned before any search runs.
func TestModeRejectsIgnoredFlags(t *testing.T) {
	sweep := []string{"-sweep", "-kernel", "fir", "-constraints", "2/1", "-ninstrs", "1"}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-json", append(sweep, "-json")},
		{"-strict", append(sweep, "-strict")},
		{"-method", append(sweep, "-method", "optimal")},
		{"-simulate", append(sweep, "-simulate")},
		{"-nin", append(sweep, "-nin", "9")},
		{"-nout", append(sweep, "-nout", "1")},
		{"-ninstr", append(sweep, "-ninstr", "2")},
		{"-verilog", append(sweep, "-verilog", "out")},
		{"-dot", append(sweep, "-dot", "g.dot")},
		{"-emit-ir", append(sweep, "-emit-ir", "m.ir")},
		{"-src", append(sweep, "-src", "prog.mc")},
		{"-entry", append(sweep, "-entry", "main")},
		{"-args", append(sweep, "-args", "1")},
		{"-unroll", append(sweep, "-unroll", "4")},
		{"-targets", []string{"-kernel", "fir", "-nin", "2", "-targets", "pipelined"}},
		{"-constraints", []string{"-kernel", "fir", "-constraints", "2/1"}},
		{"-ninstrs", []string{"-kernel", "fir", "-ninstrs", "1,2"}},
		{"-sweep-mode", []string{"-kernel", "fir", "-sweep-mode", "cold"}},
		{"-sweep-json", []string{"-kernel", "fir", "-sweep-json", "s.json"}},
	} {
		err := run(c.args)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("isex %s: err = %v, want an error naming %s", strings.Join(c.args, " "), err, c.flag)
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

// runOutput runs the isex command on argv and returns what it printed.
func runOutput(t *testing.T, argv ...string) (string, error) {
	t.Helper()
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
	err = run(argv)
	os.Stdout = stdout
	w.Close()
	return string(<-read), err
}

// simulated runs m on the cycle simulator with k's inputs.
func simulated(t *testing.T, k *workload.Kernel, m *ir.Module) int64 {
	t.Helper()
	rep, err := (&sim.Runner{Setup: k.SetInputs}).Run(m, k.Entry, k.Args...)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cycles
}

// TestSimulateChecksOutputs: -simulate prices the profiled runs of the
// original and the patched program at the cycles the simulator measures
// for each, and reports that they compute the same outputs — for a
// kernel, and for a -src program run from -entry with -args.
func TestSimulateChecksOutputs(t *testing.T) {
	for _, name := range []string{"adpcmdecode", "sha"} {
		patchedIR := filepath.Join(t.TempDir(), "patched.ir")
		out, err := runOutput(t, "-kernel", name, "-simulate", "-emit-ir", patchedIR)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		if !strings.Contains(out, "outputs: match") {
			t.Errorf("%s: no output check reported:\n%s", name, out)
		}
		var base, patched int64
		i := strings.Index(out, "cycles: ")
		if i < 0 {
			t.Fatalf("%s: no cycles reported:\n%s", name, out)
		}
		if _, err := fmt.Sscanf(out[i:], "cycles: %d -> %d", &base, &patched); err != nil {
			t.Fatalf("%s: %v:\n%s", name, err, out)
		}
		k := workload.ByName(name)
		m, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		if want := simulated(t, k, m); base != want {
			t.Errorf("%s: base cycles %d, the simulator measures %d", name, base, want)
		}
		text, err := os.ReadFile(patchedIR)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := ir.ParseModule(string(text))
		if err != nil {
			t.Fatal(err)
		}
		if want := simulated(t, k, pm); patched != want {
			t.Errorf("%s: patched cycles %d, the simulator measures %d", name, patched, want)
		}
	}

	src := filepath.Join(t.TempDir(), "prog.mc")
	prog := `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];
int acc;

int run(int n, int k) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7) * k;
        int x = w > 64 ? 64 + (w & 31) : w;
        out0[i & 15] = x ^ (v * 3 + 5);
        acc = acc + (x >> 1) - k;
    }
    return acc & 1023;
}
`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runOutput(t, "-src", src, "-entry", "run", "-args", "300,5", "-nin", "2", "-nout", "1", "-simulate")
	if err != nil {
		t.Fatalf("-src: %v\n%s", err, out)
	}
	if !strings.Contains(out, "outputs: match (return value and 3 global(s))") {
		t.Errorf("-src: no output check reported:\n%s", out)
	}
}

// TestVerilogDividingAFUs: -verilog writes one file per patched
// instruction on gsmlpc and fft, whose AFUs divide by an input that some
// of the default test vectors set to 0.
func TestVerilogDividingAFUs(t *testing.T) {
	for _, name := range []string{"gsmlpc", "fft"} {
		dir := t.TempDir()
		out, err := runOutput(t, "-kernel", name, "-verilog", dir)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		var patched int
		i := strings.Index(out, "patched in ")
		if i < 0 {
			t.Fatalf("%s: nothing patched:\n%s", name, out)
		}
		if _, err := fmt.Sscanf(out[i:], "patched in %d", &patched); err != nil {
			t.Fatalf("%s: %v:\n%s", name, err, out)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.v"))
		if err != nil {
			t.Fatal(err)
		}
		if patched == 0 || len(files) != patched {
			t.Errorf("%s: %d Verilog file(s) for %d patched instruction(s)", name, len(files), patched)
		}
	}
}
