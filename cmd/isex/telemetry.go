package main

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

// telemetry is one run's observability, shared by single runs and
// -sweep: the probe the searches feed, the live metrics server, and the
// trace files written when the run is done.
type telemetry struct {
	// probe is nil when nothing reads it, which keeps the search
	// byte-for-byte on its fast path.
	probe       *obs.Probe
	tracePath   string
	traceChrome string
}

// startTelemetry builds the run's probe: the flight recorder when a
// trace file is wanted, the metrics registry when wantMet is set or
// metricsAddr serves it. With metricsAddr it starts the HTTP server:
// Prometheus text on /metrics, expvar JSON on /debug/vars, pprof on
// /debug/pprof/, and the given extra routes.
func startTelemetry(tracePath, traceChrome, metricsAddr string, wantMet bool, routes map[string]http.HandlerFunc) *telemetry {
	t := &telemetry{tracePath: tracePath, traceChrome: traceChrome}
	wantRec := tracePath != "" || traceChrome != ""
	wantMet = wantMet || metricsAddr != ""
	if !wantRec && !wantMet {
		return t
	}
	t.probe = &obs.Probe{}
	if wantRec {
		t.probe.Rec = obs.NewRecorder(obs.DefaultRingCap)
	}
	if wantMet {
		t.probe.Met = obs.NewMetrics(obs.NewRegistry())
	}
	if metricsAddr == "" {
		return t
	}
	reg := t.probe.Met.Registry()
	expvar.Publish("isex", expvar.Func(func() any { return reg.Snapshot() }))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	var paths []string
	for path, h := range routes {
		http.HandleFunc(path, h)
		paths = append(paths, path)
	}
	sort.Strings(paths)
	paths = append(paths, "/metrics", "/debug/vars", "/debug/pprof/")
	go func() {
		if err := http.ListenAndServe(metricsAddr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "isex: metrics server:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "serving live metrics on %s (%s)\n", metricsAddr, strings.Join(paths, ", "))
	return t
}

// finish merges the recorded timeline, warns when the recorder dropped
// events, and writes the -trace file (JSONL) and the -trace-chrome file
// (Chrome trace_event, block searches nested under their stages and
// cells). It returns the events, nil when nothing was recorded.
func (t *telemetry) finish() ([]obs.Event, error) {
	if t.probe == nil || t.probe.Rec == nil {
		return nil, nil
	}
	events := t.probe.Rec.Merge()
	if n := t.probe.Rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "isex: flight recorder dropped the %d oldest events; the trace is incomplete\n", n)
	}
	if t.tracePath != "" {
		if err := writeTrace(t.tracePath, events, obs.WriteJSONL); err != nil {
			return nil, fmt.Errorf("writing -trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events, JSONL)\n", t.tracePath, len(events))
	}
	if t.traceChrome != "" {
		if err := writeTrace(t.traceChrome, events, analyze.WriteChrome); err != nil {
			return nil, fmt.Errorf("writing -trace-chrome: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events, Chrome trace_event with span nesting)\n", t.traceChrome, len(events))
	}
	return events, nil
}

// writeTrace writes the merged event timeline to path in the format
// implemented by write (JSONL or Chrome trace_event).
func writeTrace(path string, events []obs.Event, write func(w io.Writer, evs []obs.Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
