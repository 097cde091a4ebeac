package main

import (
	"fmt"
	"io"
	"os"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

// telemetry is one run's observability, shared by single runs and
// -sweep: the probe the searches feed and the trace files written when
// the run is done.
type telemetry struct {
	// probe is nil when no trace is wanted, which keeps the search
	// byte-for-byte on its fast path.
	probe       *obs.Probe
	tracePath   string
	traceChrome string
}

// startTelemetry builds the run's probe: the flight recorder when a
// trace file is wanted, nothing otherwise.
func startTelemetry(tracePath, traceChrome string) *telemetry {
	t := &telemetry{tracePath: tracePath, traceChrome: traceChrome}
	if tracePath != "" || traceChrome != "" {
		t.probe = &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
	}
	return t
}

// finish merges the recorded timeline, warns when the recorder dropped
// events, and writes the -trace file (JSONL) and the -trace-chrome file
// (Chrome trace_event, block searches nested under their stages and
// cells). It returns the events, nil when nothing was recorded.
func (t *telemetry) finish() ([]obs.Event, error) {
	if t.probe == nil {
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
