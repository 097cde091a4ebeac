package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonlEvent is the JSONL wire form of an Event. Field meanings follow
// the Kind documentation; zero payload fields are omitted.
type jsonlEvent struct {
	T    int64  `json:"t_ns"`
	Ring int32  `json:"ring"`
	Kind string `json:"kind"`
	Span int64  `json:"span,omitempty"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
	C    int64  `json:"c,omitempty"`
	Tag  string `json:"tag,omitempty"`
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		je := jsonlEvent{T: e.T, Ring: e.Ring, Kind: e.Kind.String(),
			Span: e.Span, A: e.A, B: e.B, C: e.C, Tag: e.Tag}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// kindByName is the lazily built reverse of kindNames.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, KindCount)
	for i := 0; i < KindCount; i++ {
		m[Kind(i).String()] = Kind(i)
	}
	return m
}()

// KindByName resolves a wire name ("incumbent", "steal", ...) back to
// its Kind; ok is false for unknown names. The decode half of
// Kind.String, used by the JSONL reader in internal/obs/analyze.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// ParseJSONL reads a WriteJSONL stream back into events. Unknown kind
// names are an error — the exhaustiveness guard keeps the name table
// total, so an unknown name means a version mismatch, not a soft skip.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		k, ok := KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown event kind %q", line, je.Kind)
		}
		out = append(out, Event{T: je.T, Ring: je.Ring, Kind: k,
			Span: je.Span, A: je.A, B: je.B, C: je.C, Tag: je.Tag})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// instant events on one process, one thread per flight-recorder ring,
// loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeArgNames maps each kind's A/B/C payload onto named trace args.
// Total over KindCount — the exhaustiveness guard test fails when a new
// kind forgets its decode entry ("" marks an unused slot).
var chromeArgNames = map[Kind][3]string{
	KSearchStart:  {"ops", "workers", "parent_span"},
	KSearchEnd:    {"status", "merit", "cuts"},
	KIncumbent:    {"merit", "cuts", "rank"},
	KPrune:        {"rank", "", ""},
	KBound:        {"rank", "incumbent", ""},
	KSteal:        {"count", "victim", "deque_depth"},
	KDonate:       {"rank", "", ""},
	KResplit:      {"depth", "children", ""},
	KStop:         {"status", "", ""},
	KRescue:       {"found", "merit", "cuts"},
	KCollapse:     {"round", "cut_size", ""},
	KWarmSeed:     {"merit", "", ""},
	KPanic:        {"attempt", "", ""},
	KGreedy:       {"found", "merit", "candidates"},
	KStall:        {"worker", "samples", ""},
	KDedup:        {"hit", "m", ""},
	KToggle:       {"delta", "total", ""},
	KRestart:      {"restart", "seed_merit", "seed_size"},
	KRacerPublish: {"merit", "restart", "cut_size"},
	KRacerAdopt:   {"merit", "prev_merit", ""},
	KStageStart:   {"parent_span", "ninstr", ""},
	KStageEnd:     {"selected", "total_merit", "ident_calls"},
	KCellStart:    {"nin", "nout", "ninstr"},
	KCellEnd:      {"nin", "nout", "merit"},
	KSeedPut:      {"merit", "cut_size", ""},
	KSeedHit:      {"merit", "cut_size", ""},
	KSeedReject:   {"rejected", "", ""},
}

// KindArgNames returns the named meanings of kind k's A/B/C payload
// slots ("" = unused). Shared with the analyzer so attribution reports
// and the Chrome re-export decode payloads identically.
func KindArgNames(k Kind) [3]string { return chromeArgNames[k] }

// KindHasArgNames reports whether kind k has an arg-name mapping at all.
// KindArgNames returns the zero value for unmapped kinds, so the
// exhaustiveness guard needs the membership test to catch a new kind
// that forgot its entry.
func KindHasArgNames(k Kind) bool {
	_, ok := chromeArgNames[k]
	return ok
}

// chrome converts an Event to its trace_event form: a thread-scoped
// instant on tid = ring id, so the per-worker interleaving is visible
// on separate tracks.
func (e Event) chrome() chromeEvent {
	ce := chromeEvent{
		Name:  e.Kind.String(),
		Phase: "i",
		TS:    float64(e.T) / 1e3,
		PID:   1,
		TID:   e.Ring,
		Scope: "t",
	}
	names := chromeArgNames[e.Kind]
	args := make(map[string]any, 5)
	for i, v := range [3]int64{e.A, e.B, e.C} {
		if names[i] != "" {
			args[names[i]] = v
		}
	}
	if e.Span != 0 {
		args["span"] = e.Span
	}
	if e.Tag != "" {
		args["tag"] = e.Tag
	}
	if len(args) > 0 {
		ce.Args = args
	}
	return ce
}

// WriteChromeTrace writes events as a Chrome trace_event JSON array for
// chrome://tracing / Perfetto.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		data, err := json.Marshal(e.chrome())
		if err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
