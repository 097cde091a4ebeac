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
	Lane int32  `json:"lane"`
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
		je := jsonlEvent{T: e.T, Lane: e.Lane, Kind: e.Kind.String(),
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

// KindByName resolves a wire name ("incumbent", "donate", ...) back to
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
		out = append(out, Event{T: je.T, Lane: je.Lane, Kind: k,
			Span: je.Span, A: je.A, B: je.B, C: je.C, Tag: je.Tag})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// chromeArgNames maps each kind's A/B/C payload onto named args, as the
// analyzer's reports and Chrome re-export decode them.
// Total over KindCount — the exhaustiveness guard test fails when a new
// kind forgets its decode entry ("" marks an unused slot).
var chromeArgNames = map[Kind][3]string{
	KSearchStart: {"ops", "workers", "parent_span"},
	KSearchEnd:   {"status", "merit", "cuts"},
	KIncumbent:   {"merit", "cuts", "rank"},
	KDonate:      {"rank", "", ""},
	KStop:        {"status", "", ""},
	KLaneEnd:     {"pruned", "bounded", "active_ns"},
	KRescue:      {"found", "merit", "cuts"},
	KCollapse:    {"round", "cut_size", ""},
	KPanic:       {"attempt", "", ""},
	KGreedy:      {"found", "merit", "candidates"},
	KStageStart:  {"parent_span", "ninstr", ""},
	KStageEnd:    {"selected", "total_merit", "ident_calls"},
	KCellStart:   {"nin", "nout", "ninstr"},
	KCellEnd:     {"nin", "nout", "merit"},
}

// KindArgNames returns the named meanings of kind k's A/B/C payload
// slots ("" = unused), for the analyzer's attribution reports and its
// Chrome re-export.
func KindArgNames(k Kind) [3]string { return chromeArgNames[k] }
