package analyze

import (
	"encoding/json"
	"fmt"
	"io"

	"isex/internal/obs"
)

// chromeSpan is one Chrome trace-viewer event (the trace_event format,
// loadable by chrome://tracing and Perfetto). Cells, stages and block
// searches become complete ("X") duration events nested on per-chain
// tracks, so the causal structure is visible as a gantt instead of a
// dust of instants.
type chromeSpan struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// trackAlloc assigns non-overlapping lanes within one group (chain) by
// first fit: a span takes the lowest lane whose previous occupant ended
// before the span starts.
type trackAlloc struct {
	ends []int64
}

func (t *trackAlloc) place(start, end int64) int {
	for i, e := range t.ends {
		if e <= start {
			t.ends[i] = end
			return i
		}
	}
	t.ends = append(t.ends, end)
	return len(t.ends) - 1
}

// WriteChrome re-exports a merged trace as a Chrome trace with span
// nesting: one track group per chain (cell tag, or "run" for traces
// without cells), duration events for cells/stages/blocks, instant
// events for everything attached to a block, named args decoded via
// obs.KindArgNames.
func WriteChrome(w io.Writer, events []obs.Event) error {
	a := Build(events)

	// Chain (track-group) ids: cells share a group per tag; everything
	// else lands in group 0.
	groups := map[string]int{}
	groupOf := func(tag string) int {
		if id, ok := groups[tag]; ok {
			return id
		}
		id := len(groups) + 1
		groups[tag] = id
		return id
	}
	const lanesPerGroup = 64 // tid = group*lanesPerGroup + lane
	blockTID := map[int64]int{}

	var out []chromeSpan
	span := func(name string, gid, lane int, start, end int64, args map[string]any) {
		out = append(out, chromeSpan{
			Name: name, Phase: "X",
			TS:  float64(start) / 1e3,
			Dur: float64(end-start) / 1e3,
			PID: 1, TID: gid*lanesPerGroup + lane,
			Args: args,
		})
	}

	allocs := map[int]*trackAlloc{}
	alloc := func(gid int) *trackAlloc {
		if a, ok := allocs[gid]; ok {
			return a
		}
		t := &trackAlloc{}
		allocs[gid] = t
		return t
	}

	emitStage := func(s *Stage, gid int) {
		end := s.EndT
		if !s.Ended {
			end = s.StartT
		}
		lane := alloc(gid).place(s.StartT, end)
		span("stage "+s.Tag, gid, lane, s.StartT, end, map[string]any{
			"ninstr": s.Ninstr, "selected": s.Selected,
			"merit": s.TotalMerit,
		})
		for _, b := range s.Blocks {
			bend := b.EndT
			if !b.Ended {
				bend = b.StartT
			}
			blane := alloc(gid).place(b.StartT, bend)
			blockTID[b.Span] = gid*lanesPerGroup + blane
			span("block "+b.Tag, gid, blane, b.StartT, bend, map[string]any{
				"ops": b.Ops, "status": StatusName(b.Status),
				"merit": b.Merit, "cuts": b.Cuts, "workers": b.Workers,
			})
		}
	}

	for _, c := range a.Cells {
		gid := groupOf(c.Tag)
		end := c.EndT
		if !c.Ended {
			end = c.StartT
		}
		span(fmt.Sprintf("cell %s %d/%d", c.Tag, c.Nin, c.Nout), gid, 0, c.StartT, end,
			map[string]any{"nin": c.Nin, "nout": c.Nout, "ninstr": c.Ninstr, "merit": c.Merit})
		for _, s := range c.Stages {
			emitStage(s, gid)
		}
	}
	for _, s := range a.TopStages {
		emitStage(s, 0)
	}
	for _, b := range a.TopBlocks {
		end := b.EndT
		if !b.Ended {
			end = b.StartT
		}
		lane := alloc(0).place(b.StartT, end)
		blockTID[b.Span] = lane
		span("block "+b.Tag, 0, lane, b.StartT, end, map[string]any{
			"ops": b.Ops, "status": StatusName(b.Status),
			"merit": b.Merit, "cuts": b.Cuts, "workers": b.Workers,
		})
	}

	// Instants: every non-structural event, pinned to its block's track
	// when it has one so the dust lands on the right gantt bar.
	structural := map[obs.Kind]bool{
		obs.KSearchStart: true, obs.KSearchEnd: true,
		obs.KStageStart: true, obs.KStageEnd: true,
		obs.KCellStart: true, obs.KCellEnd: true,
	}
	for _, e := range events {
		if structural[e.Kind] {
			continue
		}
		tid, ok := blockTID[e.Span]
		if !ok {
			tid = int(e.Lane)
		}
		args := map[string]any{}
		vals := [3]int64{e.A, e.B, e.C}
		for i, n := range obs.KindArgNames(e.Kind) {
			if n != "" {
				args[n] = vals[i]
			}
		}
		if e.Tag != "" {
			args["tag"] = e.Tag
		}
		out = append(out, chromeSpan{
			Name: e.Kind.String(), Phase: "i",
			TS:  float64(e.T) / 1e3,
			PID: 1, TID: tid, Scope: "t",
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
