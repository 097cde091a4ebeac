package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------
// Deterministic surface: `isex -explain`.
//
// Everything emitted here is a pure function of the search *tree*, not
// of scheduling: no timestamps, no worker counts, no ring or span IDs,
// no steal/donate/incumbent-interleaving tallies. For exhaustive runs
// the output is byte-identical across worker counts.
// ---------------------------------------------------------------------

// ExplainBlock is the deterministic view of one block search.
type ExplainBlock struct {
	Tag    string `json:"tag"`
	Ops    int64  `json:"ops"`
	Status string `json:"status"`
	Merit  int64  `json:"merit"`
	Cuts   int64  `json:"cuts_considered"`
	Prunes int64  `json:"feasibility_prunes"`
	Bounds int64  `json:"bound_prunes"`
	Rescue string `json:"rescue,omitempty"`
	Greedy string `json:"greedy,omitempty"`
	Panics int64  `json:"panics,omitempty"`
}

// ExplainStage is the deterministic view of one selection stage.
type ExplainStage struct {
	Tag        string         `json:"tag"`
	Ninstr     int64          `json:"ninstr"`
	Selected   int64          `json:"selected"`
	TotalMerit int64          `json:"total_merit"`
	IdentCalls int64          `json:"ident_calls"`
	Cuts       int64          `json:"cuts_considered"`
	Prunes     int64          `json:"feasibility_prunes"`
	Bounds     int64          `json:"bound_prunes"`
	Collapses  int64          `json:"collapses,omitempty"`
	Blocks     []ExplainBlock `json:"blocks"`
}

// ExplainCell is the deterministic view of one DSE constraint group.
type ExplainCell struct {
	Tag    string         `json:"tag"`
	Nin    int64          `json:"nin"`
	Nout   int64          `json:"nout"`
	Ninstr int64          `json:"ninstr"`
	Merit  int64          `json:"merit"`
	Stages []ExplainStage `json:"stages"`
}

// ExplainReport is the deterministic attribution report. Trace-size
// counters (event/orphan/unscoped totals) are deliberately absent: the
// engine's coordination events (steals, donations) vary with worker
// count, so any raw event tally would break the
// byte-identity contract. They live in the full summary instead.
type ExplainReport struct {
	Schema string         `json:"schema"`
	Cells  []ExplainCell  `json:"cells,omitempty"`
	Stages []ExplainStage `json:"stages,omitempty"`
	Blocks []ExplainBlock `json:"blocks,omitempty"`
}

// ExplainSchema versions the deterministic report.
const ExplainSchema = "isex-explain/v1"

func rungOutcome(tried, found bool, merit int64) string {
	switch {
	case !tried:
		return ""
	case found:
		return fmt.Sprintf("found merit=%d", merit)
	default:
		return "empty"
	}
}

func explainBlock(b *Block) ExplainBlock {
	return ExplainBlock{
		Tag:    b.Tag,
		Ops:    b.Ops,
		Status: StatusName(b.Status),
		Merit:  b.Merit,
		Cuts:   b.Cuts,
		Prunes: b.Prunes,
		Bounds: b.Bounds,
		Rescue: rungOutcome(b.RescueTried, b.RescueFound, b.RescueMerit),
		Greedy: rungOutcome(b.GreedyTried, b.GreedyFound, b.GreedyMerit),
		Panics: b.Panics,
	}
}

// sortedBlocks orders a stage's blocks deterministically: by tag, then
// by first-event order within a tag (same-tag searches inside one stage
// are sequential selection rounds, so trace order is logical order).
func sortedBlocks(blocks []*Block) []*Block {
	out := append([]*Block(nil), blocks...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

func explainStage(s *Stage) ExplainStage {
	es := ExplainStage{
		Tag:        s.Tag,
		Ninstr:     s.Ninstr,
		Selected:   s.Selected,
		TotalMerit: s.TotalMerit,
		IdentCalls: s.IdentCalls,
		Collapses:  s.Collapses,
	}
	for _, b := range sortedBlocks(s.Blocks) {
		es.Cuts += b.Cuts
		es.Prunes += b.Prunes
		es.Bounds += b.Bounds
		es.Blocks = append(es.Blocks, explainBlock(b))
	}
	return es
}

// BuildExplain derives the deterministic report from a span tree.
func BuildExplain(a *Analysis) ExplainReport {
	r := ExplainReport{Schema: ExplainSchema}
	cells := append([]*Cell(nil), a.Cells...)
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Nin != b.Nin {
			return a.Nin < b.Nin
		}
		if a.Nout != b.Nout {
			return a.Nout < b.Nout
		}
		return a.Ninstr < b.Ninstr
	})
	for _, c := range cells {
		ec := ExplainCell{Tag: c.Tag, Nin: c.Nin, Nout: c.Nout, Ninstr: c.Ninstr, Merit: c.Merit}
		for _, s := range c.Stages {
			ec.Stages = append(ec.Stages, explainStage(s))
		}
		r.Cells = append(r.Cells, ec)
	}
	for _, s := range a.TopStages {
		r.Stages = append(r.Stages, explainStage(s))
	}
	for _, b := range sortedBlocks(a.TopBlocks) {
		r.Blocks = append(r.Blocks, explainBlock(b))
	}
	return r
}

// WriteExplain renders the deterministic report as text.
func WriteExplain(w io.Writer, a *Analysis) {
	r := BuildExplain(a)
	fmt.Fprintf(w, "search attribution (%s)\n", r.Schema)
	for _, c := range r.Cells {
		fmt.Fprintf(w, "\ncell %s Nin=%d Nout=%d ninstr<=%d merit=%d\n",
			c.Tag, c.Nin, c.Nout, c.Ninstr, c.Merit)
		for _, s := range c.Stages {
			writeExplainStage(w, s, "  ")
		}
	}
	for _, s := range r.Stages {
		fmt.Fprintln(w)
		writeExplainStage(w, s, "")
	}
	for _, b := range r.Blocks {
		writeExplainBlock(w, b, "")
	}
}

func writeExplainStage(w io.Writer, s ExplainStage, indent string) {
	fmt.Fprintf(w, "%sstage %s ninstr=%d selected=%d merit=%d ident_calls=%d\n",
		indent, s.Tag, s.Ninstr, s.Selected, s.TotalMerit, s.IdentCalls)
	fmt.Fprintf(w, "%s  pruning: %d cuts considered, %d feasibility-pruned, %d bound-pruned\n",
		indent, s.Cuts, s.Prunes, s.Bounds)
	if s.Collapses > 0 {
		fmt.Fprintf(w, "%s  collapses: %d\n", indent, s.Collapses)
	}
	for _, b := range s.Blocks {
		writeExplainBlock(w, b, indent+"  ")
	}
}

func writeExplainBlock(w io.Writer, b ExplainBlock, indent string) {
	fmt.Fprintf(w, "%sblock %s ops=%d %s merit=%d cuts=%d prune=%d bound=%d",
		indent, b.Tag, b.Ops, b.Status, b.Merit, b.Cuts, b.Prunes, b.Bounds)
	if b.Rescue != "" {
		fmt.Fprintf(w, " rescue[%s]", b.Rescue)
	}
	if b.Greedy != "" {
		fmt.Fprintf(w, " greedy[%s]", b.Greedy)
	}
	if b.Panics > 0 {
		fmt.Fprintf(w, " panics=%d", b.Panics)
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------
// Full surface: cmd/isetrace. Timings, worker lanes, critical paths —
// byte-stable only against a fixed recorded trace.
// ---------------------------------------------------------------------

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Utilization returns the fraction of (lanes × block duration) covered
// by lane activity windows, in percent. 0 when unknowable.
func (b *Block) Utilization() float64 {
	d := b.Duration()
	if d <= 0 || len(b.Lanes) == 0 {
		return 0
	}
	var active int64
	for _, l := range b.Lanes {
		if l.LastT > l.FirstT {
			active += l.LastT - l.FirstT
		}
	}
	return 100 * float64(active) / float64(d*int64(len(b.Lanes)))
}

// WriteSummary renders the full-mode per-span summary with timings.
func WriteSummary(w io.Writer, a *Analysis) {
	fmt.Fprintf(w, "trace: %d events, %d cells, %d stages, %d block searches",
		a.Events, len(a.Cells), len(a.Stages), len(a.Blocks))
	if a.Unscoped > 0 {
		fmt.Fprintf(w, ", %d unscoped", a.Unscoped)
	}
	if a.Orphans > 0 {
		fmt.Fprintf(w, ", %d orphaned", a.Orphans)
	}
	fmt.Fprintln(w)
	for _, c := range a.Cells {
		fmt.Fprintf(w, "\ncell %s Nin=%d Nout=%d ninstr<=%d merit=%d wall=%s\n",
			c.Tag, c.Nin, c.Nout, c.Ninstr, c.Merit, fmtNS(c.Duration()))
		for _, s := range c.Stages {
			writeSummaryStage(w, s, "  ")
		}
	}
	for _, s := range a.TopStages {
		fmt.Fprintln(w)
		writeSummaryStage(w, s, "")
	}
	for _, b := range a.TopBlocks {
		writeSummaryBlock(w, b, "")
	}
}

func writeSummaryStage(w io.Writer, s *Stage, indent string) {
	fmt.Fprintf(w, "%sstage %s ninstr=%d wall=%s selected=%d merit=%d blocks=%d\n",
		indent, s.Tag, s.Ninstr, fmtNS(s.Duration()), s.Selected, s.TotalMerit,
		len(s.Blocks))
	// Heaviest blocks first: that is what a human reading a summary wants.
	blocks := append([]*Block(nil), s.Blocks...)
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].Duration() > blocks[j].Duration() })
	for _, b := range blocks {
		writeSummaryBlock(w, b, indent+"  ")
	}
}

func writeSummaryBlock(w io.Writer, b *Block, indent string) {
	fmt.Fprintf(w, "%sblock %s ops=%d wall=%s %s merit=%d cuts=%d workers=%d lanes=%d util=%.1f%%",
		indent, b.Tag, b.Ops, fmtNS(b.Duration()), StatusName(b.Status),
		b.Merit, b.Cuts, b.Workers, len(b.Lanes), b.Utilization())
	if b.Steals+b.Donates+b.Resplits > 0 {
		fmt.Fprintf(w, " steal=%d(+%d sub) donate=%d resplit=%d",
			b.Steals, b.StolenSubs, b.Donates, b.Resplits)
	}
	fmt.Fprintln(w)
}

// WriteLanes renders per-worker lane economics for every block search.
func WriteLanes(w io.Writer, a *Analysis) {
	for _, b := range a.Blocks {
		fmt.Fprintf(w, "block %s wall=%s lanes=%d util=%.1f%%\n",
			b.Tag, fmtNS(b.Duration()), len(b.Lanes), b.Utilization())
		for _, l := range b.Lanes {
			active := l.LastT - l.FirstT
			if active < 0 {
				active = 0
			}
			fmt.Fprintf(w, "  ring %d: active=%s events=%d prune=%d bound=%d inc=%d steal=%d(+%d) donate=%d resplit=%d stop=%d\n",
				l.Ring, fmtNS(active), l.Events, l.Prunes, l.Bounds,
				l.Incumbents, l.Steals, l.StolenSubs, l.Donates, l.Resplits, l.Stops)
		}
	}
}

// CriticalHop is one step on a span's critical path.
type CriticalHop struct {
	T     int64 // relative to the path root's start
	Label string
}

// criticalBlock lists the decisive moments inside one block search:
// each incumbent improvement, rescue/greedy rungs, and the end.
func criticalBlock(b *Block, epoch int64) []CriticalHop {
	var hops []CriticalHop
	add := func(t int64, format string, args ...any) {
		hops = append(hops, CriticalHop{T: t - epoch, Label: fmt.Sprintf(format, args...)})
	}
	add(b.StartT, "block %s start (ops=%d)", b.Tag, b.Ops)
	for _, s := range b.Incumbent {
		add(s.T, "incumbent merit=%d after %d cuts", s.Merit, s.Cuts)
	}
	if b.RescueTried {
		add(b.EndT, "rescue rung: %s", rungOutcome(true, b.RescueFound, b.RescueMerit))
	}
	if b.GreedyTried {
		add(b.EndT, "greedy rung: %s", rungOutcome(true, b.GreedyFound, b.GreedyMerit))
	}
	if b.Ended {
		add(b.EndT, "block end %s merit=%d cuts=%d", StatusName(b.Status), b.Merit, b.Cuts)
	}
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].T < hops[j].T })
	return hops
}

func longestBlock(blocks []*Block) *Block {
	var best *Block
	for _, b := range blocks {
		if best == nil || b.EndT > best.EndT {
			best = b
		}
	}
	return best
}

func longestStage(stages []*Stage) *Stage {
	var best *Stage
	for _, s := range stages {
		if best == nil || s.EndT > best.EndT {
			best = s
		}
	}
	return best
}

// WriteCritical renders the critical path: for every root span (cell,
// top-level stage, top-level block) the chain of children that finished
// last, then the decisive moments inside the terminal block search.
func WriteCritical(w io.Writer, a *Analysis) {
	writeStagePath := func(s *Stage, epoch int64, indent string) {
		fmt.Fprintf(w, "%s+%s stage %s (wall %s, %d blocks)\n",
			indent, fmtNS(s.StartT-epoch), s.Tag, fmtNS(s.Duration()), len(s.Blocks))
		b := longestBlock(s.Blocks)
		if b == nil {
			return
		}
		fmt.Fprintf(w, "%s  +%s block %s finishes last (wall %s)\n",
			indent, fmtNS(b.StartT-epoch), b.Tag, fmtNS(b.Duration()))
		for _, h := range criticalBlock(b, epoch) {
			fmt.Fprintf(w, "%s    +%s %s\n", indent, fmtNS(h.T), h.Label)
		}
	}
	for _, c := range a.Cells {
		fmt.Fprintf(w, "critical path: cell %s Nin=%d Nout=%d (wall %s)\n",
			c.Tag, c.Nin, c.Nout, fmtNS(c.Duration()))
		if s := longestStage(c.Stages); s != nil {
			writeStagePath(s, c.StartT, "  ")
		}
		fmt.Fprintln(w)
	}
	for _, s := range a.TopStages {
		fmt.Fprintf(w, "critical path: stage %s (wall %s)\n", s.Tag, fmtNS(s.Duration()))
		writeStagePath(s, s.StartT, "  ")
		fmt.Fprintln(w)
	}
	for _, b := range a.TopBlocks {
		fmt.Fprintf(w, "critical path: block %s (wall %s)\n", b.Tag, fmtNS(b.Duration()))
		for _, h := range criticalBlock(b, b.StartT) {
			fmt.Fprintf(w, "  +%s %s\n", fmtNS(h.T), h.Label)
		}
		fmt.Fprintln(w)
	}
}

// Render returns a named full-mode rendering as a string; used by
// cmd/isetrace and the golden-trace tests.
func Render(a *Analysis, mode string) (string, error) {
	var sb strings.Builder
	switch mode {
	case "summary":
		WriteSummary(&sb, a)
	case "critical":
		WriteCritical(&sb, a)
	case "lanes":
		WriteLanes(&sb, a)
	case "explain":
		WriteExplain(&sb, a)
	default:
		return "", fmt.Errorf("unknown render mode %q", mode)
	}
	return sb.String(), nil
}
