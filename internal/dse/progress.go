package dse

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"isex/internal/obs"
)

// StatusSchema identifies the live sweep-status JSON served at
// /sweep/status and printed by -progress.
const StatusSchema = "isex-sweep-status/v1"

// CellProgress is one grid cell's live state. A cell here is one unit of
// selection work: a constraint group in warm mode (all instruction
// budgets derive from it), one (constraint, ninstr) point in cold mode.
type CellProgress struct {
	Chain  string `json:"chain"` // "benchmark/target"
	Nin    int    `json:"nin"`
	Nout   int    `json:"nout"`
	Ninstr int    `json:"ninstr"`
	State  string `json:"state"` // queued | searching | done
	// Block is the block search currently running (searching cells only).
	Block string `json:"block,omitempty"`
	// Rung reports degradation-ladder activity on the current block:
	// rescue or greedy. Empty while the exact search holds.
	Rung string `json:"rung,omitempty"`
	// Searches counts completed block searches inside this cell.
	Searches int64 `json:"searches,omitempty"`
	// Merit is the cell's selection outcome (done cells only).
	Merit     int64 `json:"merit,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// StatusReport is the live snapshot: deterministic field order, but the
// values are wall-clock truth, not a reproducible artifact.
type StatusReport struct {
	Schema    string `json:"schema"`
	Mode      string `json:"mode"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// ETAMS extrapolates from completed-cell rates, shared among the
	// cells searching now; 0 until the first cell lands.
	ETAMS int64          `json:"eta_ms,omitempty"`
	Cells []CellProgress `json:"cells"`
}

type cellKey struct {
	chain             string
	nin, nout, ninstr int
}

type cellState struct {
	CellProgress
	started time.Time
	done    time.Time
}

// Progress tracks a sweep's live state. Safe for concurrent use: the
// sweep's tasks update it from their own goroutines while HTTP handlers
// and the terminal renderer snapshot it. Zero value is not usable —
// construct with NewProgress. The clock is injectable for tests.
type Progress struct {
	Now func() time.Time // defaults to time.Now

	mu        sync.Mutex
	mode      string
	start     time.Time
	cells     []*cellState
	index     map[cellKey]int
	searching int // cells in state "searching"
	doneN     int
	doneDur   time.Duration
}

// NewProgress returns an empty tracker; Sweep populates it when
// Options.Progress points at it.
func NewProgress() *Progress {
	return &Progress{Now: time.Now, index: map[cellKey]int{}}
}

func (p *Progress) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// begin registers the full queue so renderers can show total counts and
// queued cells before any work lands.
func (p *Progress) begin(mode string, keys []cellKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode = mode
	p.start = p.now()
	for _, k := range keys {
		if _, ok := p.index[k]; ok {
			continue
		}
		p.index[k] = len(p.cells)
		p.cells = append(p.cells, &cellState{CellProgress: CellProgress{
			Chain: k.chain, Nin: k.nin, Nout: k.nout, Ninstr: k.ninstr,
			State: "queued",
		}})
	}
}

func (p *Progress) cellStart(k cellKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[k]
	if !ok {
		return
	}
	c := p.cells[i]
	c.State = "searching"
	c.started = p.now()
	p.searching++
}

func (p *Progress) cellDone(k cellKey, merit int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[k]
	if !ok {
		return
	}
	c := p.cells[i]
	c.State = "done"
	c.Merit = merit
	c.Block, c.Rung = "", ""
	c.done = p.now()
	if !c.started.IsZero() {
		d := c.done.Sub(c.started)
		c.ElapsedMS = d.Milliseconds()
		p.doneDur += d
	}
	p.doneN++
	p.searching--
}

// sink returns a copy of probe (nil means none) whose Live feed also
// updates cell k.
func (p *Progress) sink(probe *obs.Probe, k cellKey) *obs.Probe {
	var lp obs.Probe
	if probe != nil {
		lp = *probe
	}
	prev := lp.Live
	lp.Live = func(e obs.Event) {
		if prev != nil {
			prev(e)
		}
		p.live(k, e)
	}
	return &lp
}

// live is the obs.Probe.Live sink for one cell: sys-path search and
// rung events update the cell while it searches. Must stay cheap — it
// runs on the coordinator path of every block search.
func (p *Progress) live(k cellKey, e obs.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[k]
	if !ok || p.cells[i].State != "searching" {
		return
	}
	c := p.cells[i]
	switch e.Kind {
	case obs.KSearchStart:
		c.Block, c.Rung = e.Tag, ""
	case obs.KSearchEnd:
		c.Block, c.Rung = "", ""
		c.Searches++
	case obs.KRescue:
		c.Rung = "rescue"
	case obs.KGreedy:
		c.Rung = "greedy"
	}
}

// Snapshot returns the current state as a JSON-able report.
func (p *Progress) Snapshot() StatusReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := StatusReport{
		Schema: StatusSchema,
		Mode:   p.mode,
		Done:   p.doneN,
		Total:  len(p.cells),
	}
	if !p.start.IsZero() {
		r.ElapsedMS = p.now().Sub(p.start).Milliseconds()
	}
	if p.doneN > 0 && p.doneN < len(p.cells) {
		avg := p.doneDur / time.Duration(p.doneN)
		// Cells search concurrently; scale the serial estimate down by
		// the number searching now.
		active := max(p.searching, 1)
		left := len(p.cells) - p.doneN
		r.ETAMS = (avg * time.Duration(left) / time.Duration(active)).Milliseconds()
	}
	for _, c := range p.cells {
		cp := c.CellProgress
		if c.State == "searching" && !c.started.IsZero() {
			cp.ElapsedMS = p.now().Sub(c.started).Milliseconds()
		}
		r.Cells = append(r.Cells, cp)
	}
	return r
}

// Render writes a compact terminal view: one line per chain plus a
// header with done/total and the ETA.
func (p *Progress) Render(w io.Writer) {
	r := p.Snapshot()
	fmt.Fprintf(w, "sweep %s: %d/%d cells done, %s elapsed",
		r.Mode, r.Done, r.Total, (time.Duration(r.ElapsedMS) * time.Millisecond).Round(time.Millisecond))
	if r.ETAMS > 0 {
		fmt.Fprintf(w, ", eta ~%s", (time.Duration(r.ETAMS) * time.Millisecond).Round(time.Millisecond))
	}
	fmt.Fprintln(w)

	byChain := map[string][]CellProgress{}
	var chains []string
	for _, c := range r.Cells {
		if _, ok := byChain[c.Chain]; !ok {
			chains = append(chains, c.Chain)
		}
		byChain[c.Chain] = append(byChain[c.Chain], c)
	}
	sort.Strings(chains)
	for _, ch := range chains {
		cells := byChain[ch]
		done := 0
		var parts, searching []string
		for _, c := range cells {
			switch c.State {
			case "done":
				done++
				parts = append(parts, fmt.Sprintf("(%d,%d)=%d", c.Nin, c.Nout, c.Merit))
			case "searching":
				s := fmt.Sprintf("(%d,%d)", c.Nin, c.Nout)
				if c.Block != "" {
					s += " block " + c.Block
				}
				if c.Rung != "" {
					s += " [" + c.Rung + "]"
				}
				searching = append(searching, fmt.Sprintf("%s %d searches", s, c.Searches))
			}
		}
		fmt.Fprintf(w, "  %s: %d/%d", ch, done, len(cells))
		if len(parts) > 0 {
			fmt.Fprintf(w, " done[%s]", strings.Join(parts, " "))
		}
		if len(searching) > 0 {
			fmt.Fprintf(w, " searching %s", strings.Join(searching, ", "))
		}
		fmt.Fprintln(w)
	}
}
