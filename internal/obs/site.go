package obs

import "fmt"

// Site identifies a class of probe call sites. Sites exist so that a
// fault-injection layer (internal/faultinject) can piggyback on the
// telemetry hook points that already exist in every search layer,
// instead of adding new instrumentation to the hot loops: each Probe and
// SearchObs method fires its site through the probe's Injector (when
// one is attached) before doing any telemetry work, so an injector sees
// the site even when the recorder is off.
type Site uint8

const (
	// SiteSearchBegin fires at the start of every panic-guarded block
	// search (Probe.SearchBegin). Tag is "fn/block".
	SiteSearchBegin Site = iota
	// SiteSearchEnd fires when a block search ends (Probe.SearchEnd).
	SiteSearchEnd
	// SiteRescue fires when a §9 windowed rescue reports its outcome
	// (Probe.Rescue).
	SiteRescue
	// SiteGreedy fires when the greedy last-resort rung reports its
	// outcome (Probe.Greedy).
	SiteGreedy
	// SitePoll fires at the search's poll cadence, and when a searcher
	// stops or ends (SearchObs.Poll). Tag is empty.
	SitePoll
	// SiteIncumbent fires on every incumbent improvement
	// (SearchObs.Incumbent).
	SiteIncumbent
	// SiteStop fires when a searcher observes a stop condition
	// (SearchObs.Stop).
	SiteStop
	// SiteDonate fires when a worker donates a 0-branch
	// (SearchObs.Donate).
	SiteDonate
	// SiteCollapse fires on a selection-round winner collapse
	// (Probe.Collapse).
	SiteCollapse
	// SiteStage fires when a selection driver opens or closes its stage
	// span (Probe.BeginStage, Probe.EndStage). Tag is the driver name.
	SiteStage
	// SiteCell fires when a DSE sweep task opens or closes a constraint
	// group's cell span (Probe.BeginCell, Probe.EndCell). Tag is
	// "benchmark/target".
	SiteCell

	SiteCount = int(SiteCell) + 1
)

var siteNames = [SiteCount]string{
	SiteSearchBegin: "search_begin",
	SiteSearchEnd:   "search_end",
	SiteRescue:      "rescue",
	SiteGreedy:      "greedy",
	SitePoll:        "poll",
	SiteIncumbent:   "incumbent",
	SiteStop:        "stop",
	SiteDonate:      "donate",
	SiteCollapse:    "collapse",
	SiteStage:       "stage",
	SiteCell:        "cell",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Injector is the fault-injection hook carried by a Probe. Fire is
// called at the head of every probe method with the site class and the
// site's tag ("fn/block" for block-scoped sites, "" for searcher-local
// ones). An implementation may panic, sleep, or trip a context from
// inside Fire; the search layers' normal recovery paths handle all
// three. Fire must be safe for concurrent use from many goroutines.
//
// The interface lives here (not in internal/faultinject) so that core
// depends only on obs; faultinject implements it.
type Injector interface {
	Fire(site Site, tag string)
}
