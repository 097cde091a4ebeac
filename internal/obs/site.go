package obs

import "fmt"

// Site identifies a class of probe call sites. Sites exist so that a
// fault-injection layer (internal/faultinject) can piggyback on the
// telemetry hook points that already exist in every search layer,
// instead of adding new instrumentation to the hot loops: each Probe and
// SearchObs method fires its site through the probe's Injector (when
// one is attached) before doing any telemetry work, so an injector sees
// the site even when the recorder and metrics are off.
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
	// SitePoll fires at every searcher stats flush (SearchObs.FlushStats),
	// i.e. at the search's poll cadence. Tag is empty.
	SitePoll
	// SiteIncumbent fires on every incumbent improvement
	// (SearchObs.Incumbent).
	SiteIncumbent
	// SiteStop fires when a searcher observes a stop condition
	// (SearchObs.Stop).
	SiteStop
	// SiteSteal fires when a worker steals subproblems (SearchObs.Steal).
	SiteSteal
	// SiteDonate fires when a worker donates a 0-branch
	// (SearchObs.Donate).
	SiteDonate
	// SiteResplit fires when a worker re-splits a shallow subproblem
	// (SearchObs.Resplit).
	SiteResplit
	// SitePrune fires on feasibility and bound rejections
	// (SearchObs.Pruned, SearchObs.Bound).
	SitePrune
	// SiteWarmSeed fires when a warm-start pass seeds an incumbent
	// (Probe.WarmSeed, SearchObs.WarmSeed).
	SiteWarmSeed
	// SiteCollapse fires on a selection-round winner collapse
	// (Probe.Collapse).
	SiteCollapse
	// SiteDedup fires on every cross-block dedup lookup, hit or miss
	// (Probe.Dedup). Tag is "fn/block" of the requesting block.
	SiteDedup
	// SiteToggle fires when the iterative racer flushes its toggle tally
	// (Probe.RacerToggles), i.e. at the racer's restart cadence. Tag is
	// empty — the flush is racer-goroutine-local.
	SiteToggle
	// SiteRestart fires when the iterative racer begins a KL restart
	// (Probe.RacerRestart). Tag is "fn/block".
	SiteRestart
	// SiteRacerPublish fires when the racer publishes a revalidated
	// incumbent into the shared bound, and when the anytime layer adopts
	// the racer's answer (Probe.RacerPublish, Probe.RacerAdopt). Tag is
	// "fn/block".
	SiteRacerPublish
	// SiteStage fires when a selection driver opens or closes its stage
	// span (Probe.BeginStage, Probe.EndStage). Tag is the driver name.
	SiteStage
	// SiteCell fires when a DSE chain opens or closes a constraint
	// group's cell span (Probe.BeginCell, Probe.EndCell). Tag is
	// "benchmark/target".
	SiteCell
	// SiteSeed fires on every SeedBook interaction: storing an
	// exhaustive winner, arming a revalidated seed, or rejecting stored
	// cuts at revalidation (Probe.SeedPut, Probe.SeedHit,
	// Probe.SeedReject). Tag is "fn/block".
	SiteSeed

	SiteCount = int(SiteSeed) + 1
)

var siteNames = [SiteCount]string{
	SiteSearchBegin:  "search_begin",
	SiteSearchEnd:    "search_end",
	SiteRescue:       "rescue",
	SiteGreedy:       "greedy",
	SitePoll:         "poll",
	SiteIncumbent:    "incumbent",
	SiteStop:         "stop",
	SiteSteal:        "steal",
	SiteDonate:       "donate",
	SiteResplit:      "resplit",
	SitePrune:        "prune",
	SiteWarmSeed:     "warm_seed",
	SiteCollapse:     "collapse",
	SiteDedup:        "dedup",
	SiteToggle:       "toggle",
	SiteRestart:      "restart",
	SiteRacerPublish: "racer_publish",
	SiteStage:        "stage",
	SiteCell:         "cell",
	SiteSeed:         "seed",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// siteMetrics maps every site onto the registry instrument names its
// probe methods may touch. The mapping is total over SiteCount — the
// exhaustiveness guard test fails when a new site forgets to declare
// its metrics footprint (an empty slice is a deliberate "no metrics"
// declaration, a missing entry is drift). Names match NewMetrics.
var siteMetrics = [SiteCount][]string{
	SiteSearchBegin:  {"search_block_searches_total"},
	SiteSearchEnd:    {},
	SiteRescue:       {"search_rescues_total", "search_rescue_hits_total"},
	SiteGreedy:       {"search_greedy_rescues_total", "search_greedy_hits_total"},
	SitePoll:         {"search_cuts_considered_total", "search_cuts_passed_total", "search_cuts_pruned_total", "search_bound_cutoffs_total"},
	SiteIncumbent:    {"search_incumbents_total"},
	SiteStop:         {"search_deadline_trips_total", "search_budget_trips_total", "search_cancel_trips_total"},
	SiteSteal:        {"engine_steals_total", "engine_stolen_subproblems_total", "engine_deque_depth"},
	SiteDonate:       {"engine_donations_total"},
	SiteResplit:      {"engine_resplits_total"},
	SitePrune:        {"search_cuts_pruned_total", "search_bound_cutoffs_total"},
	SiteWarmSeed:     {"engine_warm_seed_hits_total"},
	SiteCollapse:     {"sched_collapses_total"},
	SiteDedup:        {"sched_dedup_hits_total", "sched_dedup_misses_total"},
	SiteToggle:       {"racer_toggles_total"},
	SiteRestart:      {"racer_restarts_total"},
	SiteRacerPublish: {"racer_incumbents_published_total", "racer_incumbents_adopted_total"},
	SiteStage:        {},
	SiteCell:         {"dse_cells_total"},
	SiteSeed:         {"seed_puts_total", "seed_hits_total", "seed_revalidate_rejects_total"},
}

// SiteMetricNames returns the registry instrument names site's probe
// methods may update (nil for out-of-range sites). The slice is shared;
// treat it as read-only.
func SiteMetricNames(s Site) []string {
	if int(s) < len(siteMetrics) {
		return siteMetrics[s]
	}
	return nil
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
