package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a names-to-instruments metrics registry. Instrument
// lookup (Counter/Gauge) takes a lock and is meant for setup;
// the instruments themselves are plain atomics with zero allocation on
// the update path.
type Registry struct {
	mu    sync.Mutex
	items map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]any)}
}

func (reg *Registry) lookup(name string, mk func() any) any {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if it, ok := reg.items[name]; ok {
		return it
	}
	it := mk()
	reg.items[name] = it
	return it
}

// Counter returns the monotonically increasing counter registered under
// name, creating it on first use. Panics if name is already registered
// as a different instrument type.
func (reg *Registry) Counter(name string) *Counter {
	return reg.lookup(name, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name.
func (reg *Registry) Gauge(name string) *Gauge {
	return reg.lookup(name, func() any { return new(Gauge) }).(*Gauge)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// promPrefix namespaces every exported series.
const promPrefix = "isex_"

// WritePrometheus renders the registry in the Prometheus text exposition
// format (one isex_-prefixed series per instrument).
func (reg *Registry) WritePrometheus(w io.Writer) error {
	reg.mu.Lock()
	names := make([]string, 0, len(reg.items))
	for name := range reg.items {
		names = append(names, name)
	}
	sort.Strings(names)
	items := make([]any, len(names))
	for i, name := range names {
		items[i] = reg.items[name]
	}
	reg.mu.Unlock()

	for i, name := range names {
		full := promPrefix + name
		switch it := items[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", full, full, it.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", full, full, it.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns a point-in-time map of every instrument, counters
// and gauges alike as int64. The map is freshly
// allocated and safe to marshal; it also backs the expvar exposure.
func (reg *Registry) Snapshot() map[string]any {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]any, len(reg.items))
	for name, it := range reg.items {
		switch it := it.(type) {
		case *Counter:
			out[name] = it.Value()
		case *Gauge:
			out[name] = it.Value()
		}
	}
	return out
}
