package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// runtimeCounters returns the Go heap bytes allocated so far and the CPU
// time the garbage collector has used so far.
func runtimeCounters() (allocBytes uint64, gcCPU time.Duration) {
	metrics.Read(runtimeSamples)
	if s := runtimeSamples[0]; s.Value.Kind() == metrics.KindUint64 {
		allocBytes = s.Value.Uint64()
	}
	if s := runtimeSamples[1]; s.Value.Kind() == metrics.KindFloat64 {
		gcCPU = time.Duration(s.Value.Float64() * 1e9)
	}
	return allocBytes, gcCPU
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// The two host probes tell a slow phase of the host from a change in the
// program: one touches only registers, the other walks 1 MB of memory in
// random order.

var probeSink uint64

func registerLoop() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// walkRing is a single cycle over 1 MB of int32 indices (Sattolo's
// algorithm), so the walk visits every slot before it repeats.
var walkRing = func() []int32 {
	ring := make([]int32, 1<<18)
	for i := range ring {
		ring[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}()

func randomWalk() time.Duration {
	start := time.Now()
	p := int32(0)
	for i := 0; i < 4_000_000; i++ {
		p = walkRing[p]
	}
	probeSink += uint64(p)
	return time.Since(start)
}
