package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (the smallest
// sample with at least q·n samples at or below it). An empty slice
// gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

// rank is the index of the nearest-rank q-quantile among n sorted
// samples; the small slack keeps q·n from rounding up past an integer.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memDelta is the allocator activity between two MemStats readings.
type memDelta struct {
	Mallocs    float64
	AllocBytes float64
	GCs        float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(before, after runtime.MemStats) memDelta {
	return memDelta{
		Mallocs:    float64(after.Mallocs - before.Mallocs),
		AllocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		GCs:        float64(after.NumGC - before.NumGC),
	}
}

// liveHeapMB collects garbage and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	m := readMem()
	return float64(m.HeapAlloc) / (1 << 20)
}

// harnessHeapMB is the live heap with only the benchmark's own copy of
// the seed's graph held: the edge list and the adjacency the output
// checks read. live_heap_mb subtracts it from the heap after set-up,
// so the figure is the heap the engine keeps, not the benchmark's.
func harnessHeapMB(o options) float64 {
	gd := generate(o.Seed, o.Nodes)
	h := liveHeapMB()
	runtime.KeepAlive(gd)
	return h
}

// subWindow is the stretch of a run over which a tail is taken; the run reports the median across its full sub-windows.
const subWindow = 3 * time.Second

// series is one request kind's latencies, each with the time its reply
// arrived, measured from the opening of the window.
type series struct {
	ms  []float64 // a failed request is +Inf
	end []time.Duration
}

func (s *series) add(ms float64, end time.Duration) {
	s.ms = append(s.ms, ms)
	s.end = append(s.end, end)
}

func (s *series) merge(o *series) {
	if o != nil {
		s.ms = append(s.ms, o.ms...)
		s.end = append(s.end, o.end...)
	}
}

// bySubWindow groups the latencies into the window's full sub-windows.
func (s *series) bySubWindow(window time.Duration) [][]float64 {
	out := make([][]float64, window/subWindow)
	for i, e := range s.end {
		if k := int(e / subWindow); k < len(out) {
			out[k] = append(out[k], s.ms[i])
		}
	}
	return out
}

// tail is the median across sub-windows of each one's q-quantile, over
// sub-windows with at least ten samples beyond that quantile; with none
// (a window shorter than two sub-windows) it is the quantile of all.
func (s *series) tail(q float64, window time.Duration) float64 {
	var tails []float64
	for _, xs := range s.bySubWindow(window) {
		if len(xs)-1-rank(len(xs), q) >= 10 {
			tails = append(tails, quantile(xs, q))
		}
	}
	if len(tails) < 2 {
		return quantile(s.ms, q)
	}
	return median(tails)
}
