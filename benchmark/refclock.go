package main

import (
	"runtime"
	"time"
)

// The cores of the shared host do not run at one speed. With almost no
// stolen time, the same expand-cold ops cost 38 ms of process CPU each
// in one run and 59 ms in a run three minutes later; a fixed multiply loop
// slowed with them. CPU clocks cannot tell a slower program from a slower core, so the
// benchmark measures the core too: a reference job, fixed code in this
// package that no change to the program touches, runs on the measuring
// thread between the measured calls, and every timing is scaled to what it
// would have been at the speed where the job takes refNominal.
//
// The job mixes what the workloads spend their time on: a pointer chase
// through a 1 MiB table (cache latency), small allocations linked into a
// map (the allocator and its writes to fresh memory) and a multiply chain
// (the core's own speed). Over eight runs of each read-only workload its
// parts tracked the op cost with correlation up to 0.97 (the chase for
// search-zipf, the allocations for expand-cold), and scaling by the whole
// job cut the spread of throughput between runs from 19% to 7% on
// search-zipf and from 8% to 3% on expand-cold.
const (
	refChaseLen   = 256 << 10 // int32 entries: 1 MiB
	refChaseSteps = 1_000_000
	refAllocs     = 20_000
	refMuls       = 3_000_000
	// refNominal is the job's CPU time on the reference host (a 2-vCPU
	// Xeon VM) in a fast phase; it only fixes the unit, so that scaled
	// timings read close to that host's raw ones.
	refNominal = 16 * time.Millisecond
	// refEvery is how often a measurement window runs the job; at ~16 ms a
	// run it costs ~3% of the window.
	refEvery = 500 * time.Millisecond
)

// refChase is a single random cycle through refChaseLen slots.
var refChase = func() []int32 {
	n := refChaseLen
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	c := make([]int32, n)
	for i := 0; i < n; i++ {
		c[perm[i]] = perm[(i+1)%n]
	}
	return c
}()

type refNode struct {
	next *refNode
	v    [4]int64
}

var refSink uint64

// refJob runs the reference job once and returns its CPU time on the
// calling thread, to which the caller is locked.
func refJob() time.Duration {
	c := threadCPU()
	k := int32(0)
	for i := 0; i < refChaseSteps; i++ {
		k = refChase[k]
	}
	m := make(map[int32]*refNode)
	var head *refNode
	for i := int32(0); i < refAllocs; i++ {
		n := &refNode{next: head}
		n.v[0] = int64(i)
		head = n
		m[i*7919] = n
	}
	x := uint64(k) + uint64(len(m))
	for i := 0; i < refMuls; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink += x
	return threadCPU() - c
}

// refClock collects the reference job's times over one phase of a run.
type refClock struct {
	times []time.Duration
}

// tick runs the job once on the caller's thread and returns its time.
func (c *refClock) tick() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	d := refJob()
	c.times = append(c.times, d)
	return d
}

// scale is the factor that takes a CPU time of this phase to reference
// speed: refNominal over the job's median time.
func (c *refClock) scale() float64 {
	ts := make([]float64, len(c.times))
	for i, t := range c.times {
		ts[i] = float64(t)
	}
	return float64(refNominal) / median(ts)
}
