package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// derive expands the workload seed into an independent, nonzero seed per
// use (splitmix64 over the seed, a tag and an index), so profiling seeds,
// measurement seeds and serve's request mix all follow from one argument.
func derive(seed uint64, tag string, i int) uint64 {
	x := seed
	for _, c := range []byte(tag) {
		x = x*0x100000001b3 ^ uint64(c)
	}
	x += uint64(i+1) * 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// opStart starts timing one operation of a pass. It first collects the
// garbage earlier operations left, so each operation pays for collecting
// its own garbage and no other's.
func opStart() time.Duration {
	runtime.GC()
	return cpuClock()
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean of positive values; 0 for an empty sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapMark samples the Go runtime's cumulative allocation and GC counters.
type heapMark struct {
	totalAlloc uint64
	numGC      uint32
}

func markHeap() heapMark {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return heapMark{st.TotalAlloc, st.NumGC}
}

// allocMB is the Go heap allocated since m, in MB.
func (m heapMark) allocMB() float64 {
	return float64(markHeap().totalAlloc-m.totalAlloc) / 1e6
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuClock reads the process's CPU time, user plus system. The end-to-end
// timings use it rather than the wall clock: on a shared virtual machine
// the wall time of unchanged code moves by tens of percent between runs
// with the time the host takes the CPUs away, which CPU time excludes. For
// the single-goroutine workloads it equals wall time on an idle machine,
// plus the garbage collector's background work.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince is the CPU time spent since an earlier cpuClock reading.
func cpuSince(start time.Duration) time.Duration { return cpuClock() - start }

// refSeconds is the reference work's CPU time on the machine the benchmark
// was tuned on, a 2-vCPU Intel Xeon virtual machine.
const refSeconds = 0.061

// speed converts CPU time measured on this machine, in its current state,
// into CPU time on the tuning machine. The host's load changes how fast
// the same work runs by tens of percent from one minute to the next;
// timing a fixed reference next to every pass and scaling by it removes
// most of that drift from the end-to-end times.
type speed float64

// calibrate times the reference work and returns the scale for the pass
// that follows it.
func calibrate() speed {
	return speed(refSeconds / timeReference().Seconds())
}

// timeReference returns the reference's CPU time. A forced collection
// first finishes any cycle earlier work started, and the collector stays
// off while the reference runs, so no collection runs during it: it never
// marks the pipeline's live heap, whose size therefore cannot slow it
// down. A second forced collection frees the reference's garbage before
// the pass starts, so the pass does not pay for it either.
func timeReference() time.Duration {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	start := cpuClock()
	reference()
	d := cpuSince(start)
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	return d
}

// seconds converts a CPU-time measurement.
func (s speed) seconds(d time.Duration) float64 { return d.Seconds() * float64(s) }

// scaled converts per-operation CPU times (ms) measured in one pass.
func (s speed) scaled(opsMs []float64) []float64 {
	out := make([]float64, len(opsMs))
	for i, x := range opsMs {
		out[i] = x * float64(s)
	}
	return out
}

var refSink uint64

type refNode struct {
	next *refNode
	v    [4]uint64
}

// reference is a fixed piece of work made only of Go runtime and standard
// library operations (allocation, map updates, random access to a large
// array, a sort). Like the pipeline it allocates much, which makes it
// follow the machine's speed for the pipeline's kind of work more closely
// than work on memory allocated in advance does; timeReference keeps the
// collector, and with it the pipeline's live heap, out of its time.
func reference() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var head *refNode
	for i := 0; i < 300000; i++ {
		n := &refNode{next: head}
		n.v[0] = next()
		if i%3 == 0 {
			head = n
		}
	}
	m := make(map[uint64]uint64)
	for i := 0; i < 100000; i++ {
		m[next()%200000] += uint64(i)
	}
	arr := make([]uint64, 1<<21)
	for i := 0; i < 1<<21; i++ {
		arr[next()&(1<<21-1)] += uint64(i)
	}
	ints := make([]int, 100000)
	for i := range ints {
		ints[i] = int(next() >> 1)
	}
	sort.Ints(ints)
	for n := head; n != nil; n = n.next {
		refSink += n.v[0]
	}
	refSink += uint64(len(m)) + arr[7] + uint64(ints[5])
}

// timedPasses runs pass(0), pass(1), ... until the budget is spent, and at
// least minPasses times. A pass that starts before the deadline finishes.
func timedPasses(budget time.Duration, minPasses int, pass func(k int) error) error {
	deadline := time.Now().Add(budget)
	for k := 0; k < minPasses || time.Now().Before(deadline); k++ {
		if err := pass(k); err != nil {
			return err
		}
	}
	return nil
}

// setupReps runs a workload's set-up several times and returns the median
// of its calibrated CPU time. Only the last repetition's state is kept by
// the caller; setup receives its repetition's speed.
func setupReps(reps int, setup func(sp speed) error) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		sp := calibrate()
		start := opStart()
		if err := setup(sp); err != nil {
			return 0, err
		}
		times = append(times, sp.seconds(cpuSince(start)))
	}
	return median(times), nil
}

// opTimes collects per-operation times (ms) by the operation's place in
// its pass; every pass runs the same operations in the same order.
type opTimes [][]float64

func (o *opTimes) add(pass []float64) {
	for len(*o) < len(pass) {
		*o = append(*o, nil)
	}
	for i, x := range pass {
		(*o)[i] = append((*o)[i], x)
	}
}

func (o opTimes) count() int {
	n := 0
	for _, xs := range o {
		n += len(xs)
	}
	return n
}

// latencies sets the request metrics. The operations of a pass are
// different programs with times an order of magnitude apart, so the
// percentiles are taken over each operation's median time, not over the
// pooled samples, whose median falls in a gap between programs; with
// fewer than a hundred operations the 99th percentile is the slowest's.
// The rate is operations completed per busy second.
func latencies(m map[string]float64, ops opTimes, busy float64) {
	meds := make([]float64, len(ops))
	for i, xs := range ops {
		meds[i] = median(xs)
	}
	m["request_p50_ms"] = quantile(meds, 0.50)
	m["request_p99_ms"] = quantile(meds, 0.99)
	m["requests_per_s"] = float64(ops.count()) / busy
}
