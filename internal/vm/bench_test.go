package vm

import (
	"testing"
	"time"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/workloads"
)

// benchSink counts events without retaining them — the cheapest consumer
// that still forces the emit/flush path to run.
type benchSink struct{ n uint64 }

func (s *benchSink) ConsumeEvents(batch []Event) { s.n += uint64(len(batch)) }

var dispatchEngines = []struct {
	name string
	mode DispatchMode
}{
	{"switch", DispatchSwitch},
	{"threaded", DispatchThreaded},
}

// runDispatch executes p once under mode, with the bump allocator and a
// counting sink, and reports retired steps, delivered events and the
// wall-clock of Run alone.
func runDispatch(tb testing.TB, p *isa.Program, mode DispatchMode) (steps, events uint64, elapsed time.Duration) {
	m := mem.NewMemory()
	sink := &benchSink{}
	v := New(p, m, newBump(m), sink, Config{Seed: 1000, Dispatch: mode})
	start := time.Now()
	if _, err := v.Run(); err != nil {
		tb.Fatal(err)
	}
	return v.Steps(), sink.n, time.Since(start)
}

// BenchmarkVMDispatch compares the reference switch interpreter against the
// predecoded threaded dispatcher on the golden workloads. ReportMetric
// publishes steps/s and events/s for interactive A/B comparisons.
func BenchmarkVMDispatch(b *testing.B) {
	for _, name := range []string{"povray", "omnetpp"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		Predecode(p) // decode outside the timed region, as real runs do
		for _, eng := range dispatchEngines {
			b.Run(name+"/"+eng.name, func(b *testing.B) {
				var steps, events uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, e, _ := runDispatch(b, p, eng.mode)
					steps += s
					events += e
				}
				sec := b.Elapsed().Seconds()
				if sec > 0 {
					b.ReportMetric(float64(steps)/sec, "steps/s")
					b.ReportMetric(float64(events)/sec, "events/s")
				}
			})
		}
	}
}

// minSpeedup is the floor on threaded÷switch steps/s, both measured in
// this process. Unchanged code reads about 4× on povray and 6× on omnetpp
// on a 2-vCPU VM; the floor sits below that spread so scheduler noise
// cannot trip it, while bypassing the software TLB (about 1×) does.
const minSpeedup = 2.5

// TestDispatchGate is the dispatch regression gate. For each workload's
// test-scale build, at seed 1000, both engines must retire exactly the
// pinned steps and deliver exactly the pinned events: these counters are
// the same on any machine, so any difference is a code change. The
// threaded engine's steps/s must also be at least minSpeedup times the
// switch engine's. Each engine's figure is its best of 5 runs, with the
// engines interleaved rep by rep so a slow spell on the machine hits
// both. The ratio of two numbers measured side by side does not
// depend on how fast the machine is. The race detector distorts it, so
// the floor is not checked under -race; the counters always are.
func TestDispatchGate(t *testing.T) {
	reps := 5
	if raceEnabled {
		reps = 1
	}
	for _, c := range []struct {
		name          string
		steps, events uint64
	}{
		{"povray", 291272, 117350},
		{"omnetpp", 4431092, 2101593},
	} {
		w := workloads.MustGet(c.name)
		p := w.Build(w.TestScale)
		Predecode(p) // decode outside the timed region, as real runs do
		var best [2]time.Duration
		for rep := 0; rep < reps; rep++ {
			for e, eng := range dispatchEngines {
				steps, events, elapsed := runDispatch(t, p, eng.mode)
				if steps != c.steps || events != c.events {
					t.Fatalf("%s %s: %d steps, %d events; want %d, %d",
						c.name, eng.name, steps, events, c.steps, c.events)
				}
				if best[e] == 0 || elapsed < best[e] {
					best[e] = elapsed
				}
			}
		}
		// Both engines retire the same steps, so the steps/s ratio is the
		// inverse ratio of their best times.
		ratio := float64(best[0]) / float64(best[1])
		t.Logf("%s: threaded/switch steps/s %.2fx (floor %.1fx)", c.name, ratio, minSpeedup)
		if !raceEnabled && ratio < minSpeedup {
			t.Errorf("%s: threaded/switch steps/s %.2fx, below the %.1fx floor", c.name, ratio, minSpeedup)
		}
	}
}
