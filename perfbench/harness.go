package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up. setup_s is the
// median of the repetitions, so one slow start (page faults, a cold CPU)
// does not move it.
const setupReps = 3

// repeatSetup runs setup setupReps times (once in a traced run, which
// does not report setup_s), timing each, and keeps the last state;
// earlier states are torn down untimed. A host-speed sample follows each
// set-up. It returns the set-ups' stretches.
func repeatSetup[T any](cfg config, setup func() (T, error), teardown func(T)) (T, []stretch, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		st     T
		setups []stretch
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(st)
		}
		start := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, nil, err
		}
		setups = append(setups, stretch{wall: time.Since(start), after: cfg.host.next()})
		cfg.host.sample()
	}
	return st, setups, nil
}

// stretch is one timed stretch of work: its wall and CPU time and the
// index of the host-speed sample taken right after it.
type stretch struct {
	wall, cpu time.Duration
	after     int
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and returns the live Go heap in MB: what
// the caller still holds, independent of when the collector last ran.
// The second collection empties sync.Pools (the analyzer pool keeps a
// pooled analyzer alive for one cycle), so the reading does not depend
// on which ops ran since the last collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// phase measures the wall and CPU time of a timed phase, possibly in
// several stretches (work between stretches is excluded from both).
type phase struct {
	wall, cpu  time.Duration
	start      time.Time
	cpuAtStart time.Duration
	records    int64
	heapPeakMB float64
	// host, when set, ties each stretch, kept in stretches, to the
	// host-speed sample that follows it.
	host      *hostSpeed
	stretches []stretch
}

func (p *phase) resume() {
	p.start = time.Now()
	p.cpuAtStart = cpuTime()
}

func (p *phase) pause() {
	s := stretch{wall: time.Since(p.start), cpu: cpuTime() - p.cpuAtStart}
	p.wall += s.wall
	p.cpu += s.cpu
	if p.host != nil {
		s.after = p.host.next()
		p.stretches = append(p.stretches, s)
	}
}

// noteHeap folds one live-heap checkpoint (taken outside the timer).
func (p *phase) noteHeap() {
	p.heapPeakMB = max(p.heapPeakMB, liveHeapMB())
}

// endToEnd builds the end-to-end metric set of an untraced run: every
// time in reference-host units, each set-up, stretch and op divided by
// the host factor around it.
func endToEnd(setups []stretch, p *phase, ops *opLog, h *hostSpeed) map[string]metric {
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.wall.Seconds()/h.around(s.after))
	}
	var wallS, cpuNs float64
	for _, s := range p.stretches {
		f := h.around(s.after)
		wallS += s.wall.Seconds() / f
		cpuNs += float64(s.cpu.Nanoseconds()) / f
	}
	lat := make([]float64, len(ops.latMs))
	for i, ms := range ops.latMs {
		lat[i] = ms / h.around(ops.after[i])
	}
	recs := float64(p.records)
	return map[string]metric{
		"setup_s":           {quantile(setupS, 0.5), "s"},
		"records_per_s":     {recs / wallS, "records/s"},
		"op_p50_ms":         {quantile(lat, 0.5), "ms"},
		"op_p90_ms":         {quantile(lat, 0.9), "ms"},
		"cpu_ns_per_record": {cpuNs / recs, "ns/record"},
		"heap_peak_mb":      {p.heapPeakMB, "MB"},
	}
}

// rawNote prints the time metrics as measured, before the host factor.
func rawNote(setups []stretch, p *phase, ops *opLog) string {
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.wall.Seconds())
	}
	return fmt.Sprintf("raw: setup_s %.4f records_per_s %.1f op_p50_ms %.3f op_p90_ms %.3f cpu_ns_per_record %.2f timed_s %.2f records %d",
		quantile(setupS, 0.5), float64(p.records)/p.wall.Seconds(), quantile(ops.latMs, 0.5), quantile(ops.latMs, 0.9),
		float64(p.cpu.Nanoseconds())/float64(p.records), p.wall.Seconds(), p.records)
}

// opNote states how many samples each reported percentile rests on.
func opNote(ops *opLog) string {
	n := len(ops.latMs)
	if n <= 20 {
		return fmt.Sprintf("ops: %d attempted, %d failed; latencies ms %.1f", ops.attempted, ops.failed, ops.latMs)
	}
	return fmt.Sprintf("ops: %d attempted, %d failed, %d timed; samples beyond p50=%d p90=%d (p90 meets the ten-beyond rule: %v)",
		ops.attempted, ops.failed, n, beyond(n, 0.5), beyond(n, 0.9), tailReportable(n, 0.9))
}

// perRecord divides a duration by a record count, in ns/record.
func perRecord(d time.Duration, records int64) float64 {
	if records <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(records)
}
