package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// opLog accumulates one run's ops: latencies of the ops that completed
// and matched their reference, and the attempted/failed counts. A failed
// op is one that returned an error or whose output differs from its
// reference. Safe for concurrent use by the closed-loop clients.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latMs     []float64
	firstErr  error
	// host, when set, ties each latency to the host-speed sample that
	// follows the op's stretch of work: after[i] is latMs[i]'s.
	host  *hostSpeed
	after []int
}

// record files one op: its latency, and err when it failed or its output
// did not match (see check).
func (l *opLog) record(lat time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.latMs = append(l.latMs, float64(lat.Nanoseconds())/1e6)
	if l.host != nil {
		l.after = append(l.after, l.host.next())
	}
}

// add folds another log's ops into l (l's latencies stay its own: only
// the untraced phase's latencies are reported).
func (l *opLog) add(o *opLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// check compares an op's output with its reference. Outputs are compared
// through their printed form, which spells out every field (floats at
// full precision, NaN included), so any difference counts. The results
// compared carry no pointers (no prefetcher is requested), so the form
// holds no addresses.
func check(what string, got, want any) error {
	g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want)
	if g != w {
		return fmt.Errorf("%s: output differs from reference:\n got  %s\n want %s", what, g, w)
	}
	return nil
}

// rankOf returns the 1-based nearest rank of the q-quantile among n
// samples: the smallest rank r with r >= q*n.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// tailReportable applies the reporting rule for percentiles: a
// percentile is reported only when at least ten samples lie beyond it,
// so one outlier cannot move it by a whole rank.
func tailReportable(n int, q float64) bool { return n > 0 && beyond(n, q) >= 10 }

// quantile returns the nearest-rank q-quantile of xs (xs is not
// modified; an empty xs yields 0).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}
