package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ledger counts operations and keeps the first failures for the report.
// An operation is one client-visible exchange (a request, a job from
// submit to result, a stream update); it fails on a transport error, a
// non-200 answer or any output-check mismatch.
//
// Every failed operation also counts as missing the workload's latency
// limit; a passed one misses it only when it was slower than the limit
// (the density stream's tick interval; closed loops set none).
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	missed    int // operations that missed the latency limit
	failures  []string
	notes     []string
}

func (l *ledger) ok() {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
}

func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	l.missed++
	if len(l.failures) < 10 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// record counts one operation as passed when err is nil.
func (l *ledger) record(err error, what string) {
	if err != nil {
		l.fail("%s: %v", what, err)
		return
	}
	l.ok()
}

// late counts a passed operation that missed the latency limit.
func (l *ledger) late() {
	l.mu.Lock()
	l.missed++
	l.mu.Unlock()
}

func (l *ledger) missedLimit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.missed
}

func (l *ledger) note(format string, args ...any) {
	l.mu.Lock()
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *ledger) counts() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed
}

func (l *ledger) firstFailures() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.failures...)
}

// samples is a concurrency-safe set of named latency samples in
// milliseconds.
type samples struct {
	mu sync.Mutex
	by map[string][]float64
}

func newSamples() *samples { return &samples{by: make(map[string][]float64)} }

func (s *samples) add(name string, d time.Duration) { s.addMs(name, ms(d)) }

func (s *samples) addMs(name string, v float64) {
	s.mu.Lock()
	s.by[name] = append(s.by[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.by[name]...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geoMeanOfMedians is the geometric mean of the medians of the non-empty
// sample sets, 0 when all are empty.
func geoMeanOfMedians(sets ...[]float64) float64 {
	var logSum float64
	var n int
	for _, xs := range sets {
		if len(xs) > 0 {
			logSum += math.Log(median(xs))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ratio is num/den, 0 for no denominator.
func ratio(num int64, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail returns p99 when at least ten samples lie beyond it, else p90
// (nearest rank), with a label naming the percentile, n and the count
// beyond it, for the report. Below 100 samples even p90 has fewer than
// ten beyond it; the label says so.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return 0, "no samples"
	}
	s := sortedCopy(xs)
	q := 0.99
	if n-int(math.Ceil(q*float64(n))) < 10 {
		q = 0.90
	}
	rank := int(math.Ceil(q * float64(n)))
	return s[rank-1], fmt.Sprintf("p%.0f of n=%d (%d beyond)", q*100, n, n-rank)
}

// setupNote describes the set-ups setup_s is the median of, for the
// report: their count and range in ms.
func setupNote(xs []float64) string {
	s := sortedCopy(xs)
	return fmt.Sprintf("setup_s is the median of %d set-ups: min %.2f ms, median %.2f ms, max %.2f ms",
		len(s), 1e3*s[0], 1e3*median(s), 1e3*s[len(s)-1])
}
