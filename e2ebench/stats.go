package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// outcome classifies one request for failure accounting.
type outcome int

const (
	ok       outcome = iota
	failed           // transport error or an unexpected status
	refused          // 429 (queue full) or 503 (server closed)
	timedOut         // client timeout, 504 or 408
)

// failureLatency is what a request that did not succeed contributes to
// its latency sample: the client timeout, so it misses every latency
// bound the benchmark could set.
const failureLatency = clientTimeout

// series is the latency sample of one operation kind plus its failure
// counts. Failed, refused and timed-out requests enter the sample at
// failureLatency.
type series struct {
	lat                          []float64 // seconds
	attempted                    int
	failures, refusals, timeouts int
}

func (s *series) add(d time.Duration, o outcome) {
	s.attempted++
	switch o {
	case failed:
		s.failures++
	case refused:
		s.refusals++
	case timedOut:
		s.timeouts++
	}
	if o != ok {
		d = failureLatency
	}
	s.lat = append(s.lat, d.Seconds())
}

func (s *series) notOK() int { return s.failures + s.refusals + s.timeouts }

// failedShare is failed+refused+timed-out over attempted, across the
// given series; zero when nothing was attempted.
func failedShare(ss ...*series) (share float64, attempted, bad int) {
	for _, s := range ss {
		attempted += s.attempted
		bad += s.notOK()
	}
	if attempted == 0 {
		return 0, 0, 0
	}
	return float64(bad) / float64(attempted), attempted, bad
}

// median returns the median of v (the mean of the middle pair for even
// lengths); NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a sample's tail statistic: the highest percentile that has at
// least tailBeyond samples beyond it.
type tail struct {
	Value      float64
	Percentile float64 // in percent
	N          int
	// Short marks a sample too small for the rule (at most tailBeyond
	// values); Value is then the maximum.
	Short bool
}

const tailBeyond = 10

// tailOf applies the tail rule: sorted ascending, the value at rank
// n−tailBeyond (1-based) has exactly tailBeyond samples after it, and
// its percentile is (n−tailBeyond)/n.
func tailOf(v []float64) tail {
	n := len(v)
	if n == 0 {
		return tail{Value: math.NaN(), Short: true}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n, Short: true}
	}
	rank := n - tailBeyond
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n}
}

func (t tail) String() string {
	if t.Short {
		return fmt.Sprintf("max of n=%d (under %d samples for the tail rule)", t.N, tailBeyond+1)
	}
	return fmt.Sprintf("p%.4g of n=%d", t.Percentile, t.N)
}
