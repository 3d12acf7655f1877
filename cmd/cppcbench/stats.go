package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// percentileMs returns the p-th percentile (0 <= p <= 1) of the
// durations in milliseconds, interpolating linearly between the two
// closest ranks. It returns 0 for an empty sample.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	v := float64(s[lo]) + frac*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// quartiles returns the first quartile, median and third quartile of vs
// by the method of Python's statistics.quantiles(vs, n=4) (the
// "exclusive" default), so spreads printed here match the ones a Python
// harness computes from the same values. A single value is its own
// quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := slices.Clone(vs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// sum adds durations up in seconds.
func sum(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
