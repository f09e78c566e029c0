package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"vexsmt/pkg/vexsmt"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" interpolation Python's
// statistics.quantiles(xs, n=4) uses, so the benchmark's own spread
// figures match the ones computed over its JSON output. One sample yields
// that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// quantile returns the Harrell-Davis estimate of the p-quantile of xs
// (0 < p < 1): a weighted mean of every order statistic, the weights
// falling off around rank p*(n+1). The cell latencies of one grid bunch by
// thread count, and the median sits in the gap between two bunches, so the
// plain sample median jumps between the bunches' edges from run to run;
// this estimate moves only as much as the samples near that rank do. NaN
// for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	var sum, prev float64
	for i, x := range s {
		cum := regIncBeta(float64(i+1)/n, a, b)
		sum += (cum - prev) * x
		prev = cum
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), the
// beta distribution's CDF, by Lentz's continued fraction.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(1-x, b, a) // the fraction converges fast only below the mean
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i < 100000; i++ {
		m := float64(i / 2)
		num := 1.0
		switch {
		case i == 0:
		case i%2 == 0:
			num = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-12 {
			break
		}
	}
	return front * (f - 1)
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer samples is one outlier wide.
const minBeyond = 10

// tailPercentile returns the highest percentile no greater than want
// (0 < want < 1) that keeps at least minBeyond samples above its nearest
// rank, together with that percentile's quantile estimate. ok is false
// when the sample is too small for any tail: fewer than minBeyond+1
// samples, or a cap below the median.
func tailPercentile(xs []float64, want float64) (q, value float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, math.NaN(), false
	}
	k := int(math.Ceil(want*float64(n))) - 1 // nearest-rank index of want
	if k > n-1-minBeyond {
		k = n - 1 - minBeyond
	}
	q = float64(k+1) / float64(n)
	if q < 0.5 {
		return 0, math.NaN(), false
	}
	return q, quantile(xs, q), true
}

// tailWindow is the fewest cells one tail-percentile window holds: enough
// for p99 to keep minBeyond samples beyond it.
const tailWindow = 100 * minBeyond

// tailWindows cuts a run's cell latencies, given per sweep in completion
// order, into the windows windowedTail takes its median over: consecutive
// windows of tailWindow cells (the last one takes the remainder) when the
// run holds at least two, or else one window per sweep.
func tailWindows(sweeps [][]float64) [][]float64 {
	var all []float64
	for _, s := range sweeps {
		all = append(all, s...)
	}
	n := len(all) / tailWindow
	if n < 2 {
		return sweeps
	}
	ws := make([][]float64, n)
	for i := range ws {
		end := (i + 1) * tailWindow
		if i == n-1 {
			end = len(all)
		}
		ws[i] = all[i*tailWindow : end]
	}
	return ws
}

// windowedTail takes each window's tail percentile and returns the median
// over the windows, the first window's percentile and the number of
// windows. A stall of the host inflates the few windows it falls in, not
// the median.
func windowedTail(windows [][]float64, want float64) (q, value float64, n int) {
	vals := make([]float64, len(windows))
	for i, w := range windows {
		qi, v, ok := tailPercentile(w, want)
		if !ok {
			return 0, math.NaN(), 0
		}
		if i == 0 {
			q = qi
		}
		vals[i] = v
	}
	if len(vals) == 0 {
		return 0, math.NaN(), 0
	}
	return q, median(vals), len(vals)
}

// tally counts cells attempted and failed. A cell fails when it errored,
// is missing from the output, or differs from the reference.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// ratio is the failed share of attempted cells.
func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// cellID names a cell independent of its result.
func cellID(c vexsmt.CellResult) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s", c.Mix, c.Workload, c.Technique, c.Threads, c.Predictor)
}

// failures returns the ids of the reference cells that got lacks, reports
// with an error or with different contents, or whose counters are not
// self-consistent. A cell in got that the reference does not plan stands
// in for a planned one, so the whole comparison fails then.
func failures(ref, got *vexsmt.ResultSet) map[string]bool {
	byID := make(map[string]vexsmt.CellResult, len(got.Cells))
	for _, c := range got.Cells {
		c.Cached = false
		byID[cellID(c)] = c
	}
	bad := map[string]bool{}
	for _, want := range ref.Cells {
		want.Cached = false
		id := cellID(want)
		c, ok := byID[id]
		if !ok || c.Err != "" || c != want || !sane(c) {
			bad[id] = true
		}
		delete(byID, id)
	}
	if len(byID) > 0 {
		for _, want := range ref.Cells {
			bad[cellID(want)] = true
		}
	}
	return bad
}

// sane reports whether a cell's counters are self-consistent: the run
// counted work, and its IPC is operations per cycle.
func sane(c vexsmt.CellResult) bool {
	k := c.Counters
	return k.Cycles > 0 && k.Instrs > 0 && c.IPC == float64(k.Ops)/float64(k.Cycles)
}

// metricName is the charset every reported metric name keeps to.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
