// Command bench is the repository's micro-benchmark regression gate. It
// compares two files of `go test -bench -benchmem` output, a parent
// commit's and a change's, each holding k runs alternated on one host.
// A benchmark fails (exit 1) when the change's ns/op median exceeds the
// parent's by more than the tolerance, or any change allocs/op sample
// exceeds the parent's median by more than a fixed allowance. A parent
// spread ((q3-q1)/median) wider than the tolerance leaves ns/op
// unresolved; a benchmark on one side only is listed, not judged.
//
//	go test -run '^$' -bench . -benchmem ./... >> change.txt   # k times per side
//	go run ./cmd/bench -tolerance 1.0 parent.txt change.txt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// series is one benchmark's samples. allocs is shorter than ns when a
// line lacked the -benchmem columns; an absent benchmark has no ns.
type series struct{ ns, allocs []float64 }

// procs matches the -N GOMAXPROCS suffix go test appends to a name.
var procs = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output, any number of runs concatenated,
// into its distinct goos/goarch/cpu lines and every benchmark's samples,
// keyed by package plus name with the -N suffix dropped.
func parse(text string) (host []string, samples map[string]series, err error) {
	samples = map[string]series{}
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "pkg":
				pkg = v
			case "goos", "goarch", "cpu":
				if !slices.Contains(host, line) {
					host = append(host, line)
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil || f[3] != "ns/op" {
			return nil, nil, fmt.Errorf("no ns/op in %q", line)
		}
		key := pkg + "." + procs.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		s := samples[key]
		s.ns = append(s.ns, ns)
		if i := slices.Index(f, "allocs/op"); i > 0 {
			a, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad allocs/op in %q", line)
			}
			s.allocs = append(s.allocs, a)
		}
		samples[key] = s
	}
	return host, samples, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		i, frac := math.Modf(p * float64(len(s)-1))
		return s[int(i)] + frac*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return at(0.25), at(0.5), at(0.75)
}

// allocSlack is how far allocs/op may rise over a parent median of base:
// none from zero, so an allocation-free path fails on its first stray
// allocation, else max(4, 5%), the jitter of pooled arrays (Figure10CPI
// 281-294). The ns/op tolerance does not loosen it.
func allocSlack(base float64) float64 {
	if base == 0 {
		return 0
	}
	return max(4, base/20)
}

// row is one benchmark's comparison.
type row struct {
	key            string
	parent, change series
	verdict        string
	failed         bool
}

// compare judges every benchmark of either input at tolerance tol, in
// key order.
func compare(parent, change map[string]series, tol float64) []row {
	var rows []row
	for k, c := range change {
		if _, ok := parent[k]; !ok {
			rows = append(rows, row{key: k, change: c, verdict: "change only"})
		}
	}
	for k, p := range parent {
		r := row{key: k, parent: p, change: change[k], verdict: "parent only"}
		if len(r.change.ns) > 0 {
			r.verdict, r.failed = judge(p, r.change, tol)
		}
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	return rows
}

// judge returns the verdict on a benchmark both inputs ran.
func judge(parent, change series, tol float64) (verdict string, failed bool) {
	q1, pm, q3 := quartiles(parent.ns)
	_, cm, _ := quartiles(change.ns)
	delta := 100 * (cm/pm - 1)
	verdict = fmt.Sprintf("ok %+.0f%%", delta)
	var why []string
	if len(parent.allocs) == len(parent.ns) && len(change.allocs) > 0 {
		_, base, _ := quartiles(parent.allocs)
		if worst := slices.Max(change.allocs); worst > base+allocSlack(base) {
			why = append(why, fmt.Sprintf("%.0f allocs/op over parent median %.0f + %.0f", worst, base, allocSlack(base)))
		}
	}
	if spread := (q3 - q1) / pm; spread > tol {
		verdict = fmt.Sprintf("unresolved %+.0f%%: parent spread %.0f%%", delta, 100*spread)
	} else if cm > pm*(1+tol) {
		why = append(why, fmt.Sprintf("ns/op %+.0f%% over tolerance %.0f%%", delta, 100*tol))
	}
	if len(why) > 0 {
		return "FAIL: " + strings.Join(why, "; "), true
	}
	return verdict, false
}

// summary renders one side as its ns/op median [q1, q3], its allocs/op
// median and its sample count.
func summary(s series) string {
	if len(s.ns) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(s.ns)
	out := fmt.Sprintf("%.1f [%.1f, %.1f]", m, q1, q3)
	if len(s.allocs) == len(s.ns) {
		_, a, _ := quartiles(s.allocs)
		out += fmt.Sprintf(" %.0f allocs", a)
	}
	return out + fmt.Sprintf(" k=%d", len(s.ns))
}

func main() {
	tol := flag.Float64("tolerance", 0.25, "allowed fractional ns/op rise of the change's median over the parent's")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench [-tolerance f] parent.txt change.txt")
		os.Exit(2)
	}
	var host [2][]string
	var samples [2]map[string]series
	for i, name := range flag.Args() {
		raw, err := os.ReadFile(name)
		if err == nil {
			host[i], samples[i], err = parse(string(raw))
		}
		if err == nil && len(samples[i]) == 0 {
			err = fmt.Errorf("no benchmark results")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(2)
		}
	}
	fmt.Printf("parent: %s\nchange: %s\n\n", strings.Join(host[0], "; "), strings.Join(host[1], "; "))
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tparent ns/op median [q1, q3]\tchange ns/op median [q1, q3]\tverdict")
	failed := false
	for _, r := range compare(samples[0], samples[1], *tol) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.key, summary(r.parent), summary(r.change), r.verdict)
		failed = failed || r.failed
	}
	tw.Flush()
	if failed {
		fmt.Fprintf(os.Stderr, "bench: regressions at tolerance %.0f%%\n", 100**tol)
		os.Exit(1)
	}
	fmt.Printf("no regressions at tolerance %.0f%%\n", 100**tol)
}
