package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// exactCounts are the metrics that must repeat exactly for a seed: a
// pure-read workload visits the same records for the same inputs
// whatever the machine does, so later changes may claim on the count.
var exactCounts = map[string][]string{
	"read_uncached_100k": {"index.scanned_per_query"},
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		MetricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4), which
// is what the benchmark's acceptance is computed with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = slices.Sorted(slices.Values(xs))
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// loadSet reads every end-to-end (untraced) result file in dir, by
// workload.
func loadSet(dir string) (map[string][]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string][]*Result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !res.Trace {
			set[res.Workload] = append(set[res.Workload], &res)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", dir)
	}
	return set, nil
}

func valuesOf(runs []*Result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Values[metric]
	}
	return out
}

// verdict compares set b against set a on one metric. A spread (the
// distance between the quartiles over the median) wider than the
// bound on either side leaves the pair unresolved, unless every run of
// b reads better than every run of a.
func verdict(a, b []float64, better string, bound float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse, allBetter := ratio(bm-am, am), slices.Max(b) < slices.Min(a)
	if better == "higher" {
		worse, allBetter = -worse, slices.Min(b) > slices.Max(a)
	}
	if allBetter {
		return "better"
	}
	if max(ratio(a3-a1, am), ratio(b3-b1, bm)) > bound {
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// Compare is cmd/benchcmp: it prints one row per workload and
// end-to-end metric for two sets of result files and returns non-zero
// when a metric got worse by more than its bound or an exact count
// differs.
func Compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp [-bench BENCHMARK.json] <parent results dir> <change results dir>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fail(fmt.Errorf("%s: %w", *benchPath, err))
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		return fail(err)
	}

	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tparent q1 / median / q3\tchange q1 / median / q3\tdelta\tbound\tverdict")
	for _, w := range bf.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue // a workload neither side ran
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d/%d\t-\t-\t-\t-\tmissing\n", w.Name, len(ra), len(rb))
			code = 1
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			v := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, len(va), len(vb), a1, am, a3, b1, bm, b3, 100*ratio(bm-am, am), 100*m.Bound, v)
		}
		for _, name := range exactCounts[w.Name] {
			for _, x := range ra {
				for _, y := range rb {
					if x.Seed == y.Seed && x.Values[name] != y.Values[name] {
						fmt.Fprintf(tw, "%s\t%s\tcount\tseed %d\t%v\t%v\t-\texact\tdiffers\n", w.Name, name, x.Seed, x.Values[name], y.Values[name])
						code = 1
					}
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	return code
}
