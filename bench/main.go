// Package bench is the repository's benchmark: four workloads built
// the way cmd/pidcan-serve's defaults resolve, driven from outside
// through the layers' public functions, refereed, and reported as the
// end-to-end and per-layer metrics BENCHMARK.json declares. See
// README.md for what each workload and metric is for.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// Main is cmd/pidcan-bench: it runs the selected workloads, prints
// every metric by name with its unit, ends each run's report with the
// one-line JSON object the benchmark contract asks for, and returns
// the exit code — non-zero when a run failed or its referee objected.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pidcan-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	fs.StringVar(&o.Workload, "workload", "", "workload to run (default: all four)")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&o.Seconds, "seconds", 0, "measured window in seconds (default 15, 0.4 with -smoke)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end run")
	fs.BoolVar(&o.Smoke, "smoke", false, "1/50 scale wiring check, not a measurement")
	fs.IntVar(&o.Clients, "clients", DefaultClients(), "closed-loop callers (at most one per core)")
	fs.StringVar(&o.OutDir, "out", "bench/out", "directory for result and span files")
	fs.BoolVar(&o.corrupt, "corrupt", false, "falsify one response so the referee must fail the run (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.Trace = *trace != 0
	o.Commit = gitCommit()
	if o.Seconds == 0 {
		o.Seconds = 15
		if o.Smoke {
			o.Seconds = 0.4
		}
	}
	names := []string{o.Workload}
	if o.Workload == "" {
		names = names[:0]
		for _, sp := range workloads {
			names = append(names, sp.name)
		}
	}
	code := 0
	for _, name := range names {
		o.Workload = name
		res, err := Run(o)
		if err != nil {
			fmt.Fprintln(stderr, "pidcan-bench:", err)
			return 1
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "pidcan-bench:", err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "pidcan-bench: %s: %d of %d operations failed the referee; first: %s\n",
				name, res.Failed, res.Attempted, res.FirstError)
			code = 1
		}
	}
	return code
}

// report prints a run: the environment, every metric of the run's
// mode by name and unit, the sample count behind each timing, and
// last the contract's JSON line.
func report(w io.Writer, res *Result) error {
	e := res.Env
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v clients=%d nproc=%d gomaxprocs=%d %s commit=%s kernel=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, e.Clients, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Kernel)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range res.reported() {
		metrics[d.Name] = value{res.Values[d.Name], d.Unit}
		fmt.Fprintf(w, "%-32s %16.4f %s\n", d.Name, res.Values[d.Name], d.Unit)
	}
	for _, name := range []string{"query_us", "write_us", "paced_us"} {
		if t, ok := res.Timings[name]; ok && t.N > 0 {
			fmt.Fprintf(w, "# timing %-10s n=%d p50=%.2f p%g=%.2f\n", name, t.N, t.P50, t.TailP, t.Tail)
		}
	}
	if xs := slices.Clone(res.SliceOpsPerS); len(xs) > 0 {
		slices.Sort(xs)
		fmt.Fprintf(w, "# slices op/s min=%.0f median=%.0f max=%.0f; late_share=%.4f failed_share=%.4f\n",
			xs[0], median(xs), xs[len(xs)-1], res.Values["loadgen.late_share"], res.Values["failed_share"])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fmt.Errorf("%s: result line: %w", res.Workload, err) // a NaN metric
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeResult stores the full result — both metric sets, timings and
// the span roll-up — where benchcmp reads it.
func writeResult(path string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
