// Command perfbench is the repository's benchmark. It runs one workload
// against the engine with default Options, checks every result, prints
// a report and, as its last line, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced and then traced, and the metrics are the
// per-layer ones, including the tracing overhead (traced minus untraced).
// It exits non-zero on any wrong result.
//
//	perfbench --workload point-cold|served-open|journal-churn --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var workloads = map[string]func(cfg runCfg, m mode) (*phase, error){
	"point-cold":    runPointCold,
	"served-open":   runServedOpen,
	"journal-churn": runJournalChurn,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: point-cold, served-open or journal-churn")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceOn := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's span file (empty = none)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceOn)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, traceDir: *traceDir, name: *name}

	var phases []*phase
	res := resultJSON{Metrics: map[string]metricJSON{}}
	if *traceOn == 0 {
		p, err := run(cfg, modeMeasure)
		if err != nil {
			fatal(err)
		}
		phases = append(phases, p)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricJSON{p.e2e[d.name], d.unit}
		}
	} else {
		base, err := run(cfg, modeBaseline)
		if err != nil {
			fatal(err)
		}
		traced, err := run(cfg, modeTraced)
		if err != nil {
			fatal(err)
		}
		phases = append(phases, base, traced)
		l := traced.layer
		l["overhead.throughput_frac"] = per(traced.e2e["throughput_ops"]-base.e2e["throughput_ops"], base.e2e["throughput_ops"])
		for _, m := range []string{"get_p50_us", "write_p50_us", "cpu_us_per_op"} {
			l["overhead."+m] = traced.e2e[m] - base.e2e[m]
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricJSON{l[d.name], d.unit}
		}
	}

	var errs []string
	for _, p := range phases {
		res.Attempted += p.loop.attempted + p.failed
		res.Failed += p.loop.failed + p.failed
		errs = append(errs, p.loop.errs...)
		errs = append(errs, p.errs...)
	}
	res.Correct = res.Failed == 0
	report(os.Stdout, cfg, phases, res, *traceOn == 1)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong result:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints every metric by name and unit: the JSON result's, the
// workload-specific lines and the error rate.
func report(w *os.File, cfg runCfg, phases []*phase, res resultJSON, traced bool) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v\n", cfg.name, cfg.seed, cfg.seconds, traced)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range phases[len(phases)-1:] {
		for _, l := range p.notes {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", l.name, l.value, l.unit)
		}
	}
	fmt.Fprintf(w, "  %-36s %14.6f %s\n", "error_rate", per(float64(res.Failed), float64(res.Attempted)), "ratio")
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 40))
}
