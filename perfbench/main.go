// Command perfbench is the end-to-end query benchmark. One invocation runs
// one workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the workload's metrics:
//
//	go run . --workload median-records --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (query latency, CPU,
// set-up time, the paper's byte counters, modeled runtime, peak RSS). With
// --trace 1 the same workload runs with wrappers around the job's function
// fields, the service's store, and the engine's own phase spans, and the
// metrics are the per-layer split. The seed generates the inputs; the
// program under test only ever sees the generated inputs.
//
// Every run checks its own outputs: the warm-up query cell by cell against
// scihadoop.Reference, every timed query against the warm-up's sha256. A
// wrong or failed query counts in "failed", and any failure makes
// "correct" false and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// maxRun bounds one invocation's wall time, which must stay under 180 s.
const maxRun = 170 * time.Second

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// side, when set, shrinks every workload's grids to about this side so
	// the self-test stays fast.
	side int
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	// problems lists every correctness failure, for standard error.
	problems []string
	// walls holds the timed queries' wall times, summarized on standard
	// error.
	walls   []float64
	metrics map[string]float64
	// reconciliation is a traced run's check of attributed time against
	// CPU time, for standard error.
	reconciliation string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"median-records":   runMedianRecords,
	"median-transform": runMedianTransform,
	"cluster-records":  runClusterRecords,
	"service-mix":      runServiceMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: median-records, median-transform, cluster-records, service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", maxRun)
		os.Exit(3)
	})
	defer watchdog.Stop()

	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	table := endToEnd
	if opts.trace {
		table = perLayer
	}
	res, err := assemble(out, table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed queries, wall s min %.4f p50 %.4f p90 %.4f max %.4f\n",
		*name, len(out.walls), quantile(out.walls, 0), median(out.walls), quantile(out.walls, 0.9), quantile(out.walls, 1))
	if out.reconciliation != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, out.reconciliation)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// assemble checks that the run produced exactly the table's metrics and
// attaches their units.
func assemble(out *outcome, table []metricDef) (*result, error) {
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(table)),
	}
	for _, m := range table {
		v, ok := out.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(out.metrics) != len(table) {
		var extra []string
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the table: %v", extra)
	}
	return res, nil
}
