// Command perfbench is the repository benchmark: a load generator that
// starts real roadpartd processes, drives one named workload through
// loopback sockets, checks every answer against an in-process reference
// computed from the very request bytes that were sent, and prints every
// metric by name with its unit. With -trace 1 it also replays the same
// inputs in-process, timing the calls into each layer's public functions
// and, inside them, the program's own stage timers, and reports the
// per-layer ledger instead of the end-to-end metrics.
//
// Run it through run.sh, which builds roadpartd and this program from the
// checkout:
//
//	bash perfbench/run.sh --workload cold-compute --seed 3 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// See README.md for the workloads, the metrics and the layer ledger.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// endToEnd lists the metrics a --trace 0 run prints, with their units.
// Every workload measures all of them; BENCHMARK.json names the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ans_mean", "ans"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// never calls reports 0 there (see README.md, "Per-layer metrics").
var perLayer = []metricDef{
	{"hit_p50_ms", "ms"},
	{"ag_s_p50_ms", "ms"},
	{"asg_s_p50_ms", "ms"},
	{"ag_m_p50_ms", "ms"},
	{"asg_m_p50_ms", "ms"},
	{"ag_l_p50_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"event_lag_p50_ms", "ms"},
	{"event_lag_tail_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.request_mb", "MB"},
	{"server.encode_ms", "ms"},
	{"server.densities_ms", "ms"},
	{"server.watch_fanout_ms", "ms"},
	{"server.watch_dropped", "count"},
	{"resultcache.key_ms", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.invalidated", "count"},
	{"peers.forward_ratio", "ratio"},
	{"peers.hop_ms", "ms"},
	{"peers.errors", "count"},
	{"jobs.retries", "count"},
	{"jobs.overhead_ms", "ms"},
	{"jobs.polls", "count"},
	{"roadnet.validate_ms", "ms"},
	{"roadnet.dual_ms", "ms"},
	{"supergraph.mine_ms", "ms"},
	{"supergraph.supernodes", "count"},
	{"coarsen.build_ms", "ms"},
	{"coarsen.levels", "count"},
	{"cut.eigen_ms", "ms"},
	{"cut.cluster_ms", "ms"},
	{"cut.repair_ms", "ms"},
	{"cut.kprime_ratio", "ratio"},
	{"metrics.evaluate_ms", "ms"},
	{"core.pipeline_ms", "ms"},
	{"core.partitionk_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"temporal.step_ms", "ms"},
	{"temporal.delta_ratio", "ratio"},
	{"temporal.full_ratio", "ratio"},
	{"temporal.reused_ratio", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *options) (*outcome, error){
	"hot-sharded":    runHot,
	"cold-compute":   runCold,
	"density-stream": runStream,
}

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string // roadpartd binary
	workDir  string // scratch space for daemon logs, journals and the span file
	tiny     bool   // shrink every input (tests only)

	// extraArgs are appended to every roadpartd command line (tests).
	extraArgs []string
	// tamper, when set, may rewrite a response body before it is checked
	// (tests: a corrupted answer must count as failed).
	tamper func(body []byte) []byte
}

// tampered applies the test hook, if any, to a response body.
func (o *options) tampered(body []byte) []byte {
	if o.tamper == nil {
		return body
	}
	return o.tamper(append([]byte(nil), body...))
}

// outcome is what a workload measured.
type outcome struct {
	ops     *ledger
	metrics map[string]float64 // by metric name; both tables
	spans   *tracer            // nil unless traced
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: hot-sharded, cold-compute or density-stream")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also replay the inputs in-process and report the per-layer ledger")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/roadpartd", "roadpartd binary")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/run", "scratch directory for daemon logs, journals and spans")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(&o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	drive, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return fmt.Errorf("roadpartd binary: %w", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	// An interrupt cancels the run; the deferred daemon stops still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := drive(ctx, o)
	if err != nil {
		return err
	}
	line := out.line(o.trace)
	printSummary(os.Stdout, o, out)
	if out.spans != nil {
		path := fmt.Sprintf("%s/spans-%s-%d.json", o.workDir, o.workload, o.seed)
		if err := out.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	doc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	return nil
}

// line selects the printed table: end-to-end metrics untraced, per-layer
// metrics traced.
func (out *outcome) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	attempted, failed := out.ops.counts()
	l := resultLine{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	return l
}

// printSummary writes a human-readable account above the result line:
// every metric, tail percentiles with their sample counts, and the first
// failures.
func printSummary(f *os.File, o *options, out *outcome) {
	attempted, failed := out.ops.counts()
	fmt.Fprintf(f, "workload %s seed %d: attempted %d, succeeded %d, failed %d, missed the latency limit %d\n",
		o.workload, o.seed, attempted, attempted-failed, failed, out.ops.missedLimit())
	for _, msg := range out.ops.firstFailures() {
		fmt.Fprintf(f, "  FAILED %s\n", msg)
	}
	for _, note := range out.ops.notes {
		fmt.Fprintf(f, "  %s\n", note)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-26s %.4f\n", n, out.metrics[n])
	}
	if out.spans != nil {
		out.spans.printLedger(f)
	}
}

// runLimit bounds a whole run, so a stalled daemon ends it with an error
// instead of keeping the benchmark past three minutes.
const runLimit = 170 * time.Second

func deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, runLimit)
}
