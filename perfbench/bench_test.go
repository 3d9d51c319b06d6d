package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"roadpart/internal/gen"
	"roadpart/internal/server"
)

// daemonBin is the roadpartd binary the tests drive, built once by TestMain.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "roadpartd")
	build := exec.Command("go", "build", "-o", daemonBin, "roadpart/cmd/roadpartd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building roadpartd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyRun runs one workload at the tiny size.
func tinyRun(t *testing.T, workload string, seed uint64, trace bool, tweak func(*options)) *outcome {
	t.Helper()
	o := &options{workload: workload, seed: seed, seconds: 1, trace: trace, daemon: daemonBin, workDir: t.TempDir(), tiny: true}
	if tweak != nil {
		tweak(o)
	}
	out, err := workloads[workload](context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Every op of every workload passes the output check, traced answers
// included, and every end-to-end metric is measured (never 0).
func TestWorkloadsPassOutputCheck(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			out := tinyRun(t, w, 1, true, nil)
			attempted, failed := out.ops.counts()
			if failed != 0 || attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", attempted, failed, out.ops.firstFailures())
			}
			line := out.line(false)
			if !line.Correct {
				t.Fatal("result line not marked correct")
			}
			for _, d := range endToEnd {
				if v := line.Metrics[d.name].Value; v == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			if len(out.line(true).Metrics) != len(perLayer) {
				t.Errorf("traced line has %d metrics, want %d", len(out.line(true).Metrics), len(perLayer))
			}
			if out.metrics["trace.overhead"] <= 0 {
				t.Errorf("trace.overhead = %v", out.metrics["trace.overhead"])
			}
			checkAttribution(t, out.spans)
		})
	}
}

// checkAttribution asserts that the program's stage timers attributed
// time inside the traced core parents, never more than a parent took.
func checkAttribution(t *testing.T, tr *tracer) {
	t.Helper()
	if len(tr.stages) == 0 {
		t.Fatal("no stage children recorded")
	}
	_, covered := tr.attribution()
	for i := range tr.spans {
		s := &tr.spans[i]
		if isCore(s.Name) && covered[i] > ms(s.dur()) {
			t.Errorf("span %d (%s): stages cover %.3f ms of %.3f ms", s.ID, s.Name, covered[i], ms(s.dur()))
		}
	}
}

// A response body altered on the way in is counted as failed.
func TestTamperedBodyFails(t *testing.T) {
	tamper := func(b []byte) []byte {
		if i := bytes.Index(b, []byte(`"assign":[`)); i >= 0 {
			return append(b[:i+len(`"assign":[`)], append([]byte("7,"), b[i+len(`"assign":[`):]...)...)
		}
		return bytes.Replace(b, []byte(`"best_k":`), []byte(`"best_k":1`), 1)
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			out := tinyRun(t, w, 1, false, func(o *options) { o.tamper = tamper })
			attempted, failed := out.ops.counts()
			if failed == 0 || out.line(false).Correct {
				t.Fatalf("attempted %d, failed %d: tampered bodies passed the check", attempted, failed)
			}
		})
	}
}

// A daemon that sheds load answers some requests with 429; each counts as
// failed and as missing the latency limit.
func TestShedRequestsFail(t *testing.T) {
	out := tinyRun(t, "cold-compute", 1, false, func(o *options) {
		o.extraArgs = []string{"-max-inflight", "1", "-max-queue", "0", "-jobs-retry-base", "10ms"}
	})
	_, failed := out.ops.counts()
	if failed == 0 {
		t.Fatal("no request was shed")
	}
	if missed := out.ops.missedLimit(); missed < failed {
		t.Fatalf("%d failed but only %d missed the latency limit", failed, missed)
	}
	if msgs := strings.Join(out.ops.firstFailures(), "\n"); !strings.Contains(msgs, "status 429") {
		t.Fatalf("no failure is a 429 shed:\n%s", msgs)
	}
}

// A different seed changes the inputs but not the set of metric names.
func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	inputs := map[string]func(seed uint64) []byte{
		"hot-sharded": func(seed uint64) []byte {
			pool, err := hotPool(&options{seed: seed, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			return pool[0].body.bytes()
		},
		"cold-compute": func(seed uint64) []byte {
			reqs, err := coldRequests(&options{seed: seed, tiny: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return reqs[0].body.bytes()
		},
		"density-stream": func(seed uint64) []byte {
			in, err := streamSequence(&options{seed: seed}, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			return in.segs[0].first
		},
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			if bytes.Equal(inputs[w](1), inputs[w](2)) {
				t.Fatal("seeds 1 and 2 generated the same input")
			}
			if !bytes.Equal(inputs[w](1), inputs[w](1)) {
				t.Fatal("seed 1 generated different inputs twice")
			}
			a, b := tinyRun(t, w, 1, true, nil), tinyRun(t, w, 2, true, nil)
			if ka, kb := metricNames(a), metricNames(b); ka != kb {
				t.Fatalf("metric names differ between seeds:\n%s\n%s", ka, kb)
			}
		})
	}
}

func metricNames(out *outcome) string {
	var names []string
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	doc, _ := json.Marshal(names)
	return string(doc)
}

// BENCHMARK.json names exactly the workloads and metrics this program
// prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	check := func(table string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", table, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// An ASG document asking for more parts than its network mines to is
// rewritten at the supernode count before it is sent.
func TestASGKCappedAtSupernodes(t *testing.T) {
	n, err := netJSON(gen.TierS, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := partitionReq("asg_s", n, 5000, "ASG", 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.reference(); err != nil {
		t.Fatal(err)
	}
	var doc server.PartitionRequest
	if err := decodeStrict(r.body.bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.K < 2 || doc.K >= 5000 {
		t.Fatalf("rewritten k = %d", doc.K)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, _ := tail(xs); v != 180 { // p90 has 20 beyond; p99 only 2
		t.Errorf("tail of 1..200 = %v, want 180", v)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, _ := tail(big); v != 1980 { // p99 has 20 beyond
		t.Errorf("tail of 1..2000 = %v, want 1980", v)
	}
	if v, _ := tail(xs[:50]); v != 45 { // p90, though only 5 lie beyond it
		t.Errorf("tail of 1..50 = %v, want 45", v)
	}
}

// Every segment's reads are adjacent, so the second hits on the state the
// first missed, and its no-op repeat follows an update it can repeat.
func TestSegmentKinds(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		kinds := string(segmentKinds(gen.NewRNG(seed)))
		if len(kinds) != len(streamBlock) {
			t.Fatalf("seed %d: %q has %d ticks, want %d", seed, kinds, len(kinds), len(streamBlock))
		}
		for _, k := range "rgsdn" {
			if strings.Count(kinds, string(k)) != strings.Count(streamBlock, string(k)) {
				t.Fatalf("seed %d: %q is not a shuffle of %q", seed, kinds, streamBlock)
			}
		}
		if !strings.Contains(kinds, "rr") {
			t.Fatalf("seed %d: reads of %q are not adjacent", seed, kinds)
		}
		if n := strings.IndexByte(kinds, 'n'); strings.IndexAny(kinds, "gsd") > n {
			t.Fatalf("seed %d: the no-op of %q comes before every update", seed, kinds)
		}
	}
}

// The two requests of an L-tier pair start together, and a cancelled run
// leaves no client waiting for a partner that never comes.
func TestLPairsMeet(t *testing.T) {
	pairs := lPairs([]*request{{class: "ag_s"}, {class: "ag_l"}, {class: "ag_l"}, {class: "ag_l"}})
	if len(pairs) != 2 || pairs[1] != pairs[2] || pairs[3] != nil {
		t.Fatalf("pairs = %v", pairs)
	}
	met := make(chan bool)
	go func() { met <- pairs[1].meet(context.Background(), 1) }()
	if !pairs[2].meet(context.Background(), 2) || !<-met {
		t.Fatal("the pair did not meet")
	}
	lone := lPairs([]*request{{class: "ag_l"}, {class: "ag_l"}})[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if lone.meet(ctx, 0) {
		t.Fatal("met a partner that never came")
	}
}
