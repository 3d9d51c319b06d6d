package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/cut"
	"roadpart/internal/metrics"
	"roadpart/internal/obs"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
)

// This file is the traced run. It replays a workload's request bytes
// in-process on one goroutine and records a span around every call into a
// layer's public functions: the server's decode and encode, the cache key,
// roadnet.Validate, and one call per core parent (NewPipelineCtx,
// PartitionKCtx, BestKByANSCtx) or tracker step. A parent's layer children
// are timed from inside that one call by the program's own stage timers
// (obs.StageFamily): the advance of each timer across the call is recorded
// as a stage child of the parent's span. A core parent's time not covered
// by a non-nested stage is core.unattributed_ms.
//
// Two children of PartitionKCtx have no stage timer: the connectivity
// repair (inside the spectral_cut stage) and the evaluation (outside any
// stage). They are replayed once the request is done, on the inputs the
// parent used, and must reproduce the parent's output, or the op fails.
// Every traced pipeline runs with Workers=1 so stage times add up inside
// their parent; the answer core returns must still equal the reference
// (worker count never changes results).

// span is one timed call. Times are offsets from the start of the trace.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a request's root span
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Replay marks a child replayed after its request on its parent's
	// inputs; it is not part of the parent's time.
	Replay bool `json:"replay,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// stageChild is the advance of one program stage timer across a parent
// call. The timer gives a duration, not a start and end.
type stageChild struct {
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Stage  string        `json:"stage"`
	Dur    time.Duration `json:"dur_ns"`
	Nested bool          `json:"nested,omitempty"` // obs.Stages: contained in another stage
}

// stageTimers resolves every canonical stage timer once.
var stageTimers = func() []*obs.Timer {
	ts := make([]*obs.Timer, len(obs.Stages))
	for i, s := range obs.Stages {
		ts[i] = obs.StageTimer(s.Name)
	}
	return ts
}()

func stageTotals() []time.Duration {
	out := make([]time.Duration, len(stageTimers))
	for i, t := range stageTimers {
		out[i] = t.Total()
	}
	return out
}

// tracer keeps spans in memory until the run ends. It is used from a
// single goroutine, and nothing else in the process may run a stage while
// it traces.
type tracer struct {
	t0     time.Time
	spans  []span
	stages []stageChild
	obs    map[string][]float64 // per-call observations (sizes and counts)
}

func newTracer() *tracer { return &tracer{t0: time.Now(), obs: make(map[string][]float64)} }

// open allocates a span; begin and finish stamp it.
func (t *tracer) open(name string, req, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name})
	return len(t.spans)
}

func (t *tracer) begin(id int)  { t.spans[id-1].Start = time.Since(t.t0) }
func (t *tracer) finish(id int) { t.spans[id-1].End = time.Since(t.t0) }

// do runs fn inside a new span.
func (t *tracer) do(name string, req, parent int, fn func() error) error {
	id := t.open(name, req, parent)
	t.begin(id)
	err := fn()
	t.finish(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// parent runs fn inside a new span and records every stage timer that
// advanced during it as the span's stage child. It returns the span id.
func (t *tracer) parent(name string, req, parent int, fn func() error) (int, error) {
	before := stageTotals()
	id := t.open(name, req, parent)
	t.begin(id)
	err := fn()
	t.finish(id)
	for i, d := range stageTotals() {
		if d -= before[i]; d > 0 {
			t.stages = append(t.stages, stageChild{Parent: id, Req: req, Stage: obs.Stages[i].Name, Dur: d, Nested: obs.Stages[i].Nested})
		}
	}
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// replayChild runs fn as a replayed child of parent.
func (t *tracer) replayChild(name string, req, parent int, fn func() error) error {
	err := t.do(name, req, parent, fn)
	t.spans[len(t.spans)-1].Replay = true
	return err
}

func (t *tracer) observe(name string, v float64) { t.obs[name] = append(t.obs[name], v) }

// root opens and begins a request's root span.
func (t *tracer) root(req int) int {
	id := t.open("request", req, 0)
	t.begin(id)
	return id
}

// pipeline times core.NewPipelineCtx.
func (t *tracer) pipeline(ctx context.Context, req, root int, net *roadnet.Network, cfg core.Config) (*core.Pipeline, error) {
	var p *core.Pipeline
	if _, err := t.parent("core.pipeline", req, root, func() (err error) {
		p, err = core.NewPipelineCtx(ctx, net, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if p.SG != nil {
		t.observe("supergraph.supernodes", float64(len(p.SG.Nodes)))
	}
	if levels := p.MultilevelLevels(); levels > 0 {
		t.observe("coarsen.levels", float64(levels))
	}
	return p, nil
}

// replayPartition traces one partition document, checks that core's
// answer equals the reference, then replays the untimed children.
func (t *tracer) replayPartition(ctx context.Context, req int, body []byte, want *partAnswer) error {
	root := t.root(req)
	var doc server.PartitionRequest
	var cfg core.Config
	var p *core.Pipeline
	var res *core.Result
	pk, err := func() (int, error) {
		defer t.finish(root)
		if err := t.do("server.decode", req, root, func() error { return decodeStrict(body, &doc) }); err != nil {
			return 0, err
		}
		t.observe("server.request_mb", float64(len(body))/1e6)
		if doc.Network == nil {
			return 0, fmt.Errorf("missing network")
		}
		if err := t.do("roadnet.validate", req, root, doc.Network.Validate); err != nil {
			return 0, err
		}
		var err error
		if cfg, err = partitionConfig(&doc); err != nil {
			return 0, err
		}
		cfg.Workers = 1
		if err := t.do("resultcache.key", req, root, func() error {
			_ = resultcache.PartitionKey(doc.Network, cfg)
			return nil
		}); err != nil {
			return 0, err
		}
		if p, err = t.pipeline(ctx, req, root, doc.Network, cfg); err != nil {
			return 0, err
		}
		pk, err := t.parent("core.partitionk", req, root, func() (err error) {
			res, err = p.PartitionKCtx(ctx, cfg.K)
			return err
		})
		if err != nil {
			return 0, err
		}
		if err := want.equal(&partAnswer{Assign: res.Assign, K: res.K, KPrime: res.KPrime, Report: res.Report}); err != nil {
			return 0, fmt.Errorf("traced answer: %w", err)
		}
		return pk, t.do("server.encode", req, root, func() error {
			_, err := json.Marshal(server.PartitionResponse{Assign: res.Assign, K: res.K, KPrime: res.KPrime, Report: res.Report})
			return err
		})
	}()
	if err != nil {
		return err
	}
	return t.replayUntimed(ctx, req, pk, p, cfg.K, cfg.Refine, res)
}

// replaySweep traces one sweep document, checks it, then replays the
// untimed children of every k.
func (t *tracer) replaySweep(ctx context.Context, req int, body []byte, want *sweepAnswer) error {
	root := t.root(req)
	var p *core.Pipeline
	var sweep []core.SweepPoint
	sw, err := func() (int, error) {
		defer t.finish(root)
		var doc server.SweepRequest
		if err := t.do("server.decode", req, root, func() error { return decodeStrict(body, &doc) }); err != nil {
			return 0, err
		}
		t.observe("server.request_mb", float64(len(body))/1e6)
		if doc.Network == nil {
			return 0, fmt.Errorf("missing network")
		}
		if err := t.do("roadnet.validate", req, root, doc.Network.Validate); err != nil {
			return 0, err
		}
		cfg, err := baseConfig(doc.Scheme, doc.Seed, doc.Multilevel)
		if err != nil {
			return 0, err
		}
		cfg.Workers = 1
		kMin, kMax := sweepRange(&doc)
		if err := t.do("resultcache.key", req, root, func() error {
			_ = resultcache.SweepKey(doc.Network, cfg, kMin, kMax)
			return nil
		}); err != nil {
			return 0, err
		}
		if p, err = t.pipeline(ctx, req, root, doc.Network, cfg); err != nil {
			return 0, err
		}
		if p.SG != nil && kMax > len(p.SG.Nodes) {
			kMax = len(p.SG.Nodes)
		}
		var best int
		sw, err := t.parent("core.sweep", req, root, func() (err error) {
			best, sweep, err = p.BestKByANSCtx(ctx, kMin, kMax)
			return err
		})
		if err != nil {
			return 0, err
		}
		got := sweepFromCore(best, sweep)
		if err := want.equal(got); err != nil {
			return 0, fmt.Errorf("traced answer: %w", err)
		}
		return sw, t.do("server.encode", req, root, func() error {
			_, err := json.Marshal(server.SweepResponse{BestK: got.BestK, Points: got.Points})
			return err
		})
	}()
	if err != nil {
		return err
	}
	for _, pt := range sweep {
		if err := t.replayUntimed(ctx, req, sw, p, pt.K, false, pt.Result); err != nil {
			return err
		}
	}
	return nil
}

// replayUntimed replays the two children of PartitionKCtx(k) that carry
// no stage timer, on the inputs the parent used, and checks them against
// the parent's result res: cut.RepairConnectivity on the spectral cut's
// assignment (recomputed untimed; the eigenpairs are cached) and
// metrics.Evaluate on the final assignment.
func (t *tracer) replayUntimed(ctx context.Context, req, parent int, p *core.Pipeline, k int, refined bool, res *core.Result) error {
	cres, err := p.Spectral().PartitionCtx(ctx, k)
	if err != nil {
		return err
	}
	if cres.KPrime != res.KPrime {
		return fmt.Errorf("replayed spectral cut at k=%d: k'=%d, core's %d", k, cres.KPrime, res.KPrime)
	}
	assign := cres.Assign
	if p.SG != nil {
		if assign, err = p.SG.ExpandAssign(assign); err != nil {
			return err
		}
	}
	var kk int
	if err := t.replayChild("cut.repair", req, parent, func() (err error) {
		assign, kk, err = cut.RepairConnectivity(p.G, p.F, assign, k)
		return err
	}); err != nil {
		return err
	}
	if !refined && (kk != res.K || !slices.Equal(assign, res.Assign)) {
		return fmt.Errorf("replayed cut.repair at k=%d differs from core's assignment", k)
	}
	var rep metrics.Report
	if err := t.replayChild("metrics.evaluate", req, parent, func() (err error) {
		rep, err = metrics.Evaluate(p.F, res.Assign, p.G)
		return err
	}); err != nil {
		return err
	}
	if rep != res.Report {
		return fmt.Errorf("replayed metrics.evaluate at k=%d differs from core's report", k)
	}
	return nil
}

// replayHit traces the daemon's cache-hit path for one request: decode,
// fingerprint, and (as a control) re-encoding the cached response.
func (t *tracer) replayHit(req int, sweep bool, body, cached []byte) error {
	root := t.root(req)
	defer t.finish(root)
	var resp any
	if sweep {
		var doc server.SweepRequest
		if err := t.do("server.decode", req, root, func() error { return decodeStrict(body, &doc) }); err != nil {
			return err
		}
		cfg, err := baseConfig(doc.Scheme, doc.Seed, doc.Multilevel)
		if err != nil {
			return err
		}
		kMin, kMax := sweepRange(&doc)
		_ = t.do("resultcache.key", req, root, func() error {
			_ = resultcache.SweepKey(doc.Network, cfg, kMin, kMax)
			return nil
		})
		resp = &server.SweepResponse{}
	} else {
		var doc server.PartitionRequest
		if err := t.do("server.decode", req, root, func() error { return decodeStrict(body, &doc) }); err != nil {
			return err
		}
		cfg, err := partitionConfig(&doc)
		if err != nil {
			return err
		}
		_ = t.do("resultcache.key", req, root, func() error {
			_ = resultcache.PartitionKey(doc.Network, cfg)
			return nil
		})
		resp = &server.PartitionResponse{}
	}
	t.observe("server.request_mb", float64(len(body))/1e6)
	if err := json.Unmarshal(cached, resp); err != nil {
		return fmt.Errorf("decoding cached response: %w", err)
	}
	return t.do("server.encode", req, root, func() error {
		_, err := json.Marshal(resp)
		return err
	})
}

// spanMetric names the per-layer metric each call span feeds.
var spanMetric = map[string]string{
	"server.decode":    "server.decode_ms",
	"server.encode":    "server.encode_ms",
	"resultcache.key":  "resultcache.key_ms",
	"roadnet.validate": "roadnet.validate_ms",
	"cut.repair":       "cut.repair_ms",
	"metrics.evaluate": "metrics.evaluate_ms",
	"core.pipeline":    "core.pipeline_ms",
	"core.partitionk":  "core.partitionk_ms",
	"core.sweep":       "core.sweep_ms",
	"temporal.step":    "temporal.step_ms",
}

// stageMetric names the per-layer metric each stage child feeds.
// spectral_cut feeds cut.cluster_ms less the eigensolve it contains (see
// attribution); it also holds ExpandAssign and the connectivity repair.
var stageMetric = map[string]string{
	"road_graph_build": "roadnet.dual_ms",
	"mcg_shortlist":    "supergraph.mine_ms",
	"full_kmeans":      "supergraph.mine_ms",
	"stability_split":  "supergraph.mine_ms",
	"supergraph_merge": "supergraph.mine_ms",
	"coarsen":          "coarsen.build_ms",
	"eigendecompose":   "cut.eigen_ms",
	"spectral_cut":     "cut.cluster_ms",
}

// attribution splits each parent span's time among its stage children:
// the per-layer time each child feeds, and the time no stage covers. The
// eigensolve is a nested stage: inside spectral_cut on a cold partition,
// or in the warm-up ahead of a sweep's cuts (the parent then has a
// k_sweep child), where it is a child of its own.
func (t *tracer) attribution() (layer []map[string]float64, covered []float64) {
	layer = make([]map[string]float64, len(t.spans))
	covered = make([]float64, len(t.spans))
	bySpan := make(map[int][]stageChild)
	for _, c := range t.stages {
		bySpan[c.Parent] = append(bySpan[c.Parent], c)
	}
	for id, cs := range bySpan {
		var eigen float64
		swept, cutRan := false, false
		m := make(map[string]float64)
		for _, c := range cs {
			d := ms(c.Dur)
			if metric, ok := stageMetric[c.Stage]; ok {
				m[metric] += d
			}
			if !c.Nested {
				covered[id-1] += d
			}
			switch c.Stage {
			case "eigendecompose":
				eigen = d
			case "k_sweep":
				swept = true
			case "spectral_cut":
				cutRan = true
			}
		}
		if cutRan && !swept {
			m["cut.cluster_ms"] -= eigen
		} else {
			covered[id-1] += eigen
		}
		layer[id-1] = m
	}
	return layer, covered
}

// isCore reports the spans whose uncovered time is core.unattributed_ms.
func isCore(name string) bool {
	return name == "core.pipeline" || name == "core.partitionk" || name == "core.sweep"
}

// fill writes the traced per-layer metrics into m: for each layer, the
// median over the requests that called it of the request's summed time
// in it (a sweep cuts once per k); the same for the core parents' summed
// uncovered time; and the observations.
func (t *tracer) fill(m map[string]float64) {
	perReq := make(map[string]map[int]float64)
	add := func(metric string, req int, v float64) {
		if perReq[metric] == nil {
			perReq[metric] = make(map[int]float64)
		}
		perReq[metric][req] += v
	}
	layer, covered := t.attribution()
	for i := range t.spans {
		s := &t.spans[i]
		if metric, ok := spanMetric[s.Name]; ok {
			add(metric, s.Req, ms(s.dur()))
		}
		for metric, v := range layer[i] {
			add(metric, s.Req, v)
		}
		if isCore(s.Name) {
			add("core.unattributed_ms", s.Req, ms(s.dur())-covered[i])
		}
	}
	for metric, byReq := range perReq {
		vs := make([]float64, 0, len(byReq))
		for _, v := range byReq {
			vs = append(vs, v)
		}
		m[metric] = median(vs)
	}
	m["server.request_mb"] = median(t.obs["server.request_mb"])
	m["supergraph.supernodes"] = mean(t.obs["supergraph.supernodes"])
	m["coarsen.levels"] = mean(t.obs["coarsen.levels"])
}

// reqMs is the duration of request req's root span (ms).
func (t *tracer) reqMs(req int) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := &t.spans[i]; s.Req == req && s.Parent == 0 {
			return ms(s.dur())
		}
	}
	return 0
}

// rootTotal is the summed duration of every request's root span (ms).
func (t *tracer) rootTotal() float64 {
	var total float64
	for i := range t.spans {
		if t.spans[i].Parent == 0 {
			total += ms(t.spans[i].dur())
		}
	}
	return total
}

// printLedger writes each call span's calls, total and median time and
// share of the traced request time (with the uncovered time of parents),
// then each program stage's total and share.
func (t *tracer) printLedger(w io.Writer) {
	_, covered := t.attribution()
	type row struct {
		durs      []float64
		self      float64
		hasStages bool
	}
	calls := make(map[string]*row)
	for i := range t.spans {
		s := &t.spans[i]
		r := calls[s.Name]
		if r == nil {
			r = &row{}
			calls[s.Name] = r
		}
		r.durs = append(r.durs, ms(s.dur()))
		r.self += ms(s.dur()) - covered[i]
	}
	stages := make(map[string]*row)
	for _, c := range t.stages {
		calls[t.spans[c.Parent-1].Name].hasStages = true
		r := stages[c.Stage]
		if r == nil {
			r = &row{}
			stages[c.Stage] = r
		}
		r.durs = append(r.durs, ms(c.Dur))
	}
	total := t.rootTotal()
	fmt.Fprintf(w, "  layer ledger (traced replay, %d spans, %d stage children, %.1f ms of request time):\n", len(t.spans), len(t.stages), total)
	fmt.Fprintf(w, "    %-24s %7s %11s %10s %7s %11s\n", "span", "calls", "total_ms", "p50_ms", "share", "uncovered")
	rows := func(prefix string, by map[string]*row) {
		names := make([]string, 0, len(by))
		for n := range by {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := by[n]
			var sum float64
			for _, d := range r.durs {
				sum += d
			}
			self := ""
			if r.hasStages {
				self = fmt.Sprintf("%11.2f", r.self)
			}
			fmt.Fprintf(w, "    %-24s %7d %11.2f %10.3f %6.1f%% %s\n", prefix+n, len(r.durs), sum, median(r.durs), 100*sum/total, self)
		}
	}
	rows("", calls)
	rows("stage ", stages)
}

// writeFile writes every span and stage child as JSON.
func (t *tracer) writeFile(path string) error {
	doc, err := json.Marshal(struct {
		Spans  []span       `json:"spans"`
		Stages []stageChild `json:"stages"`
	}{t.spans, t.stages})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
