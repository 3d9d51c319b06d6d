package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
	"roadpart/internal/temporal"
)

// density-stream: one roadpartd holding an S-tier ASG k=8 distributed
// tracker. An open loop sends an ordered sequence on one writer
// connection, each operation at its due time (or as soon as the previous
// one returns when the writer is late): mostly single-region sparse
// deltas, some scattered deltas, some updates above the 0.25 drift
// threshold, a few no-op repeats, and every few ticks a /v1/partition read
// of the current state (the first read after a step misses, repeats hit).
// One /v1/watch subscriber receives the events. Latencies count from the
// due time; an event's lag must stay within the tick interval.
//
// The run is a series of segments, each a fresh city: the segment's seed
// frame replaces the stream (untimed), then its ticks run. Several cities
// per run keep one city's cost from deciding the run's figures.

const (
	streamTick    = 100 * time.Millisecond
	streamK       = 8
	streamDrainTo = 5 * time.Second
	// setupSeed draws the set-up city instead of the run's seed, so every
	// set-up of every run does the same work.
	setupSeed = 0
)

// streamBlock is the composition of every segment's 12 ops, shuffled by
// the seed (segmentKinds): 2 reads, 7 single-region deltas, 1 scattered
// delta, 1 update above the drift threshold and 1 no-op repeat. With
// single-region deltas the majority, the run's median latency falls inside
// their mode rather than on the edge of a slower one, where it would swing
// with the mix.
const streamBlock = "rrgggggggsdn"

// segmentKinds shuffles streamBlock for one segment. The two reads stay
// adjacent: the second repeats the first as soon as it returns, on the
// state the first missed, and hits. The no-op repeat comes after an
// update it can repeat.
func segmentKinds(rng *gen.RNG) []byte {
	units := []string{"rr"}
	for _, k := range streamBlock {
		if k != 'r' && k != 'n' {
			units = append(units, string(k))
		}
	}
	order := make([]string, 0, len(units)+1)
	for _, i := range rng.Perm(len(units)) {
		order = append(order, units[i])
	}
	first := 0
	if order[0] == "rr" {
		first = 1
	}
	order = slices.Insert(order, first+1+rng.Intn(len(order)-first), "n")
	return []byte(strings.Join(order, ""))
}

// streamOp is one op of a segment.
type streamOp struct {
	kind   byte                 // its letter in streamBlock
	read   *request             // a partition read, or nil for an update
	repeat bool                 // a read sent again as soon as it returns, in the same tick
	update roadnet.DensityDelta // the delta an update sends
	seq    int                  // the event seq an update produces
	want   *server.RepartitionEvent
}

// streamSegment is one city's stream: its seed frame and ticks.
type streamSegment struct {
	net   *roadnet.Network
	g     *graph.Graph
	seed  uint64
	first []byte // the seed frame's body (network + full densities)
	seq   int    // the seed frame's event seq
	want  *server.RepartitionEvent
	ops   []streamOp
	ref   *temporal.Tracker // the reference replay; nil once references() ran
}

// streamInputs is the whole run: the set-up city (its seed frame is
// posted to each fresh daemon) and the timed segments.
type streamInputs struct {
	setup *streamSegment
	segs  []*streamSegment
}

func (sg *streamSegment) trackerConfig(drift float64) temporal.Config {
	return temporal.Config{Scheme: core.ASG, K: streamK, Seed: sg.seed, DriftThreshold: drift}
}

// streamSequence generates every city, seed frame and tick. The serving
// daemon's set-up frame is event 1; the segments' seqs run on from 2, as
// the daemon numbers them.
func streamSequence(o *options, segments, ticks int) (*streamInputs, error) {
	setup, err := newSegment(setupSeed, 1000, 1, 0)
	if err != nil {
		return nil, err
	}
	in := &streamInputs{setup: setup}
	seq := 1
	for s := 0; s < segments; s++ {
		sg, err := newSegment(o.seed, s, seq+1, ticks)
		if err != nil {
			return nil, err
		}
		in.segs = append(in.segs, sg)
		seq = sg.seq
		for _, op := range sg.ops {
			if op.read == nil {
				seq = op.seq
			}
		}
	}
	return in, nil
}

func newSegment(runSeed uint64, index, firstSeq, ticks int) (*streamSegment, error) {
	seed := subSeed(runSeed, 30, uint64(index))
	net, err := tierNet(gen.TierS, seed)
	if err != nil {
		return nil, err
	}
	g, err := roadnet.DualGraph(net)
	if err != nil {
		return nil, err
	}
	sg := &streamSegment{net: net, g: g, seed: seed, seq: firstSeq}
	f := net.Densities()
	sg.first, err = json.Marshal(server.DensitiesRequest{
		Network: net, Scheme: "ASG", Mode: "distributed", K: streamK, Seed: seed, Densities: f,
	})
	if err != nil {
		return nil, err
	}
	// The reference tracker's seed frame also gives the regions the
	// distributed tracker re-splits; a single-region delta stays in one.
	if sg.ref, err = temporal.NewTracker(net, temporal.ModeDistributed, sg.trackerConfig(-1)); err != nil {
		return nil, err
	}
	fr, err := sg.ref.Step(context.Background(), f)
	if err != nil {
		return nil, err
	}
	sg.want = eventOf(sg.ref, sg.seq, fr)
	rng := gen.NewRNG(subSeed(runSeed, 31, uint64(index)))
	n := len(f)
	var last roadnet.DensityDelta
	seq := firstSeq
	for _, kind := range segmentKinds(rng)[:ticks] {
		if kind == 'r' && len(sg.ops) > 0 && sg.ops[len(sg.ops)-1].kind == 'r' {
			sg.ops = append(sg.ops, streamOp{kind: kind, read: sg.ops[len(sg.ops)-1].read, repeat: true})
			continue
		}
		if kind == 'r' {
			doc := net.Clone()
			if err := doc.SetDensities(f); err != nil {
				return nil, err
			}
			state, err := json.Marshal(doc)
			if err != nil {
				return nil, err
			}
			read, err := partitionReq("read", state, streamK, "ASG", seed, "")
			if err != nil {
				return nil, err
			}
			sg.ops = append(sg.ops, streamOp{kind: kind, read: read})
			continue
		}
		var d roadnet.DensityDelta
		switch {
		case kind == 'n': // no-op repeat: the densities are already current
			d = last
		case kind == 'd': // above the drift threshold: 30% of all segments
			for _, s := range rng.Perm(n)[:n*3/10] {
				d = append(d, roadnet.DensityUpdate{Segment: s, Density: f[s] * (0.5 + rng.Float64())})
			}
		case kind == 's': // scattered
			for _, s := range rng.Perm(n)[:8+rng.Intn(16)] {
				d = append(d, roadnet.DensityUpdate{Segment: s, Density: f[s] + 0.03*rng.Float64()})
			}
		default: // one region: a breadth-first patch around a random segment
			bump := 0.01 + 0.05*rng.Float64()
			for _, s := range patch(g, fr.Assign, rng.Intn(n), 8+rng.Intn(16)) {
				d = append(d, roadnet.DensityUpdate{Segment: s, Density: f[s] + bump})
			}
		}
		for _, u := range d {
			f[u.Segment] = u.Density
		}
		last = d
		seq++
		sg.ops = append(sg.ops, streamOp{kind: kind, update: d, seq: seq})
	}
	return sg, nil
}

// patch returns up to size segments of start's region reachable from it
// inside the region, breadth first.
func patch(g *graph.Graph, region []int, start, size int) []int {
	seen := map[int]bool{start: true}
	out := []int{start}
	for i := 0; i < len(out) && len(out) < size; i++ {
		for _, e := range g.Neighbors(out[i]) {
			if !seen[e.To] && region[e.To] == region[start] && len(out) < size {
				seen[e.To] = true
				out = append(out, e.To)
			}
		}
	}
	return out
}

// references continues every city's reference tracker (incremental reuse
// disabled, bit-identical to the daemon's by the tracker's contract) past
// the seed frame newSegment stepped, and computes every read's reference
// answer.
func (in *streamInputs) references() error {
	var reads []*request
	for _, sg := range append([]*streamSegment{in.setup}, in.segs...) {
		for i := range sg.ops {
			op := &sg.ops[i]
			if op.read != nil {
				if !op.repeat {
					reads = append(reads, op.read)
				}
				continue
			}
			fr, err := sg.ref.ApplyDelta(context.Background(), op.update)
			if err != nil {
				return err
			}
			op.want = eventOf(sg.ref, op.seq, fr)
		}
		sg.ref = nil
	}
	return references(reads)
}

func eventOf(tr *temporal.Tracker, seq int, fr temporal.Frame) *server.RepartitionEvent {
	s, d := tr.Fingerprints()
	return &server.RepartitionEvent{Seq: seq, Structure: fmt.Sprintf("%016x", s), Density: fmt.Sprintf("%016x", d), Frame: fr}
}

// checkEvent compares a repartition event body with the reference event
// and validates its partition on the city's dual graph g.
func checkEvent(body []byte, want *server.RepartitionEvent, g *graph.Graph) (*server.RepartitionEvent, error) {
	var got server.RepartitionEvent
	if err := json.Unmarshal(bytes.TrimSuffix(body, []byte("\n")), &got); err != nil {
		return nil, fmt.Errorf("decoding event: %w", err)
	}
	if err := sameFrame(&got, want); err != nil {
		return nil, err
	}
	if err := metrics.ValidatePartition(g, got.Frame.Assign); err != nil {
		return nil, fmt.Errorf("invalid partition: %w", err)
	}
	return &got, nil
}

// sameFrame compares everything but the wall-clock and path fields.
func sameFrame(got, want *server.RepartitionEvent) error {
	a, b := &got.Frame, &want.Frame
	sameARI := a.ARIvsPrev == b.ARIvsPrev || (math.IsNaN(a.ARIvsPrev) && math.IsNaN(b.ARIvsPrev))
	switch {
	case got.Seq != want.Seq:
		return fmt.Errorf("seq = %d, reference %d", got.Seq, want.Seq)
	case got.Structure != want.Structure || got.Density != want.Density:
		return fmt.Errorf("seq %d: fingerprints %s/%s, reference %s/%s", want.Seq, got.Structure, got.Density, want.Structure, want.Density)
	case a.Snapshot != b.Snapshot || a.K != b.K || a.Report != b.Report:
		return fmt.Errorf("seq %d: frame k=%d report=%+v, reference k=%d report=%+v", want.Seq, a.K, a.Report, b.K, b.Report)
	case !sameARI:
		return fmt.Errorf("seq %d: ari_vs_prev = %v, reference %v", want.Seq, a.ARIvsPrev, b.ARIvsPrev)
	case !slices.Equal(a.Assign, b.Assign):
		return fmt.Errorf("seq %d: assign differs from the reference", want.Seq)
	}
	return nil
}

// watcher is the /v1/watch subscriber: it records every event's bytes and
// receipt time by seq.
type watcher struct {
	mu       sync.Mutex
	received map[int]watched
	done     chan struct{}
	err      error
}

type watched struct {
	at   time.Time
	body []byte
}

// watch subscribes; the returned watcher's goroutine ends when ctx is
// cancelled or the stream breaks, closing done.
func watch(ctx context.Context, c *http.Client, base string) (*watcher, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/watch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &watcher{received: make(map[int]watched), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		rd := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				if ctx.Err() == nil {
					w.err = err
				}
				return
			}
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			at := time.Now()
			data = bytes.TrimSuffix(data, []byte("\n"))
			var head struct{ Seq int }
			if err := json.Unmarshal(data, &head); err != nil {
				w.err = fmt.Errorf("watch event: %w", err)
				return
			}
			w.mu.Lock()
			w.received[head.Seq] = watched{at: at, body: data}
			w.mu.Unlock()
		}
	}()
	return w, nil
}

// await waits until the event for seq arrives or the deadline passes.
func (w *watcher) await(seq int, until time.Time) (watched, bool) {
	for {
		w.mu.Lock()
		e, ok := w.received[seq]
		w.mu.Unlock()
		if ok || time.Now().After(until) {
			return e, ok
		}
		time.Sleep(time.Millisecond)
	}
}

// postSeed posts a city's seed frame and checks the event it returns.
func postSeed(ctx context.Context, o *options, c *http.Client, d *daemon, sg *streamSegment, ops *ledger) error {
	rep, err := exchange(ctx, c, http.MethodPost, d.url+"/v1/densities", payload{sg.first})
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		ops.fail("seed frame %d: %v", sg.seq, statusErr(rep))
		return nil
	}
	_, err = checkEvent(o.tampered(rep.body), sg.want, sg.g)
	ops.record(err, fmt.Sprintf("seed frame %d", sg.seq))
	return nil
}

// streamRun collects the open loop's measurements.
type streamRun struct {
	lat     *samples
	paths   map[string]int
	replies [][]*reply // per segment, per tick; nil when the tick failed
	hits    int
	active  time.Duration // summed from each segment's first due time to its last reply
}

// runSegment drives one segment's ticks on the open loop.
func runSegment(ctx context.Context, o *options, c *http.Client, d *daemon, sg *streamSegment, w *watcher, ops *ledger, run *streamRun) error {
	replies := make([]*reply, len(sg.ops))
	run.replies = append(run.replies, replies)
	dues := make([]time.Time, len(sg.ops))
	var missState, missBody []byte // the last read that missed: its network and answer
	t0 := time.Now().Add(streamTick)
	end := t0
	defer func() { run.active += end.Sub(t0) }()
	tick := 0
	for i, op := range sg.ops {
		if op.repeat {
			dues[i] = time.Now() // due as soon as the read it repeats returns
		} else {
			dues[i] = t0.Add(time.Duration(tick) * streamTick)
			tick++
		}
		if wait := time.Until(dues[i]); wait > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		run.lat.add("late", time.Since(dues[i]))
		var rep *reply
		var err error
		if op.read != nil {
			rep, err = exchange(ctx, c, http.MethodPost, d.url+"/v1/partition", op.read.body)
		} else {
			var body []byte
			if body, err = json.Marshal(server.DensitiesRequest{Updates: op.update}); err == nil {
				rep, err = exchange(ctx, c, http.MethodPost, d.url+"/v1/densities", payload{body})
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ops.fail("seq %d tick %d: %v", sg.seq, i, err)
			continue
		}
		if rep.status != http.StatusOK {
			ops.fail("seq %d tick %d: %v", sg.seq, i, statusErr(rep))
			continue
		}
		replies[i] = rep
		end = rep.end
		run.lat.add("all", rep.end.Sub(dues[i]))
		body := o.tampered(rep.body)
		if op.read != nil {
			if rep.header.Get(server.CacheHeader) == "hit" {
				run.hits++
				run.lat.add("hit", rep.end.Sub(dues[i]))
				run.lat.add("service read-hit", rep.end.Sub(rep.start))
				// A hit replays the bytes of the last read that missed,
				// when that read asked for the same state.
				if bytes.Equal(missState, op.read.body[1]) && !bytes.Equal(missBody, body) {
					ops.fail("seq %d tick %d: hit body differs from the bytes its miss returned", sg.seq, i)
					continue
				}
			} else {
				missState, missBody = op.read.body[1], body
				run.lat.add("miss", rep.end.Sub(dues[i]))
				run.lat.add("service read-miss", rep.end.Sub(rep.start))
			}
			ops.record(op.read.check(body), fmt.Sprintf("seq %d tick %d (read)", sg.seq, i))
			continue
		}
		run.lat.add("kind "+string(op.kind), rep.end.Sub(dues[i]))
		run.lat.add("densities", rep.end.Sub(rep.start))
		run.lat.add("service update-"+string(op.kind), rep.end.Sub(rep.start))
		ev, err := checkEvent(body, op.want, sg.g)
		if err != nil {
			ops.fail("tick %d (update): %v", i, err)
			continue
		}
		run.paths[ev.Frame.Path]++
		ops.ok()
	}

	// Collect the segment's events: each must repeat its POST reply byte
	// for byte and arrive within one tick of its due time.
	until := time.Now().Add(streamDrainTo)
	for i, op := range sg.ops {
		if op.read != nil || replies[i] == nil {
			continue
		}
		ev, ok := w.await(op.seq, until)
		if !ok {
			ops.late()
			ops.note("no watch event for seq %d", op.seq)
			continue
		}
		if !bytes.Equal(ev.body, bytes.TrimSuffix(o.tampered(replies[i].body), []byte("\n"))) {
			ops.fail("watch event seq %d differs from the POST reply", op.seq)
			continue
		}
		lag := ev.at.Sub(dues[i])
		run.lat.add("event-lag", lag)
		run.lat.add("fanout", ev.at.Sub(replies[i].end))
		if lag > streamTick {
			ops.late()
		}
	}
	return nil
}

func runStream(ctx context.Context, o *options) (*outcome, error) {
	ctx, cancel := deadline(ctx)
	defer cancel()
	// The stream idles between ticks, so it takes 1.5x the nominal length
	// for as many cities, and as much of the host's drift, as it can
	// average over.
	ticks := len(streamBlock)
	segments := int(math.Ceil(1.5 * o.seconds * float64(time.Second) / float64(streamTick) / float64(ticks)))
	if o.tiny {
		segments, ticks = 2, 8
	}
	in, err := streamSequence(o, segments, ticks)
	if err != nil {
		return nil, err
	}
	if err := in.references(); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	ops := &ledger{}

	// Set-up: daemon start, healthz and the set-up city's seed frame. The
	// first set-up's daemon serves the segments. Before each segment, while
	// it idles, a probe daemon repeats the set-up and stops, so the
	// set-ups spread over the run as the timed ops do.
	var setupS []float64
	setup := func(name string) (*daemon, error) {
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := startDaemon(o, name, ports[0])
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(ctx, c); err != nil {
			d.stop()
			return nil, err
		}
		if err := postSeed(ctx, o, c, d, in.setup, ops); err != nil {
			d.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		return d, nil
	}
	d, err := setup("stream")
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	scrape := func(family string, want ...string) (float64, error) {
		return counters(ctx, c, []*daemon{d}, family, want...)
	}
	dropped0, err := scrape("roadpart_watch_events_dropped_total")
	if err != nil {
		return nil, err
	}
	inval0, err := scrape(resultcache.EventsFamily, `result="invalidate"`)
	if err != nil {
		return nil, err
	}
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	wc := newClient()
	defer wc.CloseIdleConnections()
	w, err := watch(wctx, wc, d.url)
	if err != nil {
		return nil, err
	}

	run := &streamRun{lat: newSamples(), paths: make(map[string]int)}
	for _, sg := range in.segs {
		probe, err := setup("stream-setup")
		if err != nil {
			return nil, err
		}
		probe.stop()
		if err := postSeed(ctx, o, c, d, sg, ops); err != nil {
			return nil, err
		}
		if err := runSegment(ctx, o, c, d, sg, w, ops, run); err != nil {
			return nil, err
		}
	}
	stopWatch()
	<-w.done
	if w.err != nil {
		ops.note("watch stream ended early: %v", w.err)
	}

	dropped1, err := scrape("roadpart_watch_events_dropped_total")
	if err != nil {
		return nil, err
	}
	inval1, err := scrape(resultcache.EventsFamily, `result="invalidate"`)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil

	lat := run.lat
	all := lat.get("all")
	var updates, reads int
	var ansSum float64
	for _, sg := range in.segs {
		ansSum += sg.want.Frame.Report.ANS
		for _, op := range sg.ops {
			if op.read != nil {
				reads++
				ansSum += op.read.ans()
			} else {
				updates++
				ansSum += op.want.Frame.Report.ANS
			}
		}
	}
	ops.note("%s", setupNote(setupS))
	m := map[string]float64{
		"setup_s":                 median(setupS),
		"throughput_rps":          float64(len(all)) / run.active.Seconds(),
		"peak_rss_mb":             rss,
		"ans_mean":                ansSum / float64(len(in.segs)+updates+reads),
		"hit_p50_ms":              median(lat.get("hit")),
		"event_lag_p50_ms":        median(lat.get("event-lag")),
		"server.densities_ms":     median(lat.get("densities")),
		"server.watch_fanout_ms":  median(lat.get("fanout")),
		"server.watch_dropped":    dropped1 - dropped0,
		"resultcache.invalidated": inval1 - inval0,
		"resultcache.hit_ratio":   ratio(int64(run.hits), reads),
		"loadgen.late_ms":         mean(lat.get("late")),
	}
	for _, p := range []string{temporal.PathDelta, temporal.PathFull, temporal.PathReused} {
		m["temporal."+p+"_ratio"] = ratio(int64(run.paths[p]), updates)
	}
	// The op kinds differ a hundredfold in cost (a hit or a no-op repeat
	// replays, a read miss recomputes) and single-region deltas spread
	// widely with region size, so a pooled median would sit on the slope
	// of one kind; as in cold-compute, latency_p50_ms weighs each kind's
	// median equally. Reads split by the cache's answer: they are half hits,
	// so their own median would fall between the two modes.
	byKind := [][]float64{lat.get("miss"), lat.get("hit")}
	for _, kind := range "gsdn" {
		byKind = append(byKind, lat.get("kind "+string(kind)))
	}
	m["latency_p50_ms"] = geoMeanOfMedians(byKind...)
	var note string
	m["latency_tail_ms"], note = tail(all)
	ops.note("latency_tail_ms is the %s", note)
	m["event_lag_tail_ms"], note = tail(lat.get("event-lag"))
	ops.note("event_lag_tail_ms is the %s; latency limit %v", note, streamTick)
	for _, kind := range []string{"read-hit", "read-miss", "update-g", "update-s", "update-d", "update-n"} {
		xs := lat.get("service " + kind)
		v, note := tail(xs)
		ops.note("service time %-9s n=%3d p50=%6.1f ms, tail %6.1f ms (%s)", kind, len(xs), median(xs), v, note)
	}

	out := &outcome{ops: ops, metrics: m}
	if o.trace {
		t, err := in.replay(ctx, run.replies, ops)
		if err != nil {
			return nil, err
		}
		t.fill(m)
		var plain float64
		for _, rs := range run.replies {
			for _, r := range rs {
				if r != nil {
					plain += ms(r.end.Sub(r.start))
				}
			}
		}
		m["trace.overhead"] = t.rootTotal() / plain
		out.spans = t
	}
	return out, nil
}

// replay traces the stream in-process: each segment's tracker steps (at
// the daemon's default drift threshold) and the reads, as misses or hits
// per the daemon's answer.
func (in *streamInputs) replay(ctx context.Context, replies [][]*reply, ops *ledger) (*tracer, error) {
	t := newTracer()
	id := 0
	for s, sg := range in.segs {
		tr, err := temporal.NewTracker(sg.net, temporal.ModeDistributed, sg.trackerConfig(0))
		if err != nil {
			return nil, err
		}
		if _, err := tr.Step(ctx, sg.net.Densities()); err != nil {
			return nil, err
		}
		for i, op := range sg.ops {
			id++
			rep := replies[s][i]
			if rep == nil {
				continue
			}
			what := fmt.Sprintf("traced seq %d tick %d", sg.seq, i)
			if op.read != nil {
				if rep.header.Get(server.CacheHeader) == "hit" {
					ops.record(t.replayHit(id, false, op.read.body.bytes(), rep.body), what)
				} else {
					ops.record(op.read.replay(ctx, t, id), what)
				}
				continue
			}
			root := t.root(id)
			var fr temporal.Frame
			_, err := t.parent("temporal.step", id, root, func() (err error) {
				fr, err = tr.ApplyDelta(ctx, op.update)
				return err
			})
			t.finish(root)
			if err == nil {
				err = sameFrame(eventOf(tr, op.seq, fr), op.want)
			}
			ops.record(err, what)
		}
	}
	return t, nil
}
