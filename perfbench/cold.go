package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"roadpart/internal/gen"
	"roadpart/internal/server"
)

// cold-compute: one roadpartd with a job journal. A fixed, seed-shuffled
// set of unique requests (a fresh seed for each, so the cache never hits)
// comes from two closed-loop clients. Each request class is dominated by
// one layer: supergraph mining (ASG), the flat spectral cut (AG S/M), the
// multilevel path (AG on the L tier, above the auto threshold) and the job
// queue.

const (
	coldClients  = 2
	coldSetups   = 41  // daemon start-ups; setup_s is their median
	coldRoundSec = 1.7 // nominal wall time of one round, sizing the set
	coldLNets    = 3   // L-tier cities per run
	jobPoll      = 5 * time.Millisecond
)

// coldClasses are the request classes; every round holds one of each.
var coldClasses = []string{"ag_s", "asg_s", "ag_m", "asg_m", "ag_l", "sweep", "job"}

// coldRequests builds the request set: one of each class per round, in
// seed-shuffled order. Every S- and M-tier request carries a fresh city;
// the L-tier requests cycle over coldLNets cities with fresh seeds.
func coldRequests(o *options, rounds int) ([]*request, error) {
	var lNets [][]byte
	for i := 0; i < coldLNets; i++ {
		n, err := netJSON(tierFor(o, gen.TierL), subSeed(o.seed, 22, uint64(i)))
		if err != nil {
			return nil, err
		}
		lNets = append(lNets, n)
	}
	// Tiny runs force the multilevel path on an S-tier network instead.
	lMode := ""
	if o.tiny {
		lMode = "on"
	}
	rng := gen.NewRNG(subSeed(o.seed, 23))
	var reqs []*request
	for r := 0; r < rounds; r++ {
		for ci, class := range coldClasses {
			seed := subSeed(o.seed, 24, uint64(r), uint64(ci))
			k := 6 + 2*rng.Intn(2)
			tier, scheme := gen.TierS, "ASG"
			switch class {
			case "ag_s":
				scheme = "AG"
			case "ag_m":
				tier, scheme = gen.TierM, "AG"
			case "asg_m":
				tier = gen.TierM
			}
			var req *request
			var err error
			if class == "ag_l" {
				req, err = partitionReq(class, lNets[r%coldLNets], k, "AG", seed, lMode)
			} else {
				var n []byte
				if n, err = netJSON(tierFor(o, tier), seed); err != nil {
					return nil, err
				}
				if class == "sweep" {
					req = &request{class: class, sweep: true}
					req.body, err = sweepDoc(n, 2, 12, scheme, seed)
				} else {
					req, err = partitionReq(class, n, k, scheme, seed, "")
				}
			}
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	// Shuffle, then hold each odd L-tier request back until the next one,
	// so that the two clients can run each pair side by side (lPairs).
	shuffled := make([]*request, len(reqs))
	for i, p := range rng.Perm(len(reqs)) {
		shuffled[i] = reqs[p]
	}
	var paired []*request
	var held *request
	for _, r := range shuffled {
		switch {
		case r.class != "ag_l":
			paired = append(paired, r)
		case held == nil:
			held = r
		default:
			paired = append(paired, held, r)
			held = nil
		}
	}
	if held != nil {
		paired = append(paired, held)
	}
	return paired, nil
}

// pairStart starts the two requests of an L-tier pair together: the first
// client to reach one waits for the other, so that the pair's memory peaks
// overlap in every run rather than by chance.
type pairStart struct {
	first int
	ready [2]chan struct{}
}

// lPairs maps each request of an adjacent L-tier pair to its pairStart.
func lPairs(reqs []*request) map[int]*pairStart {
	pairs := make(map[int]*pairStart)
	for i := 0; i+1 < len(reqs); i++ {
		if reqs[i].class == "ag_l" && reqs[i+1].class == "ag_l" {
			p := &pairStart{first: i, ready: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
			pairs[i], pairs[i+1] = p, p
			i++
		}
	}
	return pairs
}

// meet marks request i ready and waits for its partner; false if ctx ends
// first.
func (p *pairStart) meet(ctx context.Context, i int) bool {
	me := i - p.first
	close(p.ready[me])
	select {
	case <-p.ready[1-me]:
		return true
	case <-ctx.Done():
		return false
	}
}

func runCold(ctx context.Context, o *options) (*outcome, error) {
	ctx, cancel := deadline(ctx)
	defer cancel()
	rounds := int(math.Ceil(o.seconds / coldRoundSec))
	if o.tiny {
		rounds = 1
	}
	reqs, err := coldRequests(o, rounds)
	if err != nil {
		return nil, err
	}
	if err := references(reqs); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	ops := &ledger{}

	// Set-up: daemon start to healthz on a fresh job journal. Half the
	// set-ups run before the timed phase, the last of them serving it, and
	// half after it, so that setup_s does not rest on one moment of the
	// host.
	var setupS []float64
	setup := func() (*daemon, error) {
		jobsDir := filepath.Join(o.workDir, "jobs")
		if err := os.RemoveAll(jobsDir); err != nil {
			return nil, err
		}
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := startDaemon(o, "cold", ports[0], "-jobs-dir", jobsDir)
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(ctx, c); err != nil {
			d.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		return d, nil
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < coldSetups/2; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = setup(); err != nil {
			return nil, err
		}
	}

	retries0, err := counters(ctx, c, []*daemon{d}, "roadpart_jobs_retries_total")
	if err != nil {
		return nil, err
	}
	lat := newSamples()
	untraced := make([]float64, len(reqs))
	var hits atomic.Int64
	pairs := lPairs(reqs)
	wall := closedLoop(ctx, len(reqs), coldClients, func(ctx context.Context, i int) {
		if p := pairs[i]; p != nil && !p.meet(ctx, i) {
			return
		}
		r := reqs[i]
		var body []byte
		var start, end time.Time
		if r.class == "job" {
			res, err := runJob(ctx, c, d.url, r.body)
			if err != nil {
				ops.fail("request %d (job): %v", i, err)
				return
			}
			body, start, end = res.body, res.start, res.end
			var doc server.PartitionResponse
			if err := json.Unmarshal(body, &doc); err == nil {
				lat.addMs("job-overhead", ms(end.Sub(start))-doc.Timing.TotalMs)
			}
			lat.addMs("job-polls", float64(res.polls))
		} else {
			rep, err := exchange(ctx, c, http.MethodPost, d.url+r.path(), r.body)
			if err != nil {
				ops.fail("request %d (%s): %v", i, r.class, err)
				return
			}
			if rep.status != http.StatusOK {
				ops.fail("request %d (%s): %v", i, r.class, statusErr(rep))
				return
			}
			if rep.header.Get(server.CacheHeader) == "hit" {
				hits.Add(1)
			}
			body, start, end = rep.body, rep.start, rep.end
		}
		if err := r.check(o.tampered(body)); err != nil {
			ops.fail("request %d (%s): %v", i, r.class, err)
			return
		}
		ops.ok()
		lat.add("all", end.Sub(start))
		lat.add(r.class, end.Sub(start))
		untraced[i] = ms(end.Sub(start))
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	retries1, err := counters(ctx, c, []*daemon{d}, "roadpart_jobs_retries_total")
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	for len(setupS) < coldSetups {
		if d, err = setup(); err != nil {
			return nil, err
		}
		d.stop()
		d = nil
	}

	all := lat.get("all")
	ops.note("%s", setupNote(setupS))
	m := map[string]float64{
		"setup_s":               median(setupS),
		"throughput_rps":        float64(len(all)) / wall.Seconds(),
		"peak_rss_mb":           rss,
		"jobs.retries":          retries1 - retries0,
		"jobs.overhead_ms":      median(lat.get("job-overhead")),
		"jobs.polls":            mean(lat.get("job-polls")),
		"resultcache.hit_ratio": ratio(hits.Load(), len(reqs)),
	}
	var tailNote string
	m["latency_tail_ms"], tailNote = tail(all)
	ops.note("latency_tail_ms is the %s", tailNote)
	// The classes differ tenfold in cost, so a pooled median would sit on
	// a class boundary; latency_p50_ms weighs each class's median equally.
	var byClass [][]float64
	for _, class := range coldClasses {
		xs := lat.get(class)
		byClass = append(byClass, xs)
		m[class+"_p50_ms"] = median(xs)
		ops.note("%s: n=%d p50=%.1f ms", class, len(xs), median(xs))
	}
	m["latency_p50_ms"] = geoMeanOfMedians(byClass...)
	var ansSum, kpSum float64
	var parts int
	for _, r := range reqs {
		ansSum += r.ans()
		if !r.sweep {
			kpSum += float64(r.part.KPrime) / float64(r.part.K)
			parts++
		}
	}
	m["ans_mean"] = ansSum / float64(len(reqs))
	m["cut.kprime_ratio"] = kpSum / float64(parts)

	out := &outcome{ops: ops, metrics: m}
	if o.trace {
		// Replay the first two requests of each class with every layer
		// timed.
		t := newTracer()
		seen := make(map[string]int)
		var traced, plain float64
		for i, r := range reqs {
			if seen[r.class] == 2 || untraced[i] == 0 {
				continue
			}
			seen[r.class]++
			ops.record(r.replay(ctx, t, i+1), fmt.Sprintf("traced request %d (%s)", i, r.class))
			traced += t.reqMs(i + 1)
			plain += untraced[i]
		}
		t.fill(m)
		m["trace.overhead"] = traced / plain
		out.spans = t
	}
	return out, nil
}

// jobResult is one async job from submit to fetched result.
type jobResult struct {
	body       []byte
	start, end time.Time
	polls      int
}

// runJob submits a partition document to /v1/jobs, polls the job until it
// is done and fetches its result body.
func runJob(ctx context.Context, c *http.Client, base string, part payload) (*jobResult, error) {
	sub, err := exchange(ctx, c, http.MethodPost, base+"/v1/jobs", jobDoc(part))
	if err != nil {
		return nil, err
	}
	if sub.status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %v", statusErr(sub))
	}
	loc := sub.header.Get("Location")
	if loc == "" {
		return nil, fmt.Errorf("submit: no Location header")
	}
	res := &jobResult{start: sub.start}
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jobPoll):
		}
		st, err := exchange(ctx, c, http.MethodGet, base+loc, nil)
		if err != nil {
			return nil, err
		}
		res.polls++
		if st.status != http.StatusOK {
			return nil, fmt.Errorf("poll: %v", statusErr(st))
		}
		var doc server.JobStatusResponse
		if err := json.Unmarshal(st.body, &doc); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		switch doc.Job.State {
		case "done":
			got, err := exchange(ctx, c, http.MethodGet, base+loc+"/result", nil)
			if err != nil {
				return nil, err
			}
			if got.status != http.StatusOK {
				return nil, fmt.Errorf("result: %v", statusErr(got))
			}
			res.body, res.end = got.body, got.end
			return res, nil
		case "failed", "cancelled":
			return nil, fmt.Errorf("job %s: %s", doc.Job.State, doc.Job.Error)
		}
	}
}
