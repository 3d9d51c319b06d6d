package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadpart/internal/gen"
	"roadpart/internal/peers"
	"roadpart/internal/server"
)

// hot-sharded: three roadpartd shards with peer routing and the default
// result cache. Set-up warms a fixed key pool (partitions and sweeps, AG
// and ASG, several k; mostly S-tier bodies plus two M-tier ones, so
// request size varies 10x); the timed phase sends pool requests in
// seed-shuffled order, each key to each entry shard equally often, from
// two closed-loop clients. Every timed request is a cache hit and two
// thirds cross a peer hop: the cost is decode + fingerprint + hop +
// replay, with no compute.

const (
	hotShards     = 3
	hotClients    = 2
	hotSNets      = 12   // S-tier networks in the pool, an AG and an ASG key each
	hotSetups     = 3    // set-up repetitions; setup_s is their median
	hotRate       = 32.0 // nominal requests per second, sizing the timed phase
	hotMediumMass = 0.3  // share of timed requests drawn from M-tier keys
)

// hotPool builds the warmed key pool.
func hotPool(o *options) ([]*request, error) {
	var pool []*request
	nS := hotSNets
	if o.tiny {
		nS = 1
	}
	for i := 0; i < nS; i++ {
		n, err := netJSON(gen.TierS, subSeed(o.seed, 1, uint64(i)))
		if err != nil {
			return nil, err
		}
		for j, scheme := range []string{"AG", "ASG"} {
			k := 4 + 4*((i+j)%2)
			r, err := partitionReq("S", n, k, scheme, subSeed(o.seed, 2, uint64(i), uint64(j)), "")
			if err != nil {
				return nil, err
			}
			pool = append(pool, r)
		}
		if i < 2 {
			body, err := sweepDoc(n, 2, 10, []string{"ASG", "AG"}[i], subSeed(o.seed, 3, uint64(i)))
			if err != nil {
				return nil, err
			}
			pool = append(pool, &request{class: "S", sweep: true, body: body})
		}
	}
	for i, scheme := range []string{"AG", "ASG"} {
		m, err := netJSON(tierFor(o, gen.TierM), subSeed(o.seed, 4, uint64(i)))
		if err != nil {
			return nil, err
		}
		r, err := partitionReq("M", m, 6, scheme, subSeed(o.seed, 5, uint64(i)), "")
		if err != nil {
			return nil, err
		}
		pool = append(pool, r)
	}
	return pool, nil
}

// hotDraws returns the timed phase's (pool index, entry shard) sequence:
// a share hotMediumMass of M-tier keys, every key sent to every shard
// equally often (so exactly two thirds of the requests cross a hop,
// whichever shard owns each key), in seed-shuffled order.
func hotDraws(o *options, pool []*request, n int) [][2]int {
	var sKeys, mKeys []int
	for i, r := range pool {
		if r.class == "M" {
			mKeys = append(mKeys, i)
		} else {
			sKeys = append(sKeys, i)
		}
	}
	nM := int(math.Round(hotMediumMass * float64(n)))
	draws := make([][2]int, 0, n)
	for j := 0; j < n; j++ {
		keys, c := sKeys, j-nM
		if j < nM {
			keys, c = mKeys, j
		}
		c %= len(keys) * hotShards
		draws = append(draws, [2]int{keys[c/hotShards], c % hotShards})
	}
	shuffled := make([][2]int, n)
	for i, p := range gen.NewRNG(subSeed(o.seed, 6)).Perm(n) {
		shuffled[i] = draws[p]
	}
	return shuffled
}

// startCluster starts the shards, each knowing the full membership.
func startCluster(ctx context.Context, o *options, c *http.Client, n int) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	var ds []*daemon
	for i, p := range ports {
		d, err := startDaemon(o, fmt.Sprintf("shard%d", i), p, "-self", urls[i], "-peers", strings.Join(urls, ","))
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.waitReady(ctx, c); err != nil {
			stopAll(ds)
			return nil, err
		}
	}
	return ds, nil
}

// closedLoop runs ops 0..n-1 on `clients` goroutines, each starting its
// next op when the previous one returns, and reports the wall time.
func closedLoop(ctx context.Context, n, clients int, op func(ctx context.Context, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(ctx, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// path is the HTTP route of a keyed request.
func (r *request) path() string {
	if r.sweep {
		return "/v1/sweep"
	}
	return "/v1/partition"
}

func runHot(ctx context.Context, o *options) (*outcome, error) {
	ctx, cancel := deadline(ctx)
	defer cancel()
	pool, err := hotPool(o)
	if err != nil {
		return nil, err
	}
	if err := references(pool); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	ops := &ledger{}
	setups := hotSetups
	if o.tiny {
		setups = 2
	}

	// Set-up, repeated: start the shards and warm the pool through
	// round-robin entry shards. The last repetition's cluster serves the
	// timed phase; its warm bodies are what every later hit must replay.
	var cluster []*daemon
	defer func() { stopAll(cluster) }()
	var setupS []float64
	warm := make([][]byte, len(pool))
	for round := 0; round < setups; round++ {
		stopAll(cluster)
		start := time.Now()
		if cluster, err = startCluster(ctx, o, c, hotShards); err != nil {
			return nil, err
		}
		closedLoop(ctx, len(pool), hotClients, func(ctx context.Context, i int) {
			r := pool[i]
			d := cluster[(i+round)%hotShards]
			rep, err := exchange(ctx, c, http.MethodPost, d.url+r.path(), r.body)
			if err != nil {
				ops.fail("warm %d: %v", i, err)
				return
			}
			if rep.status != http.StatusOK {
				ops.fail("warm %d: %v", i, statusErr(rep))
				return
			}
			warm[i] = o.tampered(rep.body)
			ops.record(r.check(warm[i]), fmt.Sprintf("warm %d", i))
		})
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	n := int(math.Round(hotRate * o.seconds))
	if o.tiny {
		n = 24
	}
	draws := hotDraws(o, pool, n)
	peerErr0, err := counters(ctx, c, cluster, peers.EventsFamily, `result="error"`)
	if err != nil {
		return nil, err
	}
	lat := newSamples()
	untraced := make([]float64, n)
	var hits, forwarded atomic.Int64
	wall := closedLoop(ctx, n, hotClients, func(ctx context.Context, i int) {
		r, entry := pool[draws[i][0]], cluster[draws[i][1]]
		rep, err := exchange(ctx, c, http.MethodPost, entry.url+r.path(), r.body)
		if err != nil {
			ops.fail("request %d: %v", i, err)
			return
		}
		if rep.status != http.StatusOK {
			ops.fail("request %d: %v", i, statusErr(rep))
			return
		}
		d := rep.end.Sub(rep.start)
		lat.add("all", d)
		untraced[i] = ms(d)
		body := o.tampered(rep.body)
		remote := rep.header.Get(server.ShardHeader) != entry.url
		if remote {
			forwarded.Add(1)
		}
		switch state := rep.header.Get(server.CacheHeader); state {
		case "hit", "remote-hit":
			hits.Add(1)
			lat.add("hit", d)
			if remote {
				lat.add("hit-forwarded", d)
			} else {
				lat.add("hit-local", d)
			}
			if string(body) != string(warm[draws[i][0]]) {
				ops.fail("request %d: %s body differs from the bytes its miss returned", i, state)
				return
			}
			ops.ok()
		default:
			// An evicted key recomputes: still checked, but not a hit.
			ops.record(r.check(body), fmt.Sprintf("request %d (%s)", i, state))
		}
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	peerErr1, err := counters(ctx, c, cluster, peers.EventsFamily, `result="error"`)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSSum(cluster)
	if err != nil {
		return nil, err
	}
	stopAll(cluster)
	cluster = nil

	all := lat.get("all")
	ops.note("%s", setupNote(setupS))
	m := map[string]float64{
		"setup_s":               median(setupS),
		"throughput_rps":        float64(len(all)) / wall.Seconds(),
		"latency_p50_ms":        median(all),
		"peak_rss_mb":           rss,
		"hit_p50_ms":            median(lat.get("hit")),
		"peers.errors":          peerErr1 - peerErr0,
		"peers.hop_ms":          median(lat.get("hit-forwarded")) - median(lat.get("hit-local")),
		"resultcache.hit_ratio": ratio(hits.Load(), n),
		"peers.forward_ratio":   ratio(forwarded.Load(), n),
	}
	var tailNote string
	m["latency_tail_ms"], tailNote = tail(all)
	ops.note("latency_tail_ms is the %s", tailNote)
	var ansSum float64
	for _, r := range pool {
		ansSum += r.ans()
	}
	m["ans_mean"] = ansSum / float64(len(pool))

	out := &outcome{ops: ops, metrics: m}
	if o.trace {
		// Replay the pool's computes with every layer timed, then the
		// hit path for the timed requests (up to 200 of them).
		t := newTracer()
		for i, r := range pool {
			ops.record(r.replay(ctx, t, i+1), fmt.Sprintf("traced warm %d", i))
		}
		var traced, plain float64
		for i := 0; i < min(n, 200); i++ {
			r := pool[draws[i][0]]
			id := len(pool) + 1 + i
			ops.record(t.replayHit(id, r.sweep, r.body.bytes(), warm[draws[i][0]]), fmt.Sprintf("traced hit %d", i))
			traced += t.reqMs(id)
			plain += untraced[i]
		}
		t.fill(m)
		m["trace.overhead"] = traced / plain
		out.spans = t
	}
	return out, nil
}
