package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"roadpart/internal/gen"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
	"roadpart/internal/traffic"
)

// Inputs are pure functions of the workload seed: gen.ScaleTier cities
// with traffic.SyntheticField densities, serialized once and spliced into
// request documents, so many requests can share one large network body.

// subSeed derives an independent seed for one input from the workload
// seed (SplitMix64 finalizer).
func subSeed(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// tierFor shrinks every tier to S in tiny runs.
func tierFor(o *options, t gen.Tier) gen.Tier {
	if o.tiny {
		return gen.TierS
	}
	return t
}

// tierNet generates one city with a synthetic density field.
func tierNet(t gen.Tier, seed uint64) (*roadnet.Network, error) {
	net, err := gen.ScaleTier(t, seed)
	if err != nil {
		return nil, err
	}
	f, err := traffic.SyntheticField(net, traffic.FieldConfig{Seed: seed ^ 0xf1e1d})
	if err != nil {
		return nil, err
	}
	return net, net.SetDensities(f)
}

// netJSON generates one city and serializes it; only the bytes are kept.
func netJSON(t gen.Tier, seed uint64) ([]byte, error) {
	net, err := tierNet(t, seed)
	if err != nil {
		return nil, err
	}
	return json.Marshal(net)
}

// splice serializes doc (whose Network field must be nil, and first) and
// splices the pre-serialized network in.
func splice(net []byte, doc any) (payload, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	const head = `{"network":null`
	if !bytes.HasPrefix(b, []byte(head)) {
		return nil, fmt.Errorf("request document does not start with its network: %.40s", b)
	}
	return payload{[]byte(`{"network":`), net, b[len(head):]}, nil
}

func partitionDoc(net []byte, k int, scheme string, seed uint64, multilevel string) (payload, error) {
	return splice(net, server.PartitionRequest{K: k, Scheme: scheme, Seed: seed, Multilevel: multilevel})
}

func sweepDoc(net []byte, kMin, kMax int, scheme string, seed uint64) (payload, error) {
	return splice(net, server.SweepRequest{KMin: kMin, KMax: kMax, Scheme: scheme, Seed: seed})
}

// jobDoc wraps a partition document as a /v1/jobs submission.
func jobDoc(part payload) payload {
	out := payload{[]byte(`{"op":"partition","partition":`)}
	out = append(out, part...)
	return append(out, []byte(`}`))
}

// request is one keyed partition or sweep document with its reference
// answer.
type request struct {
	class string // metric class: ag_s, asg_s, ag_m, asg_m, ag_l, sweep, job, or a pool tier
	sweep bool
	body  payload // the partition or sweep document (for a job, the inner document)
	// withK rebuilds an ASG partition document at a lower k, for when the
	// network mines to fewer supernodes than the drawn k.
	withK func(k int) (payload, error)
	part  *partAnswer
	swp   *sweepAnswer
}

// partitionReq builds a partition request.
func partitionReq(class string, n []byte, k int, scheme string, seed uint64, multilevel string) (*request, error) {
	doc := func(k int) (payload, error) { return partitionDoc(n, k, scheme, seed, multilevel) }
	body, err := doc(k)
	if err != nil {
		return nil, err
	}
	r := &request{class: class, body: body}
	if scheme == "ASG" {
		r.withK = doc
	}
	return r, nil
}

// reference computes the expected answer from the request bytes. An ASG
// document whose k exceeds the supernode count is first rewritten with k
// at that count, so no request sent is one the daemon must reject.
func (r *request) reference() (err error) {
	if r.sweep {
		r.swp, err = refSweep(r.body.bytes())
		return err
	}
	r.part, err = refPartition(r.body.bytes())
	var few tooFewSupernodes
	if errors.As(err, &few) && r.withK != nil {
		if r.body, err = r.withK(few.n); err != nil {
			return err
		}
		r.part, err = refPartition(r.body.bytes())
	}
	return err
}

// check compares a 200 response body with the reference.
func (r *request) check(body []byte) error {
	if r.sweep {
		return checkSweep(body, r.swp)
	}
	return checkPartition(body, r.part)
}

func (r *request) ans() float64 {
	if r.sweep {
		return r.swp.ans()
	}
	return r.part.ans()
}

// replay traces the request in-process and checks the traced answer.
func (r *request) replay(ctx context.Context, t *tracer, id int) error {
	if r.sweep {
		return t.replaySweep(ctx, id, r.body.bytes(), r.swp)
	}
	return t.replayPartition(ctx, id, r.body.bytes(), r.part)
}

// references computes every request's reference answer on two
// goroutines (the host's CPU count) before any timed phase.
func references(reqs []*request) error {
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = reqs[i].reference()
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference for request %d (%s): %w", i, reqs[i].class, err)
		}
	}
	return nil
}
