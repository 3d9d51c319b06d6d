package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"roadpart/internal/core"
	"roadpart/internal/metrics"
	"roadpart/internal/server"
)

// This file is the output check. Every answer the daemons return is
// compared with a reference computed in-process, outside the timed window,
// from the very request bytes that were sent: partitions with
// core.Partition, sweeps with core.NewPipeline + BestKByANS, the density
// stream with a temporal.Tracker replay (stream.go). Comparisons are
// exact; wall-clock fields (elapsed, timing.*, elapsed_ms) and the
// diagnostic frame.path are never compared.

// partAnswer is the checked content of a PartitionResponse.
type partAnswer struct {
	Assign []int
	K      int
	KPrime int
	Report metrics.Report
	// invalid is metrics.ValidatePartition's verdict on Assign. An answer
	// that passes the comparison has exactly this assignment, so the
	// verdict is taken once, here, instead of keeping every request's
	// dual graph until its response arrives.
	invalid error
}

// tooFewSupernodes reports an ASG request whose k exceeds the supernode
// count its network mines to; the daemon would reject it.
type tooFewSupernodes struct{ k, n int }

func (e tooFewSupernodes) Error() string {
	return fmt.Sprintf("k=%d exceeds %d supernodes", e.k, e.n)
}

// sweepAnswer is the checked content of a SweepResponse.
type sweepAnswer struct {
	BestK  int
	Points []server.SweepPointJSON
}

// decodeStrict decodes a request body exactly as the daemon does.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// baseConfig maps a request's scheme, seed and multilevel fields to the
// core config the daemon derives from them (daemon defaults: multilevel
// auto, default worker count).
func baseConfig(scheme string, seed uint64, multilevel string) (core.Config, error) {
	cfg := core.Config{Seed: seed}
	switch scheme {
	case "", "ASG":
		cfg.Scheme = core.ASG
	case "AG":
		cfg.Scheme = core.AG
	case "NG":
		cfg.Scheme = core.NG
	case "NSG":
		cfg.Scheme = core.NSG
	default:
		return cfg, fmt.Errorf("unknown scheme %q", scheme)
	}
	if multilevel == "" {
		multilevel = "auto"
	}
	var err error
	cfg.Multilevel, err = core.ParseMultilevelMode(multilevel)
	return cfg, err
}

func partitionConfig(req *server.PartitionRequest) (core.Config, error) {
	cfg, err := baseConfig(req.Scheme, req.Seed, req.Multilevel)
	if err != nil {
		return cfg, err
	}
	cfg.K, cfg.StabilityEps, cfg.Refine, cfg.Workers = req.K, req.StabilityEps, req.Refine, req.Workers
	if req.Network == nil {
		return cfg, fmt.Errorf("missing network")
	}
	return cfg, req.Network.Validate()
}

// sweepRange applies the daemon's k-range defaults.
func sweepRange(req *server.SweepRequest) (int, int) {
	kMin, kMax := req.KMin, req.KMax
	if kMin == 0 {
		kMin = 2
	}
	if kMax == 0 {
		kMax = 10
	}
	return kMin, kMax
}

// refPartition computes the expected answer for a partition body with
// core.Partition's two steps, NewPipeline then PartitionK, so that an ASG
// k above the mined supernode count is reported as tooFewSupernodes.
func refPartition(body []byte) (*partAnswer, error) {
	var req server.PartitionRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	cfg, err := partitionConfig(&req)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPipeline(req.Network, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference partition: %w", err)
	}
	if p.SG != nil && cfg.K > len(p.SG.Nodes) {
		return nil, tooFewSupernodes{cfg.K, len(p.SG.Nodes)}
	}
	res, err := p.PartitionK(cfg.K)
	if err != nil {
		return nil, fmt.Errorf("reference partition: %w", err)
	}
	return &partAnswer{Assign: res.Assign, K: res.K, KPrime: res.KPrime, Report: res.Report,
		invalid: metrics.ValidatePartition(p.G, res.Assign)}, nil
}

// refSweep computes the expected answer for a sweep body, clamping the
// range to the supernode count as the daemon does.
func refSweep(body []byte) (*sweepAnswer, error) {
	var req server.SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	cfg, err := baseConfig(req.Scheme, req.Seed, req.Multilevel)
	if err != nil {
		return nil, err
	}
	cfg.Workers = req.Workers
	if req.Network == nil {
		return nil, fmt.Errorf("missing network")
	}
	if err := req.Network.Validate(); err != nil {
		return nil, err
	}
	kMin, kMax := sweepRange(&req)
	p, err := core.NewPipeline(req.Network, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	if p.SG != nil && kMax > len(p.SG.Nodes) {
		kMax = len(p.SG.Nodes)
	}
	best, sweep, err := p.BestKByANS(kMin, kMax)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	return sweepFromCore(best, sweep), nil
}

func sweepFromCore(best int, sweep []core.SweepPoint) *sweepAnswer {
	a := &sweepAnswer{BestK: best}
	for _, pt := range sweep {
		a.Points = append(a.Points, server.SweepPointJSON{K: pt.K, Report: pt.Result.Report})
	}
	return a
}

// ans is the quality figure ans_mean averages: the partition's ANS, or
// the ANS of the sweep's best k.
func (a *partAnswer) ans() float64 { return a.Report.ANS }

func (a *sweepAnswer) ans() float64 {
	for _, p := range a.Points {
		if p.K == a.BestK {
			return p.Report.ANS
		}
	}
	return 0
}

// checkPartition compares a partition response body with the reference;
// the returned assignment must also be valid (C.1/C.2).
func checkPartition(body []byte, want *partAnswer) error {
	var got server.PartitionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if err := want.equal(&partAnswer{Assign: got.Assign, K: got.K, KPrime: got.KPrime, Report: got.Report}); err != nil {
		return err
	}
	if want.invalid != nil {
		return fmt.Errorf("invalid partition: %w", want.invalid)
	}
	return nil
}

// equal reports the first difference between two partition answers.
func (a *partAnswer) equal(b *partAnswer) error {
	switch {
	case a.K != b.K:
		return fmt.Errorf("k = %d, reference %d", b.K, a.K)
	case a.KPrime != b.KPrime:
		return fmt.Errorf("k_prime = %d, reference %d", b.KPrime, a.KPrime)
	case a.Report != b.Report:
		return fmt.Errorf("report = %+v, reference %+v", b.Report, a.Report)
	case !slices.Equal(a.Assign, b.Assign):
		return fmt.Errorf("assign differs from the reference")
	}
	return nil
}

// checkSweep compares a sweep response body with the reference.
func checkSweep(body []byte, want *sweepAnswer) error {
	var got server.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return want.equal(&sweepAnswer{BestK: got.BestK, Points: got.Points})
}

func (a *sweepAnswer) equal(b *sweepAnswer) error {
	if a.BestK != b.BestK {
		return fmt.Errorf("best_k = %d, reference %d", b.BestK, a.BestK)
	}
	if !slices.Equal(a.Points, b.Points) {
		return fmt.Errorf("points differ from the reference")
	}
	return nil
}
