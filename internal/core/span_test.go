package core

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runSpans runs one warm + measure window with span tracing attached for
// the measurement phase and returns the recorder and results.
func runSpans(t *testing.T, cfg config.Config) (*obs.SpanRecorder, Results) {
	t.Helper()
	prof, ok := trace.ProfileByName("mgrid", cfg.NumCPUs)
	if !ok {
		t.Fatal("profile missing")
	}
	s, err := NewSystem(cfg, prof, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Attach before warmup so transactions in flight across the stats reset
	// carry spans; ResetStats resets the recorder too, so the traced set is
	// exactly the set the measured means cover.
	rec := s.AttachSpans()
	s.Warm(11)
	s.Start()
	s.Run(5_000)
	s.ResetStats()
	s.Run(30_000)
	return rec, s.Results()
}

// TestSpanConservation is the breakdown's core guarantee: for every traced
// transaction — hits, misses, and NACK/retry paths alike, in all four
// schemes plus the victim-replication and broadcast-search variants — the
// component spans are mutually exclusive and collectively exhaustive, so
// their sum equals the end-to-end latency the system measures. The recorder
// checks each transaction as it finishes; here we assert zero violations
// and that the aggregate means re-add to the measured means.
func TestSpanConservation(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() config.Config
	}{
		{"CMP-DNUCA", func() config.Config { return config.Default(config.CMPDNUCA) }},
		{"CMP-DNUCA-2D", func() config.Config { return config.Default(config.CMPDNUCA2D) }},
		{"CMP-SNUCA-3D", func() config.Config { return config.Default(config.CMPSNUCA3D) }},
		{"CMP-DNUCA-3D", func() config.Config { return config.Default(config.CMPDNUCA3D) }},
		{"CMP-SNUCA-3D+VR", func() config.Config {
			c := config.Default(config.CMPSNUCA3D)
			c.VictimReplication = true
			return c
		}},
		{"CMP-DNUCA-3D+broadcast", func() config.Config {
			c := config.Default(config.CMPDNUCA3D)
			c.BroadcastSearch = true
			return c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec, r := runSpans(t, tc.cfg())
			if n, first := rec.Mismatches(); n != 0 {
				t.Fatalf("%d conservation violations; first: %s", n, first)
			}
			if rec.Finished() == 0 {
				t.Fatal("no transactions traced")
			}
			bd := r.Breakdown
			if bd == nil {
				t.Fatal("Results.Breakdown not populated")
			}
			if bd.Hits.Transactions == 0 || bd.Misses.Transactions == 0 {
				t.Fatalf("want both hits and misses traced, got %d hits %d misses",
					bd.Hits.Transactions, bd.Misses.Transactions)
			}
			// The per-class component means must re-add to the measured
			// end-to-end means (the aggregate face of per-txn conservation).
			check := func(class string, cb obs.ClassBreakdown, measured float64) {
				var sum float64
				for _, c := range cb.Components {
					if c.Name == "l1" {
						continue // pre-issue, excluded by design
					}
					sum += c.Mean
				}
				if math.Abs(sum-cb.MeanTotal) > 1e-6 {
					t.Errorf("%s: component means sum to %.6f, class mean %.6f",
						class, sum, cb.MeanTotal)
				}
				if math.Abs(cb.MeanTotal-measured) > 1e-6 {
					t.Errorf("%s: breakdown mean %.6f != measured mean %.6f",
						class, cb.MeanTotal, measured)
				}
			}
			check("hits", bd.Hits, r.AvgL2HitLatency)
			check("misses", bd.Misses, r.AvgL2MissLatency)
		})
	}
}

// TestSpanRetryPathsCovered pins that the conservation suite actually
// exercises the NACK/retry machinery it claims to cover: under migration
// the baseline's location-map retries and the dynamic schemes' phase-2
// searches must occur in the measurement window.
func TestSpanRetryPathsCovered(t *testing.T) {
	rec, r := runSpans(t, config.Default(config.CMPDNUCA3D))
	if n, first := rec.Mismatches(); n != 0 {
		t.Fatalf("%d conservation violations; first: %s", n, first)
	}
	if r.Step2Searches == 0 {
		t.Error("no phase-2 searches in window; retry coverage not exercised")
	}
	comp := func(cb obs.ClassBreakdown, name string) float64 {
		for _, c := range cb.Components {
			if c.Name == name {
				return c.Mean
			}
		}
		t.Fatalf("component %q missing", name)
		return 0
	}
	if comp(r.Breakdown.Hits, "search1") == 0 && comp(r.Breakdown.Misses, "search1") == 0 {
		t.Error("search1 component empty despite two-step searching")
	}
	if comp(r.Breakdown.Misses, "dram") == 0 {
		t.Error("dram component empty for misses")
	}
}
