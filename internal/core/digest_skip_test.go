package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/digest"
	"repro/internal/trace"
)

// skipRun measures one window on the scheme's machine (3D schemes on the
// stacked four-layer chip) and returns its Results, one digest of the
// whole machine's final state, and the number of engine steps executed.
//
// Idle stretches need every core stalled and the network empty at once.
// With the default eight cores that almost never happens (the engine steps
// all but a handful of the cycles of an mgrid or art window), so the
// machine runs one core on art, whose DRAM-bound misses leave it idle for
// a tenth or more of the window. The digest is folded once, after the run, through a recorder that is
// never registered with the engine: a registered recorder is a ticker
// without an Idle method, so it would switch skipping off and leave
// nothing to compare. For the same reason no thermal tracker or sampler is
// attached. chunks > 1 splits the window into that many Run calls, as the
// runner's hooked path does. The profiler rides along in every variant (it
// never perturbs state and leaves skipping engaged) to count the steps.
func skipRun(t *testing.T, scheme config.Scheme, skip bool, chunks uint64) (Results, digest.Record, uint64) {
	t.Helper()
	cfg := config.Default(scheme)
	cfg.NumCPUs = 1
	cfg.NumPillars = 1
	if scheme.Is3D() {
		cfg.Layers = 4
		cfg.StackCPUs = true
	}
	prof, ok := trace.ProfileByName("art", cfg.NumCPUs)
	if !ok {
		t.Fatal("profile missing")
	}
	s, err := NewSystem(cfg, prof, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.SetIdleSkip(skip)
	rec := s.AttachProfile()
	s.Warm(11)
	s.Start()
	s.Run(5_000)
	s.ResetStats()
	const window = 30_000
	for done := uint64(0); done < window; {
		n := min(window/chunks, window-done)
		s.Run(n)
		done += n
	}
	steps := rec.Report().Steps
	res := s.Results()
	res.Profile = nil

	d := digest.NewRecorder(1)
	d.SetWalker(s.digestWalk)
	d.Tick(s.Engine.Now())
	if len(d.Records()) != 1 {
		t.Fatalf("final fold produced %d records, want 1", len(d.Records()))
	}
	return res, d.Records()[0], steps
}

// TestDigestIdleSkipInvariance pins idle-cycle skipping as a pure
// execution strategy: for every scheme, a run that fast-forwards idle
// stretches — in one Run call or in 64 chunks — ends in exactly the
// state, lane for lane, of a run that steps every cycle, with identical
// Results. The step counts prove skipping actually engaged.
func TestDigestIdleSkipInvariance(t *testing.T) {
	for _, scheme := range []config.Scheme{config.CMPDNUCA, config.CMPDNUCA2D, config.CMPSNUCA3D, config.CMPDNUCA3D} {
		t.Run(scheme.String(), func(t *testing.T) {
			stepRes, stepDig, stepSteps := skipRun(t, scheme, false, 1)
			for _, chunks := range []uint64{1, 64} {
				res, dig, steps := skipRun(t, scheme, true, chunks)
				if steps >= stepSteps {
					t.Fatalf("chunks=%d: skipping executed %d steps, stepping %d — skipping never engaged",
						chunks, steps, stepSteps)
				}
				if dig != stepDig {
					div, _ := digest.Compare([]digest.Record{stepDig}, []digest.Record{dig})
					t.Fatalf("chunks=%d: skipped run's final state differs from stepped run (lane %s):\nstep %+v\nskip %+v",
						chunks, div.Lane, stepDig, dig)
				}
				if res != stepRes {
					t.Fatalf("chunks=%d: idle skipping changed results:\nskip %+v\nstep %+v", chunks, res, stepRes)
				}
			}
		})
	}
}
